(* The repository benchmark.  One run drives one workload through the
   public entry points of lib/ for a fixed number of seconds and prints,
   as its last line, one JSON object: end-to-end metrics with tracing
   off (--trace 0), or per-layer metrics from a traced run (--trace 1).

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --selftest

   Every workload is a closed loop: one caller waits for each operation
   before starting the next.  See perfbench/README.md. *)

open Common

let workloads = [ "train-pool"; "train-dist"; "eval-fig4"; "scale-incast4096" ]

(* The workload's pass; training ignores the seed (see
   Train.optimizer_seed). *)
let pass_fn ~tiny name =
  let train = if tiny then Train.tiny else Train.full in
  match name with
  | "train-pool" -> Some (fun ~seed:_ ~traced -> Train.pool_pass ~size:train ~traced)
  | "train-dist" -> Some (fun ~seed:_ ~traced -> Train.dist_pass ~size:train ~traced)
  | "eval-fig4" -> Some (Fig4.pass ~size:(if tiny then Fig4.tiny else Fig4.full))
  | "scale-incast4096" -> Some (Incast.pass ~size:(if tiny then Incast.tiny else Incast.full))
  | _ -> None

(* Per-layer metrics, in BENCHMARK.json order.  A layer a workload
   bypasses reports 0. *)
let per_layer =
  [
    ("optimizer.self_s", "s"); ("optimizer.rounds", "count");
    ("optimizer.evaluations", "count");
    ("evaluator.baseline_s", "s"); ("evaluator.candidates_s", "s");
    ("evaluator.reduce_s", "s"); ("evaluator.spec_sims", "count");
    ("evaluator.spec_skips", "count"); ("evaluator.skip_ratio", "ratio");
    ("par.jobs", "count"); ("par.tasks", "count"); ("par.helper_share", "ratio");
    ("par.busy_s", "s"); ("par.wait_s", "s"); ("par.utilization", "ratio");
    ("par.task_s_p50", "s"); ("par.task_s_p99", "s");
    ("dist.handshake_s", "s"); ("dist.coord_cpu_s", "s"); ("dist.worker_cpu_s", "s");
    ("dist.idle_share", "ratio"); ("wire.tree_bytes", "bytes");
    ("wire.task_bytes", "bytes"); ("wire.encode_us", "us"); ("wire.decode_us", "us");
    ("sim.runs", "count"); ("sim.run_s_p50", "s"); ("sim.run_s_p99", "s");
    ("sim.busy_s", "s"); ("engine.events", "count"); ("engine.events_per_s", "1/s");
    ("qdisc.drops", "count"); ("link.delivered", "count"); ("sim.residual_s", "s");
    ("cc.remy.on_ack_calls", "count"); ("cc.remy.on_ack_s", "s");
    ("cc.baseline.on_ack_calls", "count"); ("cc.baseline.on_ack_s", "s");
    ("rule_tree.lookups", "count"); ("rule_tree.replayed_points", "count");
    ("rule_tree.lookup_ns", "ns"); ("rule_tree.descent_ns", "ns");
    ("fleet.handle_ack_calls", "count"); ("fleet.handle_ack_s", "s");
    ("link.transmit_calls", "count"); ("link.transmit_s", "s");
    ("engine.pending_max", "count"); ("engine.pending_mean", "count");
    ("topology.residual_s", "s");
    ("packet_pool.hit_rate", "ratio"); ("gc.minor_words_per_sim_s", "words/s");
    ("gc.minor_collections", "count"); ("gc.major_collections", "count");
    ("ledger.optimizer_s", "s"); ("ledger.evaluator_s", "s"); ("ledger.par_s", "s");
    ("ledger.dist_s", "s"); ("ledger.sim_s", "s"); ("ledger.cc_s", "s");
    ("ledger.fleet_s", "s"); ("ledger.link_s", "s"); ("ledger.bench_s", "s");
    ("host.reference_load_s", "s");
    ("trace.untraced_wall_s", "s"); ("trace.traced_wall_s", "s");
    ("trace.overhead_s", "s"); ("trace.residual_s", "s");
  ]

(* --- reference digests --------------------------------------------------- *)

(* Lines "workload seed digest"; '#' starts a comment, and seed "*"
   matches every seed (for workloads whose inputs ignore it). *)
let load_reference () =
  match open_in (Filename.concat "perfbench" "reference.txt") with
  | exception Sys_error _ -> []
  | ic ->
    let rec go acc =
      match input_line ic with
      | exception End_of_file -> List.rev acc
      | line -> (
        match String.split_on_char ' ' (String.trim line) with
        | [ w; s; d ] when String.length w > 0 && w.[0] <> '#' ->
          go (((w, s), d) :: acc)
        | _ -> go acc)
    in
    let r = go [] in
    close_in ic;
    r

(* --- measurement loop ---------------------------------------------------- *)

(* Cores a workload keeps busy: the reference load runs on as many. *)
let cores = function "train-pool" | "train-dist" -> 2 | _ -> 1

let run_passes ~domains ~seconds ~trace f =
  let t0 = now () in
  let passes = ref [] in
  let untraced () = List.filter (fun (t, _) -> not t) !passes in
  let traced () = List.filter (fun (t, _) -> t) !passes in
  let enough () =
    now () -. t0 >= seconds
    && List.length (untraced ()) >= 3
    && ((not trace) || List.length (traced ()) >= 2)
  in
  let i = ref 0 in
  let ref_before = ref (Calib.measure ~domains ()) in
  while not (enough ()) do
    (* Alternate traced and untraced passes so host drift hits both. *)
    let tr = trace && !i mod 2 = 1 in
    let p = f ~traced:tr in
    let ref_after = Calib.measure ~domains () in
    let ref_load = (!ref_before +. ref_after) /. 2. in
    ref_before := ref_after;
    Printf.printf
      "pass %d%s: setup %.4g s, wall %.4f s, reference load %.4f s, %d/%d ops failed, digest %s%s\n%!"
      !i (if tr then " (traced)" else "") p.setup_s p.wall_s ref_load p.failed p.attempted
      p.digest
      (match p.score with Some s -> Printf.sprintf ", final score %.6f" s | None -> "");
    List.iter (fun e -> Printf.printf "  error: %s\n%!" e) p.errors;
    passes := (tr, (p, ref_load)) :: !passes;
    incr i
  done;
  (List.rev_map snd (untraced ()), List.rev_map snd (traced ()))

let median_of f ps = median (Array.of_list (List.map f ps))

(* Timings in reference seconds: each pass's seconds scaled by the
   reference load's nominal over measured time around that pass (see
   Calib).  Set-up is the median of the set-up each pass times for
   itself, scaled the same way: in raw seconds it switched between two
   levels with the host's speed, and over sets of ten runs its spread
   was 0.07-0.47 raw against 0.06-0.30 scaled.  The result format fixes
   its unit string to "s".
   Memory stays absolute. *)
let end_to_end untraced =
  let scaled = List.map (fun (p, ref_load) -> (p, Calib.nominal_s /. ref_load)) untraced in
  let wall (p, k) = p.wall_s *. k in
  let op_walls =
    Array.concat (List.map (fun (p, k) -> Array.map (fun w -> w *. k) p.op_walls) scaled)
  in
  [
    ("wall_s", median_of wall scaled, "ref_s");
    ("evals_per_s", median_of (fun pk -> ratio (float_of_int (fst pk).evals) (wall pk)) scaled, "1/ref_s");
    ("sim_s_per_wall_s", median_of (fun pk -> ratio (fst pk).sim_s (wall pk)) scaled, "s/ref_s");
    ("run_s_p50", quantile op_walls 0.5, "ref_s");
    ("run_s_p90", quantile op_walls 0.9, "ref_s");
    ("setup_s", median_of (fun (p, k) -> p.setup_s *. k) scaled, "s");
    ("peak_rss_mb", List.fold_left (fun m (p, _) -> Float.max m p.peak_rss_mb) 0. untraced, "MB");
  ]

(* The traced pass with the median wall time: its layer shares add up
   to its own wall exactly. *)
let median_pass ps =
  let a = Array.of_list ps in
  Array.sort (fun x y -> Float.compare x.wall_s y.wall_s) a;
  a.((Array.length a - 1) / 2)

let layer_values ~workload ~seed ~tiny untraced traced =
  let ref_loads = Array.of_list (List.map snd (untraced @ traced)) in
  let untraced = List.map fst untraced and traced = List.map fst traced in
  let mp = median_pass traced in
  let mu = median_pass untraced in
  let get k = Option.value ~default:0. (List.assoc_opt k mp.layers) in
  let c = mu.counts in
  let untraced_wall = median_of (fun p -> p.wall_s) untraced in
  let ledger_total =
    List.fold_left
      (fun acc (k, v) ->
        if String.starts_with ~prefix:"ledger." k then acc +. v else acc)
      0. mp.layers
  in
  let extra =
    (if workload = "eval-fig4" then
       Fig4.drop_counts ~size:(if tiny then Fig4.tiny else Fig4.full) ~seed
     else [])
    @ [
        ("engine.events", float_of_int c.events);
        ("engine.events_per_s", ratio (float_of_int c.events) (get "sim.busy_s"));
        ( "packet_pool.hit_rate",
          ratio (float_of_int c.pool_hits) (float_of_int (c.pool_hits + c.pool_misses)) );
        ("gc.minor_words_per_sim_s", ratio c.minor_words mu.sim_s);
        ("gc.minor_collections", float_of_int c.minor_collections);
        ("gc.major_collections", float_of_int c.major_collections);
        ("host.reference_load_s", median ref_loads);
        ("trace.untraced_wall_s", untraced_wall);
        ("trace.traced_wall_s", mp.wall_s);
        ("trace.overhead_s", mp.wall_s -. untraced_wall);
        ("trace.residual_s", untraced_wall -. ledger_total);
      ]
  in
  let all = mp.layers @ extra in
  List.map
    (fun (name, unit_) -> (name, Option.value ~default:0. (List.assoc_opt name all), unit_))
    per_layer

let write_spans ~workload ~seed traced =
  let dir = Filename.concat "perfbench" ".out" in
  (try if not (Sys.file_exists dir) then Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat dir (Printf.sprintf "spans-%s-%d.jsonl" workload seed) in
  match open_out path with
  | exception Sys_error e -> Printf.printf "spans not written: %s\n" e
  | oc ->
    List.iter
      (fun p -> List.iter (fun s -> output_string oc (Span.to_json s ^ "\n")) p.spans)
      traced;
    close_out oc;
    Printf.printf "spans written to %s\n" path

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed (String.concat ", " fields)

let run ~workload ~seed ~seconds ~trace =
  match pass_fn ~tiny:false workload with
  | None ->
    Printf.eprintf "unknown workload %S (one of: %s)\n" workload (String.concat ", " workloads);
    exit 2
  | Some f ->
    let untraced, traced = run_passes ~domains:(cores workload) ~seconds ~trace (f ~seed) in
    let all = List.map fst (untraced @ traced) in
    let attempted = List.fold_left (fun a p -> a + p.attempted) 0 all in
    let failed = List.fold_left (fun a p -> a + p.failed) 0 all in
    let digests = List.sort_uniq String.compare (List.map (fun p -> p.digest) all) in
    let checks =
      [
        ("no operation failed", failed = 0);
        ("every pass (traced or not) produced one digest", List.length digests = 1);
      ]
      @
      let refs = load_reference () in
      match
        List.find_map
          (fun key -> List.assoc_opt key refs)
          [ (workload, string_of_int seed); (workload, "*") ]
      with
      | Some d -> [ ("digest matches the reference for this seed", digests = [ d ]) ]
      | None -> []
    in
    List.iter
      (fun (name, ok) -> Printf.printf "check %s: %s\n" (if ok then "ok" else "FAILED") name)
      checks;
    Printf.printf "digest %s\n" (String.concat "," digests);
    let correct = List.for_all snd checks in
    let metrics =
      if trace then begin
        write_spans ~workload ~seed (List.map fst traced);
        layer_values ~workload ~seed ~tiny:false untraced traced
      end
      else end_to_end untraced
    in
    print_result ~correct ~attempted ~failed metrics

(* --- self-test ------------------------------------------------------------ *)

(* Each workload twice at a tiny size, traced: deterministic counts and
   digests must repeat exactly and no operation may fail; the pool and
   the distributed trainer must agree on the table. *)
let selftest () =
  let deterministic =
    [
      "optimizer.evaluations"; "optimizer.rounds"; "evaluator.spec_sims";
      "evaluator.spec_skips"; "engine.events"; "qdisc.drops"; "link.delivered";
      "rule_tree.lookups"; "fleet.handle_ack_calls"; "cc.remy.on_ack_calls";
      "cc.baseline.on_ack_calls";
    ]
  in
  let seed = 3 in
  let failures = ref 0 in
  let expect name ok =
    Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
    if not ok then incr failures
  in
  let digests = Hashtbl.create 4 and values = Hashtbl.create 4 in
  List.iter
    (fun w ->
      let f = Option.get (pass_fn ~tiny:true w) ~seed in
      let once () =
        let u = f ~traced:false in
        let t = f ~traced:true in
        let values = layer_values ~workload:w ~seed ~tiny:true [ (u, 1.) ] [ (t, 1.) ] in
        (u, t, values)
      in
      let u1, t1, v1 = once () in
      let u2, t2, v2 = once () in
      List.iter
        (fun p ->
          List.iter (fun e -> Printf.printf "  error: %s\n" e) p.errors;
          expect (Printf.sprintf "%s: no failed operation" w) (p.failed = 0 && p.attempted > 0))
        [ u1; t1; u2; t2 ];
      expect (w ^ ": digests repeat, traced and untraced")
        (List.for_all (fun p -> String.equal p.digest u1.digest) [ t1; u2; t2 ]);
      List.iter
        (fun k ->
          let a = List.find (fun (n, _, _) -> n = k) v1 and b = List.find (fun (n, _, _) -> n = k) v2 in
          let (_, x, _), (_, y, _) = (a, b) in
          expect (Printf.sprintf "%s: %s repeats (%.0f)" w k x) (Float.equal x y))
        deterministic;
      Hashtbl.replace digests w u1.digest;
      Hashtbl.replace values w v1)
    workloads;
  expect "train-pool and train-dist train the same table"
    (String.equal (Hashtbl.find digests "train-pool") (Hashtbl.find digests "train-dist"));
  let value w k =
    let _, v, _ = List.find (fun (n, _, _) -> n = k) (Hashtbl.find values w) in
    v
  in
  List.iter
    (fun k ->
      expect
        (Printf.sprintf "train-pool and train-dist agree on %s (%.0f)" k (value "train-pool" k))
        (Float.equal (value "train-pool" k) (value "train-dist" k)))
    [ "sim.runs"; "rule_tree.lookups" ];
  if !failures > 0 then begin
    Printf.printf "%d self-test check(s) failed\n" !failures;
    exit 1
  end
  else print_endline "self-test passed"

let () =
  match Array.to_list Sys.argv with
  | _ :: flag :: path :: rest when flag = Train.worker_flag ->
    Train.worker_main ~traced:(rest = [ "traced" ]) path
  | _ :: "--selftest" :: _ -> selftest ()
  | _ ->
    let workload = ref "" and seed = ref 42 and seconds = ref 10. and trace = ref 0 in
    (try
       Arg.parse_argv Sys.argv
         [
           ("--workload", Arg.Set_string workload, "NAME workload to run");
           ("--seed", Arg.Set_int seed, "N input seed");
           ("--seconds", Arg.Set_float seconds, "S measure for this long");
           ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
         ]
         (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
         "main.exe --workload NAME --seed N --seconds S --trace 0|1"
     with Arg.Bad msg | Arg.Help msg ->
       prerr_string msg;
       exit 2);
    run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
