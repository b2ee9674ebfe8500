(* train-pool and train-dist: the optimizer macrobench configuration,
   run through Optimizer.design with the in-process Par.Pool or with the
   lib/dist coordinator and two spawned worker processes. *)

open Remy
open Common

type size = { specimens : int; epochs : int; rounds_per_rule : int; sim_duration : float }

let full = { specimens = 4; epochs = 3; rounds_per_rule = 2; sim_duration = 1.0 }
let tiny = { specimens = 2; epochs = 2; rounds_per_rule = 1; sim_duration = 1.0 }
let domains = 2
let workers = 2

let config ~size ~seed =
  Optimizer.default_config ~specimens_per_step:size.specimens ~domains ~k_subdivide:1
    ~candidate_multipliers:[ 1.; 8. ] ~rounds_per_rule:size.rounds_per_rule
    ~max_epochs:size.epochs ~wall_budget_s:600. ~seed
    ~model:(Net_model.onex ~sim_duration:size.sim_duration ())
    ~objective:(Objective.proportional ~delta:1.0) ()

let tree_digest (r : Optimizer.report) =
  md5
    (Remy_util.Sexp.to_string (Rule_tree.to_sexp_full r.Optimizer.tree)
    ^ Printf.sprintf "|%h" r.Optimizer.final_score)

(* The output check of one design run. *)
let check_report (r : Optimizer.report) =
  if r.Optimizer.interrupted then Error "design interrupted"
  else if not (Float.is_finite r.Optimizer.final_score) then
    Error (Printf.sprintf "non-finite final score %h" r.Optimizer.final_score)
  else
    match Rule_tree.validate r.Optimizer.tree with
    | Ok () -> Ok r
    | Error e -> Error ("trained table invalid: " ^ e)

(* --- traced backends --------------------------------------------------- *)

(* What a traced design run learns besides its spans. *)
type probe = {
  mutable baseline_sims : int;
  mutable task_walls : float list;
  mutable lookups : int;
  mutable map_wall : float;
  mutable tree_bytes : int;
  mutable task_bytes : int;
  mutable encode_s : float;
  mutable decode_s : float;
  mutable messages : int;
}

let probe () =
  {
    baseline_sims = 0;
    task_walls = [];
    lookups = 0;
    map_wall = 0.;
    tree_bytes = 0;
    task_bytes = 0;
    encode_s = 0.;
    decode_s = 0.;
    messages = 0;
  }

let tally_lookups tally =
  List.fold_left (fun acc (_, n, _) -> acc + n) 0 (Tally.export tally)

(* An eval_backend built from the public Evaluator pieces over a
   benchmark-owned pool, one span per pool task.  It must reproduce
   Evaluator.baseline / candidate_scores bit for bit; the tree digest
   check against the untraced default path proves it does. *)
let pool_backend (cfg : Optimizer.config) pool rec_ pr =
  let model = cfg.Optimizer.model in
  let objective = cfg.Optimizer.objective in
  let queue_capacity = model.Net_model.queue_capacity in
  let duration = model.Net_model.sim_duration in
  let topology = model.Net_model.topology in
  let traced_map f xs =
    Span.span rec_ ~name:"par.map" ~layer:"par" (fun () ->
        let t0 = now () in
        let out =
          Par.Pool.map pool
            (fun x ->
              let start = now () in
              let r = f x in
              (r, start, now ()))
            xs
        in
        pr.map_wall <- pr.map_wall +. (now () -. t0);
        Array.map
          (fun (r, start, stop) ->
            Span.record rec_ ~name:"sim.task" ~layer:"sim" ~start ~stop;
            pr.task_walls <- (stop -. start) :: pr.task_walls;
            r)
          out)
  in
  let eval_baseline ?tally tree specimens =
    Span.span rec_ ~name:"evaluator.baseline" ~layer:"evaluator" (fun () ->
        let specs = Array.of_list specimens in
        let capacity = Rule_tree.capacity tree in
        pr.baseline_sims <- pr.baseline_sims + Array.length specs;
        let per_spec =
          traced_map
            (fun (s : Net_model.specimen) ->
              let local =
                Tally.create ~capacity ~seed:(s.Net_model.spec_seed lxor 0x5EED) ()
              in
              let scores =
                Evaluator.specimen_scores ~tally:local ?topology ~objective
                  ~queue_capacity ~duration tree s
              in
              let touched = Array.init capacity (fun id -> Tally.count local id > 0) in
              ({ Evaluator.spec = s; scores; touched }, local))
            specs
        in
        Array.iter (fun (_, local) -> pr.lookups <- pr.lookups + tally_lookups local) per_spec;
        (match tally with
        | Some dst -> Array.iter (fun (_, local) -> Tally.merge_into dst local) per_spec
        | None -> ());
        let cache = Array.map fst per_spec in
        ( Evaluator.result_of_spec_scores (Array.map (fun c -> c.Evaluator.scores) cache),
          cache ))
  in
  let eval_candidates tree ~rule candidates cache =
    Span.span rec_ ~name:"evaluator.candidates" ~layer:"evaluator" (fun () ->
        let resim =
          Evaluator.resim_indices ~incremental:cfg.Optimizer.incremental ~rule cache
        in
        let grid = Evaluator.candidate_grid ~candidates ~resim in
        let capacity = Rule_tree.capacity tree in
        let fresh =
          traced_map
            (fun (ci, si) ->
              (* A private tally only counts lookups; it never feeds back. *)
              let t = Tally.create ~reservoir:1 ~capacity ~seed:si () in
              let scores =
                Evaluator.specimen_scores ~override:(rule, candidates.(ci)) ~tally:t
                  ?topology ~objective ~queue_capacity ~duration tree
                  cache.(si).Evaluator.spec
              in
              (scores, tally_lookups t))
            grid
        in
        Array.iter (fun (_, n) -> pr.lookups <- pr.lookups + n) fresh;
        let fresh = Array.map fst fresh in
        Span.span rec_ ~name:"evaluator.reduce" ~layer:"evaluator" (fun () ->
            Evaluator.reduce_candidates ~candidates ~cache ~resim ~fresh))
  in
  { Optimizer.eval_baseline; eval_candidates }

(* Time the lib/dist codec on one message the coordinator sends:
   Wire.to_sexp + Frame.encode, then Frame.decode + Wire.of_sexp.
   The bytes are computed from the rebuilt message, not observed on the
   socket. *)
let replay_message pr msg =
  let frame, enc = time (fun () -> Remy_dist.Frame.encode (Remy_dist.Wire.to_sexp msg)) in
  let ok, dec =
    time (fun () ->
        match Remy_dist.Frame.decode frame ~pos:0 with
        | Ok (sexp, _) -> Result.is_ok (Remy_dist.Wire.of_sexp sexp)
        | Error _ -> false)
  in
  if not ok then failwith "wire replay: message did not round-trip";
  pr.encode_s <- pr.encode_s +. enc;
  pr.decode_s <- pr.decode_s +. dec;
  pr.messages <- pr.messages + 1;
  String.length frame

(* The coordinator backend with spans around each call, plus the codec
   replay of the tree-sync and task messages that call sends (in a
   benchmark-layer span, so it is not charged to lib/dist). *)
let dist_backend (cfg : Optimizer.config) (inner : Optimizer.eval_backend) rec_ pr =
  let gen = ref 0 in
  let eval_baseline ?tally tree specimens =
    pr.baseline_sims <- pr.baseline_sims + List.length specimens;
    Span.span rec_ ~name:"wire.replay" ~layer:"bench" (fun () ->
        incr gen;
        let tree_frame = replay_message pr (Remy_dist.Wire.Tree { gen = !gen; tree }) in
        pr.tree_bytes <- pr.tree_bytes + (workers * tree_frame);
        List.iteri
          (fun index spec ->
            pr.task_bytes <-
              pr.task_bytes
              + replay_message pr
                  (Remy_dist.Wire.Task { index; task = Remy_dist.Wire.Baseline { spec } }))
          specimens);
    Span.span rec_ ~name:"dist.baseline" ~layer:"dist" (fun () ->
        inner.Optimizer.eval_baseline ?tally tree specimens)
  in
  let eval_candidates tree ~rule candidates cache =
    Span.span rec_ ~name:"wire.replay" ~layer:"bench" (fun () ->
        let resim =
          Evaluator.resim_indices ~incremental:cfg.Optimizer.incremental ~rule cache
        in
        Array.iteri
          (fun index (ci, si) ->
            pr.task_bytes <-
              pr.task_bytes
              + replay_message pr
                  (Remy_dist.Wire.Task
                     {
                       index;
                       task =
                         Remy_dist.Wire.Candidate
                           { rule; action = candidates.(ci); spec = cache.(si).Evaluator.spec };
                     }))
          (Evaluator.candidate_grid ~candidates ~resim));
    Span.span rec_ ~name:"dist.candidates" ~layer:"dist" (fun () ->
        inner.Optimizer.eval_candidates tree ~rule candidates cache)
  in
  { Optimizer.eval_baseline; eval_candidates }

(* Counts baseline specimen sims on an untraced coordinator run: the
   report gives candidate sims only. *)
let counting_backend (inner : Optimizer.eval_backend) pr =
  {
    inner with
    Optimizer.eval_baseline =
      (fun ?tally tree specimens ->
        pr.baseline_sims <- pr.baseline_sims + List.length specimens;
        inner.Optimizer.eval_baseline ?tally tree specimens);
  }

(* --- worker processes -------------------------------------------------- *)

let worker_flag = "--dist-worker"

(* One task of the traced worker: what Remy_dist.Worker does, plus a
   Tally on candidate tasks too, so that every task's rule lookups are
   counted.  Baseline tallies are seeded as the worker seeds them. *)
let traced_task (p : Remy_dist.Wire.eval_params) tree (task : Remy_dist.Wire.task) =
  let capacity = Rule_tree.capacity tree in
  let scores ?override tally spec =
    Evaluator.specimen_scores ?override ~tally ?topology:p.Remy_dist.Wire.topology
      ~objective:p.Remy_dist.Wire.objective ~queue_capacity:p.Remy_dist.Wire.queue_capacity
      ~duration:p.Remy_dist.Wire.duration tree spec
  in
  match task with
  | Remy_dist.Wire.Baseline { spec } ->
    let tally = Tally.create ~capacity ~seed:(spec.Net_model.spec_seed lxor 0x5EED) () in
    let scores = scores tally spec in
    (Remy_dist.Wire.Baseline_result { scores; slots = Tally.export tally }, tally_lookups tally)
  | Remy_dist.Wire.Candidate { rule; action; spec } ->
    let tally = Tally.create ~reservoir:1 ~capacity ~seed:0 () in
    let scores = scores ~override:(rule, action) tally spec in
    (Remy_dist.Wire.Candidate_result { scores }, tally_lookups tally)

(* The worker of a traced pass: the protocol of Remy_dist.Worker.serve,
   rebuilt from the public Frame, Wire and Evaluator pieces so that each
   task is timed and its lookups counted.  Untraced passes run
   Worker.serve itself; one digest across traced and untraced passes
   proves the two answer alike.  Returns the lookups and task walls. *)
let traced_serve fd =
  let open Remy_dist in
  let fail m = raise (Worker.Protocol_error m) in
  let send msg = Frame.write fd (Wire.to_sexp msg) in
  let params = ref None and tree = ref None in
  let lookups = ref 0 and walls = ref [] in
  let rec loop () =
    match Frame.read fd with
    | Error Frame.Eof -> ()
    | Error (Frame.Corrupt d) -> fail ("corrupt frame: " ^ d)
    | Ok sexp -> (
      match Wire.of_sexp sexp with
      | Error e -> fail ("bad message: " ^ e)
      | Ok (Wire.Hello { version; config_hash; params = p }) ->
        if version <> Wire.version then fail "protocol version mismatch";
        params := Some p;
        send (Wire.Welcome { config_hash; pid = Unix.getpid () });
        loop ()
      | Ok (Wire.Tree { tree = t; _ }) ->
        tree := Some t;
        loop ()
      | Ok (Wire.Task { index; task }) -> (
        match (!params, !tree) with
        | Some p, Some t ->
          let start = now () in
          let outcome, n = traced_task p t task in
          walls := (now () -. start) :: !walls;
          lookups := !lookups + n;
          send (Wire.Result { index; outcome });
          loop ()
        | _ -> fail "task before hello and tree sync")
      | Ok (Wire.Ping { seq }) ->
        send (Wire.Pong { seq });
        loop ()
      | Ok Wire.Shutdown -> ()
      | Ok _ -> fail "unexpected coordinator-bound message")
  in
  loop ();
  (!lookups, !walls)

(* Entry point of a spawned worker: serve the protocol on stdin, then
   leave this process's CPU time, peak RSS, work counters, and (traced)
   its rule lookups and task walls in [stats_path] for the coordinator
   side to read. *)
let worker_main ~traced stats_path =
  let serve () =
    if traced then traced_serve Unix.stdin
    else begin
      Remy_dist.Worker.serve Unix.stdin;
      (0, [])
    end
  in
  match serve () with
  | lookups, walls ->
    let c = read_counts () in
    let oc = open_out stats_path in
    Printf.fprintf oc "%.9f %.1f %d %d %d %.0f %d %d\n%d\n%s\n" (cpu_s ())
      (proc_status_kb "VmHWM") c.events c.pool_hits c.pool_misses c.minor_words
      c.minor_collections c.major_collections lookups
      (String.concat " " (List.map (Printf.sprintf "%.9f") walls));
    close_out oc;
    exit 0
  | exception Remy_dist.Worker.Protocol_error m ->
    prerr_endline m;
    exit 1

type worker_stats = {
  w_cpu_s : float;
  w_rss_kb : float;
  w_counts : counts;
  w_lookups : int;
  w_task_walls : float list;
}

let read_worker_stats path =
  let ic = open_in path in
  let line = input_line ic in
  let lookups = int_of_string (input_line ic) in
  let walls =
    List.filter_map float_of_string_opt (String.split_on_char ' ' (input_line ic))
  in
  close_in ic;
  Sys.remove path;
  Scanf.sscanf line "%f %f %d %d %d %f %d %d"
    (fun cpu rss events hits misses mw minc majc ->
      {
        w_cpu_s = cpu;
        w_rss_kb = rss;
        w_counts =
          {
            events;
            pool_hits = hits;
            pool_misses = misses;
            minor_words = mw;
            minor_collections = minc;
            major_collections = majc;
          };
        w_lookups = lookups;
        w_task_walls = walls;
      })

(* --- passes --------------------------------------------------------------- *)

(* The optimizer seed of every pass.  Training inputs do not follow the
   workload seed: what a design run costs depends on its trajectory and
   so on its seed (over optimizer seeds 1-5, passes of three 2-epoch
   design runs took 5.7-14.1 s at 323-711 evals/s), a spread no
   affordable number of passes averages out.  Every workload seed
   trains the macrobench config's seed 42. *)
let optimizer_seed = 42

let pass_counter = ref 0

(* One pass is one design run, timed from its call to its output check. *)
let timed_design run = time (fun () -> guarded "design" (fun () -> check_report (run ())))

let make_pass ~size ~setup_s ~wall ~sims ~counts ~peak ~layers ~spans result =
  let base =
    {
      setup_s;
      wall_s = wall;
      op_walls = [| wall |];
      evals = 0;
      sim_s = 0.;
      digest = "";
      score = None;
      attempted = 1;
      failed = 0;
      errors = [];
      counts;
      peak_rss_mb = peak;
      layers = [];
      spans;
    }
  in
  match result with
  | Ok (r : Optimizer.report) ->
    {
      base with
      evals = r.Optimizer.evaluations;
      sim_s = float_of_int sims *. size.sim_duration;
      digest = tree_digest r;
      score = Some r.Optimizer.final_score;
      layers = layers r;
    }
  | Error e -> { base with failed = 1; errors = [ e ] }

let optimizer_layers (r : Optimizer.report) =
  let sims = float_of_int r.Optimizer.spec_sims in
  let skips = float_of_int r.Optimizer.spec_skips in
  [
    ("optimizer.rounds", float_of_int r.Optimizer.rounds);
    ("optimizer.evaluations", float_of_int r.Optimizer.evaluations);
    ("evaluator.spec_sims", sims);
    ("evaluator.spec_skips", skips);
    ("evaluator.skip_ratio", ratio skips (sims +. skips));
  ]

let span_total spans name =
  List.fold_left
    (fun acc (s : Span.t) ->
      if String.equal s.Span.name name then acc +. (s.Span.stop -. s.Span.start) else acc)
    0. spans

let ledger_layers spans =
  List.map (fun (l, v) -> ("ledger." ^ l ^ "_s", v)) (Span.ledger spans)

let pool_pass ~size ~traced =
  let pr = probe () and rec_ = Span.recorder () in
  incr pass_counter;
  Span.set_op rec_ !pass_counter;
  let (cfg, pool), setup_s =
    timed_setup
      ~dispose:(fun (_, pool) -> Option.iter Par.Pool.shutdown pool)
      (fun () ->
        let cfg = config ~size ~seed:optimizer_seed in
        (* The traced run owns its pool, so its bring-up is set-up; the
           default path creates its pool inside design. *)
        ( cfg,
          if traced then
            Some
              (Par.Pool.create ~retries:cfg.Optimizer.task_retries
                 ~domains:cfg.Optimizer.domains ())
          else None ))
  in
  let p0 = Par.stats () and c0 = read_counts () in
  let result, wall =
    timed_design (fun () ->
        match pool with
        | None -> Optimizer.design cfg
        | Some pool ->
          Fun.protect
            ~finally:(fun () -> Par.Pool.shutdown pool)
            (fun () ->
              Span.span rec_ ~name:"optimizer.design" ~layer:"optimizer" (fun () ->
                  Optimizer.design ~backend:(pool_backend cfg pool rec_ pr) cfg)))
  in
  let counts = diff_counts (read_counts ()) c0 in
  let p1 = Par.stats () in
  let tasks = p1.Par.pool_tasks - p0.Par.pool_tasks in
  let spans = Span.spans rec_ in
  let layers r =
    if not traced then []
    else begin
      let helper = p1.Par.pool_helper_tasks - p0.Par.pool_helper_tasks in
      let task_walls = Array.of_list pr.task_walls in
      let p50 = quantile task_walls 0.5 and p99 = quantile task_walls 0.99 in
      let busy = sum task_walls in
      let dom = float_of_int domains in
      let ledger = Span.ledger spans in
      optimizer_layers r
      @ [
          ("optimizer.self_s", Option.value ~default:0. (List.assoc_opt "optimizer" ledger));
          ("evaluator.baseline_s", span_total spans "evaluator.baseline");
          ("evaluator.candidates_s", span_total spans "evaluator.candidates");
          ("evaluator.reduce_s", span_total spans "evaluator.reduce");
          ("par.jobs", float_of_int (p1.Par.pool_jobs - p0.Par.pool_jobs));
          ("par.tasks", float_of_int tasks);
          ("par.helper_share", ratio (float_of_int helper) (float_of_int tasks));
          ("par.busy_s", busy);
          ("par.wait_s", (dom *. pr.map_wall) -. busy);
          ("par.utilization", ratio busy (dom *. pr.map_wall));
          ("par.task_s_p50", p50);
          ("par.task_s_p99", p99);
          ("sim.runs", float_of_int (Array.length task_walls));
          ("sim.run_s_p50", p50);
          ("sim.run_s_p99", p99);
          ("sim.busy_s", busy);
          ("rule_tree.lookups", float_of_int pr.lookups);
        ]
      @ ledger_layers spans
    end
  in
  make_pass ~size ~setup_s ~wall ~sims:tasks ~counts ~peak:(peak_rss_mb ()) ~layers ~spans
    result

let stats_dir () =
  let d = Filename.concat "perfbench" ".out" in
  if not (Sys.file_exists "perfbench") then Sys.mkdir "perfbench" 0o755;
  if not (Sys.file_exists d) then Sys.mkdir d 0o755;
  d

(* Coordinator spawn plus handshake: the set-up of a distributed run.
   Each worker gets its own stats file to leave behind at exit. *)
let start_coordinator ~traced cfg =
  incr pass_counter;
  let stats_paths =
    List.init workers (fun i ->
        Filename.concat (stats_dir ())
          (Printf.sprintf "worker-%d-%d-%d.stats" (Unix.getpid ()) !pass_counter i))
  in
  let model = cfg.Optimizer.model in
  let coord =
    Remy_dist.Coordinator.create
      ~params:
        {
          Remy_dist.Wire.objective = cfg.Optimizer.objective;
          queue_capacity = model.Net_model.queue_capacity;
          duration = model.Net_model.sim_duration;
          topology = model.Net_model.topology;
        }
      ~config_hash:(Optimizer.config_fingerprint cfg)
      ~workers:
        (List.map
           (fun p ->
             Remy_dist.Coordinator.Spawn
               ([ Sys.executable_name; worker_flag; p ] @ if traced then [ "traced" ] else []))
           stats_paths)
      ()
  in
  (coord, stats_paths)

(* Shut the workers down and collect what they left behind. *)
let stop_coordinator (coord, stats_paths) =
  Remy_dist.Coordinator.shutdown coord;
  List.map read_worker_stats stats_paths

let dist_pass ~size ~traced =
  let pr = probe () and rec_ = Span.recorder () in
  let (cfg, session), setup_s =
    timed_setup
      ~dispose:(fun (_, session) -> ignore (stop_coordinator session))
      (fun () ->
        let cfg = config ~size ~seed:optimizer_seed in
        (cfg, start_coordinator ~traced cfg))
  in
  Span.set_op rec_ !pass_counter;
  let c0 = read_counts () and cpu0 = cpu_s () in
  let inner =
    Remy_dist.Coordinator.backend (fst session) ~incremental:cfg.Optimizer.incremental
  in
  let result, wall =
    timed_design (fun () ->
        if traced then
          Span.span rec_ ~name:"optimizer.design" ~layer:"optimizer" (fun () ->
              Optimizer.design ~backend:(dist_backend cfg inner rec_ pr) cfg)
        else Optimizer.design ~backend:(counting_backend inner pr) cfg)
  in
  let coord_cpu = cpu_s () -. cpu0 in
  let counts = diff_counts (read_counts ()) c0 in
  let wstats = stop_coordinator session in
  let counts = List.fold_left (fun acc w -> add_counts acc w.w_counts) counts wstats in
  let worker_cpu = List.fold_left (fun acc w -> acc +. w.w_cpu_s) 0. wstats in
  (* The workers run beside the coordinator on one host, so the run's
     footprint is the sum of their peaks. *)
  let worker_mb = List.fold_left (fun acc w -> acc +. (w.w_rss_kb /. 1024.)) 0. wstats in
  let sims = match result with Ok r -> r.Optimizer.spec_sims + pr.baseline_sims | Error _ -> 0 in
  let spans = Span.spans rec_ in
  let layers r =
    if not traced then []
    else begin
      let ledger = Span.ledger spans in
      let get l = Option.value ~default:0. (List.assoc_opt l ledger) in
      let msgs = float_of_int pr.messages in
      let task_walls = Array.of_list (List.concat_map (fun w -> w.w_task_walls) wstats) in
      optimizer_layers r
      @ [
          ("optimizer.self_s", get "optimizer");
          ("dist.handshake_s", setup_s);
          ("dist.coord_cpu_s", coord_cpu);
          ("dist.worker_cpu_s", worker_cpu);
          ("dist.idle_share", 1. -. ratio worker_cpu (float_of_int workers *. get "dist"));
          ("wire.tree_bytes", float_of_int pr.tree_bytes);
          ("wire.task_bytes", float_of_int pr.task_bytes);
          ("wire.encode_us", 1e6 *. ratio pr.encode_s msgs);
          ("wire.decode_us", 1e6 *. ratio pr.decode_s msgs);
          ("sim.runs", float_of_int (Array.length task_walls));
          ("sim.run_s_p50", quantile task_walls 0.5);
          ("sim.run_s_p99", quantile task_walls 0.99);
          ("sim.busy_s", sum task_walls);
          ( "rule_tree.lookups",
            float_of_int (List.fold_left (fun acc w -> acc + w.w_lookups) 0 wstats) );
        ]
      @ ledger_layers spans
    end
  in
  make_pass ~size ~setup_s ~wall ~sims ~counts ~peak:(peak_rss_mb () +. worker_mb) ~layers
    ~spans result
