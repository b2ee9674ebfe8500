(* eval-fig4: the Fig. 4 evaluation remy_run performs — 8 senders,
   15 Mbps, 150 ms, 100 kB exponential flows with 0.5 s off times —
   for the six Fig. 4 baselines and the three delta tables, one
   Scenario.run_scheme call per scheme x seed. *)

open Common

type size = { seeds : int; duration : float }

let full = { seeds = 8; duration = 60. }
let tiny = { seeds = 1; duration = 2. }
let link_mbps = 15.
let tables = [ "delta01"; "delta1"; "delta10" ]

let scenario ~size ~seed =
  Remy_scenarios.Scenario.make
    ~service:(Remy_cc.Dumbbell.Rate_mbps link_mbps)
    ~n:8 ~rtt:0.150
    ~workload:(Remy_sim.Workload.by_bytes ~mean_bytes:100e3 ~mean_off:0.5)
    ~duration:size.duration ~replications:1 ~base_seed:seed ()

(* Seeds of one pass, derived from the workload seed. *)
let seeds ~size ~seed = List.init size.seeds (fun i -> (seed * 1000) + i)

let load_table name =
  match Remy.Remycc.load_result (Remy_scenarios.Tables.path name) with
  | Ok tree -> tree
  | Error e -> failwith (Printf.sprintf "cannot load table %s: %s" name e)

let schemes trees =
  Remy_scenarios.Schemes.fig4_baselines
  @ List.map (fun (name, tree) -> Remy_scenarios.Schemes.remy ~name tree) trees

(* The output check of one run: every scored sender has a finite,
   non-negative delay and a throughput the 15 Mbps link can carry. *)
let check_summary (s : Remy_scenarios.Scenario.summary) =
  let open Remy_scenarios.Scenario in
  let bad =
    Array.exists
      (fun p ->
        (not (Float.is_finite p.tput_mbps))
        || (not (Float.is_finite p.qdelay_ms))
        || p.tput_mbps < 0. || p.qdelay_ms < 0.
        || p.tput_mbps > link_mbps *. 1.001)
      s.points
  in
  if Array.length s.points = 0 then Error "no scored senders"
  else if bad then Error "flow summary out of range"
  else Ok s

let summary_text (s : Remy_scenarios.Scenario.summary) =
  let open Remy_scenarios.Scenario in
  let b = Buffer.create 256 in
  Buffer.add_string b s.scheme;
  Array.iter (fun p -> Printf.bprintf b ";%h,%h" p.tput_mbps p.qdelay_ms) s.points;
  Array.iter (Array.iter (fun x -> Printf.bprintf b "|%h" x)) s.per_flow_tput;
  Buffer.contents b

(* Memory points RemyCC runs visited, per table: the replay input. *)
type visits = (string, Remy.Rule_tree.t * Remy.Memory.t list) Hashtbl.t

let wrap_cc timer (factory : Remy_cc.Cc.factory) () =
  let cc = factory () in
  { cc with Remy_cc.Cc.on_ack = Span.timed timer cc.Remy_cc.Cc.on_ack }

(* Counts bottleneck drops and deliveries from the simulator's own
   packet-event hooks (a tracer), on a pass whose time is not used. *)
let counting_tracer () =
  let drops = ref 0 and delivered = ref 0 in
  let emit r =
    match Remy_obs.Record.find "ev" r with
    | Some (Remy_obs.Record.Str "drop") -> incr drops
    | Some (Remy_obs.Record.Str "deliver") -> incr delivered
    | _ -> ()
  in
  (Remy_obs.Trace.make { Remy_obs.Sink.emit; close = ignore }, drops, delivered)

let op_counter = ref 0

(* Table loading and scenario construction. *)
let setup ~size ~seed =
  (List.map (fun n -> (n, load_table n)) tables, scenario ~size ~seed)

let pass ~size ~seed ~traced =
  let (trees, scen), setup_s = timed_setup (fun () -> setup ~size ~seed) in
  let base = schemes trees in
  let remy_t = Span.timer () and base_t = Span.timer () in
  let visits : visits = Hashtbl.create 3 in
  let lookups = ref 0 in
  let rec_ = Span.recorder () in
  let run_one seed (scheme : Remy_scenarios.Schemes.t) =
    let scen = { scen with Remy_scenarios.Scenario.base_seed = seed } in
    if not traced then Remy_scenarios.Scenario.run_scheme scen scheme
    else begin
      incr op_counter;
      Span.set_op rec_ !op_counter;
      match scheme.Remy_scenarios.Schemes.tree with
      | Some tree ->
        let tally =
          Remy.Tally.create ~capacity:(Remy.Rule_tree.capacity tree) ~seed ()
        in
        let scheme =
          {
            scheme with
            Remy_scenarios.Schemes.factory = wrap_cc remy_t (Remy.Remycc.factory ~tally tree);
          }
        in
        let s =
          Span.span rec_ ~name:"scenario.run" ~layer:"sim" (fun () ->
              Remy_scenarios.Scenario.run_scheme scen scheme)
        in
        let exported = Remy.Tally.export tally in
        let name = scheme.Remy_scenarios.Schemes.name in
        let prev = match Hashtbl.find_opt visits name with Some (_, l) -> l | None -> [] in
        let samples = List.concat_map (fun (_, n, ms) -> lookups := !lookups + n; ms) exported in
        Hashtbl.replace visits name (tree, samples @ prev);
        s
      | None ->
        let scheme =
          {
            scheme with
            Remy_scenarios.Schemes.factory = wrap_cc base_t scheme.Remy_scenarios.Schemes.factory;
          }
        in
        Span.span rec_ ~name:"scenario.run" ~layer:"sim" (fun () ->
            Remy_scenarios.Scenario.run_scheme scen scheme)
    end
  in
  let c0 = read_counts () in
  let walls = ref [] and texts = ref [] and errors = ref [] in
  let body () =
    List.iter
      (fun seed ->
        List.iter
          (fun scheme ->
            let r, w =
              time (fun () ->
                  guarded scheme.Remy_scenarios.Schemes.name (fun () ->
                      check_summary (run_one seed scheme)))
            in
            walls := w :: !walls;
            match r with
            | Ok s -> texts := summary_text s :: !texts
            | Error e -> errors := e :: !errors)
          base)
      (seeds ~size ~seed)
  in
  let (), wall =
    time (fun () ->
        if traced then Span.span rec_ ~name:"bench.pass" ~layer:"bench" body else body ())
  in
  let counts = diff_counts (read_counts ()) c0 in
  let ops = List.length !walls in
  let spans = Span.spans rec_ in
  let layers =
    if not traced then []
    else begin
      let ledger = Span.ledger spans in
      let get l = Option.value ~default:0. (List.assoc_opt l ledger) in
      let cc_s = remy_t.Span.total_s +. base_t.Span.total_s in
      let sim_rest = get "sim" -. cc_s in
      let run_walls = Array.of_list !walls in
      [
        ("sim.runs", float_of_int ops);
        ("sim.run_s_p50", quantile run_walls 0.5);
        ("sim.run_s_p99", quantile run_walls 0.99);
        ("sim.busy_s", get "sim");
        ("sim.residual_s", sim_rest);
        ("cc.remy.on_ack_calls", float_of_int remy_t.Span.calls);
        ("cc.remy.on_ack_s", remy_t.Span.total_s);
        ("cc.baseline.on_ack_calls", float_of_int base_t.Span.calls);
        ("cc.baseline.on_ack_s", base_t.Span.total_s);
        ("rule_tree.lookups", float_of_int !lookups);
        ("ledger.bench_s", get "bench");
        ("ledger.cc_s", cc_s);
        ("ledger.sim_s", sim_rest);
      ]
      @ Replay.lookups visits
    end
  in
  {
    setup_s;
    wall_s = wall;
    op_walls = Array.of_list (List.rev !walls);
    evals = ops;
    sim_s = float_of_int ops *. size.duration;
    digest = md5 (String.concat "\n" (List.rev !texts));
    score = None;
    attempted = ops;
    failed = List.length !errors;
    errors = List.rev !errors;
    counts;
    peak_rss_mb = peak_rss_mb ();
    layers;
    spans;
  }

(* Drop and delivery counts for one pass, from a tracer that counts
   packet events (deterministic, so one untimed pass suffices). *)
let drop_counts ~size ~seed =
  let trees, scen = setup ~size ~seed in
  let tracer, drops, delivered = counting_tracer () in
  List.iter
    (fun seed ->
      let scen = { scen with Remy_scenarios.Scenario.base_seed = seed } in
      List.iter
        (fun scheme -> ignore (Remy_scenarios.Scenario.run_scheme ~tracer scen scheme))
        (schemes trees))
    (seeds ~size ~seed);
  [ ("qdisc.drops", float_of_int !drops); ("link.delivered", float_of_int !delivered) ]
