open Remy_scenarios
open Remy_sim

let quick_scenario ?(n = 2) () =
  Scenario.make
    ~service:(Remy_cc.Dumbbell.Rate_mbps 15.)
    ~n ~rtt:0.15
    ~workload:(Workload.by_bytes ~mean_bytes:5e4 ~mean_off:0.3)
    ~duration:10. ~replications:3 ()

let test_registry_names () =
  List.iter
    (fun name ->
      match Schemes.by_name name with
      | Some s -> Alcotest.(check string) "case-insensitive lookup" name s.Schemes.name
      | None -> Alcotest.failf "missing scheme %s" name)
    [ "NewReno"; "Vegas"; "Cubic"; "Compound"; "Cubic/sfqCoDel"; "XCP"; "DCTCP" ];
  Alcotest.(check bool) "unknown scheme" true (Schemes.by_name "bogus" = None)

let test_qdisc_pairings () =
  Alcotest.(check bool) "sfqcodel pairing" true
    (match Schemes.qdisc_spec Schemes.cubic_sfqcodel ~capacity:10 with
    | Remy_cc.Dumbbell.Sfq_codel 10 -> true
    | _ -> false);
  Alcotest.(check bool) "dctcp pairing" true
    (match Schemes.qdisc_spec Schemes.dctcp ~capacity:10 with
    | Remy_cc.Dumbbell.Dctcp_red { capacity = 10; threshold = 65 } -> true
    | _ -> false)

let test_run_scheme_points () =
  let s = Scenario.run_scheme (quick_scenario ()) Schemes.newreno in
  Alcotest.(check string) "scheme name" "NewReno" s.Scenario.scheme;
  (* Up to n senders x replications points; senders that never came on
     are excluded, so just require a sane, non-empty set. *)
  Alcotest.(check bool) "points collected" true (Array.length s.Scenario.points > 0);
  Alcotest.(check bool) "points bounded" true (Array.length s.Scenario.points <= 6);
  Alcotest.(check bool) "median positive" true (s.Scenario.median_tput > 0.);
  Alcotest.(check bool) "ellipse present" true (s.Scenario.ellipse <> None);
  Alcotest.(check int) "per-flow rows" 3 (Array.length s.Scenario.per_flow_tput)

let test_run_deterministic () =
  let sc = quick_scenario () in
  let a = Scenario.run_scheme sc Schemes.vegas in
  let b = Scenario.run_scheme sc Schemes.vegas in
  Alcotest.(check (float 0.)) "same medians" a.Scenario.median_tput b.Scenario.median_tput

let test_remy_scheme_runs () =
  (* A hand-built two-rule table, no training required. *)
  let tree = Remy.Rule_tree.create () in
  Remy.Rule_tree.set_action tree 0
    { Remy.Action.multiple = 0.8; increment = 5.; intersend_ms = 1. };
  let scheme = Schemes.remy ~name:"Remy test" tree in
  let s = Scenario.run_scheme (quick_scenario ()) scheme in
  Alcotest.(check bool) "remycc moves data" true (s.Scenario.median_tput > 0.1)

let test_tables_path_shape () =
  let p = Tables.path "delta1" in
  Alcotest.(check bool) "ends with delta1.rules" true
    (Filename.check_suffix p "delta1.rules")

let test_rtts_broadcast () =
  let sc =
    Scenario.make
      ~service:(Remy_cc.Dumbbell.Rate_mbps 10.)
      ~n:3 ~rtt:0.1
      ~rtts:[| 0.05; 0.1; 0.15 |]
      ~workload:Workload.saturating ~start:`Immediate ~duration:5. ~replications:1 ()
  in
  Alcotest.(check int) "explicit rtts kept" 3 (Array.length sc.Scenario.rtts);
  let s = Scenario.run_scheme sc Schemes.newreno in
  Alcotest.(check bool) "runs" true (Array.length s.Scenario.points > 0)

let test_topology_remy_idle_restart () =
  (* Topologies runs RemyCC schemes on the SoA fleet; the scheme's idle
     restart must reach it, so the run equals the same network on
     the closure plug, which [Remycc.factory ?idle_restart_s] drives.
     The outages make idle restart fire. *)
  let tree =
    match Tables.load "delta1" with Ok t -> t | Error e -> Alcotest.fail e
  in
  let scheme = Schemes.remy ~idle_restart_s:0.05 ~name:"Remy delta1" tree in
  let faults =
    match Remy_faults.Spec.parse "outage:2+1+4" with
    | Ok f -> f
    | Error e -> Alcotest.fail e
  in
  let t =
    Topologies.make ~replications:1 ~base_seed:7000
      ~workload:(Workload.by_time ~mean_on:1.0 ~mean_off:0.5)
      ~topology:"parking-lot" ~n:4 ~duration:20. ()
  in
  let fleet = Topologies.run_scheme ~faults t scheme in
  let records =
    Remy_cc.Topology.run ~faults (Topologies.config t ~scheme ~seed:7000)
  in
  Alcotest.(check (array (float 0.)))
    "fleet = records, flow for flow"
    (Array.map
       (fun (f : Metrics.flow_summary) -> f.Metrics.throughput_mbps)
       records.Remy_cc.Topology.flows)
    fleet.Scenario.per_flow_tput.(0)

let tests =
  [
    Alcotest.test_case "registry names" `Quick test_registry_names;
    Alcotest.test_case "qdisc pairings" `Quick test_qdisc_pairings;
    Alcotest.test_case "run_scheme points" `Slow test_run_scheme_points;
    Alcotest.test_case "deterministic run" `Slow test_run_deterministic;
    Alcotest.test_case "remy scheme runs" `Slow test_remy_scheme_runs;
    Alcotest.test_case "tables path" `Quick test_tables_path_shape;
    Alcotest.test_case "per-flow rtts" `Slow test_rtts_broadcast;
    Alcotest.test_case "topology RemyCC idle restart" `Quick
      test_topology_remy_idle_restart;
  ]
