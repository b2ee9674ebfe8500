(* Golden digests: MD5s of three whole runs, pinned so that any change
   in simulated behaviour — agenda order, rule lookup, sender
   arithmetic — fails here, without needing a second implementation to
   compare against.

   - a tiny optimizer design (rule table, final score, counters);
   - a faulted dumbbell (outages, Gilbert–Elliott loss, reordering);
   - a 256-flow incast on the SoA fleet with the datacenter table, which
     drives the allocation-free [Rule_tree.lookup3] on every ack;
   - the Fig. 10 heterogeneous-RTT dumbbell (per-flow propagation);
   - a verizon-lte trace-driven dumbbell running the delta1 table;
   - an XCP dumbbell (router capacity sized from the link rate);
   - a probed, traced dumbbell: every JSONL trace row plus the
     delivery-hook sequence;
   - a dumbbell mixing delta1 RemyCC, Cubic, Vegas and Compound flows,
     so different congestion controllers share one sender bank;
   - DCTCP on a RED marking queue (ECN-capable packets);
   - a faulted parking lot on the SoA fleet with idle restart, which
     drives the fleet's retransmission timeouts.

   Floats enter the digests as their IEEE bit patterns, so a one-ulp
   drift is a failure.  A deliberate behaviour change must update the
   pinned digests in the same commit and say why. *)

open Remy
open Remy_sim
open Remy_cc

let bits f = Printf.sprintf "%016Lx" (Int64.bits_of_float f)
let digest s = Digest.to_hex (Digest.string s)

let flows_repr (flows : Metrics.flow_summary array) =
  String.concat ";"
    (Array.to_list
       (Array.map
          (fun (f : Metrics.flow_summary) ->
            Printf.sprintf "%d,%d,%s,%s,%s" f.Metrics.packets f.Metrics.bytes
              (bits f.Metrics.throughput_mbps)
              (bits f.Metrics.mean_queueing_delay_ms)
              (bits f.Metrics.on_time))
          flows))

(* --- tiny design ------------------------------------------------------ *)

let tiny_model =
  { (Net_model.onex ~sim_duration:2.0 ()) with Net_model.max_senders = 1 }

let design_config () =
  Optimizer.default_config ~specimens_per_step:3 ~domains:2
    ~candidate_multipliers:[ 1. ] ~rounds_per_rule:2 ~k_subdivide:1
    ~max_epochs:2 ~wall_budget_s:300. ~seed:5 ~model:tiny_model
    ~objective:(Objective.proportional ~delta:1.0) ()

let design_repr () =
  let r = Optimizer.design (design_config ()) in
  Printf.sprintf "%s|%s|%d|%d"
    (Remy_util.Sexp.to_string (Rule_tree.to_sexp_full r.Optimizer.tree))
    (bits r.Optimizer.final_score) r.Optimizer.evaluations
    r.Optimizer.improvements

(* --- faulted dumbbell ------------------------------------------------- *)

let faulted_dumbbell_repr () =
  let faults =
    match
      Remy_faults.Spec.parse "outage:1+0.5+5;ge:0.02,0.2,0.4;reorder:0.05,0.005"
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let transfer =
    {
      Workload.off_time = Remy_util.Dist.Constant infinity;
      on_spec =
        Workload.By_bytes
          (Remy_util.Dist.Constant (float_of_int (200 * Packet.default_size)));
    }
  in
  let config =
    {
      Dumbbell.service = Dumbbell.Rate_mbps 10.;
      qdisc = Dumbbell.Droptail 1000;
      flows =
        Array.init 2 (fun _ ->
            {
              Dumbbell.cc = Newreno.factory ();
              rtt = 0.1;
              workload = transfer;
              start = `Immediate;
            });
      duration = 30.;
      seed = 9;
      min_rto = Dumbbell.default_min_rto;
    }
  in
  flows_repr (Topology.run ~faults (Topology.of_dumbbell config)).Topology.flows

(* --- 256-flow incast on the fleet -------------------------------------- *)

let incast_repr () =
  let tree =
    match Remy_scenarios.Tables.load "datacenter" with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  let r =
    Topology.run ~sender_factory:(Fleet.factory tree)
      (Topology.incast ~n:256 ~cc:(Remycc.factory tree) ~duration:1.0 ~seed:3 ())
  in
  Printf.sprintf "%s|%d|%d|%d|%s" (flows_repr r.Topology.flows) r.Topology.drops
    r.Topology.delivered r.Topology.received
    (bits r.Topology.bottleneck_utilization)

(* --- dumbbells: per-flow delay, trace service, XCP, probes ------------ *)

let table name =
  match Remy_scenarios.Tables.load name with
  | Ok t -> t
  | Error e -> Alcotest.fail e

let dumbbell ~service ~qdisc ~ccs ~rtts ~workload ~start ~duration ~seed =
  {
    Dumbbell.service;
    qdisc;
    flows =
      Array.mapi
        (fun i cc -> { Dumbbell.cc; rtt = rtts.(i); workload; start })
        ccs;
    duration;
    seed;
    min_rto = Dumbbell.default_min_rto;
  }

let run_repr ?tracer ?probe_interval ?delivery_hook config =
  let r =
    Topology.run ?tracer ?probe_interval ?delivery_hook
      (Topology.of_dumbbell config)
  in
  Printf.sprintf "%s|%d|%d|%s" (flows_repr r.Topology.flows) r.Topology.drops
    r.Topology.delivered
    (bits r.Topology.bottleneck_utilization)

let hetero_rtt_repr () =
  let tree = table "delta1" in
  run_repr
    (dumbbell ~service:(Dumbbell.Rate_mbps 10.) ~qdisc:(Dumbbell.Droptail 1000)
       ~ccs:(Array.make 4 (Remycc.factory tree))
       ~rtts:[| 0.050; 0.100; 0.150; 0.200 |]
       ~workload:(Workload.icsi ~mean_off:0.2) ~start:`Off_draw ~duration:10.
       ~seed:11)

let trace_repr () =
  let trace =
    match
      Cell_trace.load
        (Filename.concat (Remy_scenarios.Tables.data_dir ()) "verizon-lte.trace")
    with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  let tree = table "delta1" in
  run_repr
    (dumbbell ~service:(Dumbbell.Trace trace) ~qdisc:(Dumbbell.Droptail 1000)
       ~ccs:(Array.make 4 (Remycc.factory tree))
       ~rtts:(Array.make 4 0.050)
       ~workload:(Workload.by_bytes ~mean_bytes:100e3 ~mean_off:0.5)
       ~start:`Off_draw ~duration:10. ~seed:12)

let xcp_repr () =
  run_repr
    (dumbbell ~service:(Dumbbell.Rate_mbps 15.) ~qdisc:(Dumbbell.Xcp 1000)
       ~ccs:(Array.make 3 (Xcp.factory ()))
       ~rtts:[| 0.1; 0.1; 0.1 |]
       ~workload:(Workload.by_time ~mean_on:1.0 ~mean_off:0.5)
       ~start:`Off_draw ~duration:10. ~seed:13)

let probed_repr () =
  let sink, read = Remy_obs.Sink.memory () in
  let hook = Buffer.create 4096 in
  let run =
    run_repr ~tracer:(Remy_obs.Trace.make sink) ~probe_interval:0.25
      ~delivery_hook:(fun ~flow ~now ~seq ->
        Printf.bprintf hook "%d,%s,%d;" flow (bits now) seq)
      (dumbbell ~service:(Dumbbell.Rate_mbps 10.) ~qdisc:(Dumbbell.Droptail 40)
         ~ccs:[| Newreno.factory (); Cubic.factory () |]
         ~rtts:[| 0.05; 0.12 |] ~workload:Workload.saturating
         ~start:`Immediate ~duration:3. ~seed:14)
  in
  String.concat "\n" (List.map Remy_obs.Record.to_json (read ()))
  ^ "|" ^ Buffer.contents hook ^ "|" ^ run

let mixed_repr () =
  let tree = table "delta1" in
  run_repr
    (dumbbell ~service:(Dumbbell.Rate_mbps 12.) ~qdisc:(Dumbbell.Droptail 20)
       ~ccs:
         [|
           Remycc.factory tree; Cubic.factory (); Vegas.factory ();
           Compound.factory ();
         |]
       ~rtts:[| 0.06; 0.08; 0.1; 0.12 |]
       ~workload:(Workload.by_bytes ~mean_bytes:200e3 ~mean_off:0.3)
       ~start:`Off_draw ~duration:10. ~seed:15)

let dctcp_repr () =
  run_repr
    (dumbbell ~service:(Dumbbell.Rate_mbps 100.)
       ~qdisc:(Dumbbell.Dctcp_red { capacity = 200; threshold = 20 })
       ~ccs:(Array.make 4 (Dctcp.factory ()))
       ~rtts:(Array.make 4 0.004)
       ~workload:(Workload.by_bytes ~mean_bytes:200e3 ~mean_off:0.05)
       ~start:`Off_draw ~duration:3. ~seed:16)

let faulted_fleet_repr () =
  let tree = table "delta1" in
  let faults =
    match Remy_faults.Spec.parse "outage:1+0.8+3;ge:0.02,0.2,0.3" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let r =
    Topology.run ~faults
      ~sender_factory:(Fleet.factory ~idle_restart_s:0.3 tree)
      (Topology.parking_lot ~hops:2 ~n:6 ~cc:(Remycc.factory tree)
         ~workload:(Workload.by_bytes ~mean_bytes:60e3 ~mean_off:0.2)
         ~start:`Off_draw ~duration:8. ~seed:17 ())
  in
  Printf.sprintf "%s|%d|%d|%d|%s" (flows_repr r.Topology.flows) r.Topology.drops
    r.Topology.delivered r.Topology.received
    (bits r.Topology.bottleneck_utilization)

let pinned name expected repr () =
  Alcotest.(check string) (name ^ " digest") expected (digest (repr ()))

let tests =
  [
    Alcotest.test_case "tiny design" `Slow
      (pinned "design" "30217e98a75baa0f0f16dde53935ac3e" design_repr);
    Alcotest.test_case "faulted dumbbell" `Quick
      (pinned "faulted dumbbell" "2d56e3876264cbc748aaa23dd8406e10"
         faulted_dumbbell_repr);
    Alcotest.test_case "256-flow incast on the fleet" `Quick
      (pinned "incast" "f27684a1fd1bdd26c9d012666c6c4257" incast_repr);
    Alcotest.test_case "heterogeneous-RTT dumbbell" `Quick
      (pinned "heterogeneous RTT" "e3355517998e381281025b3659252f2e" hetero_rtt_repr);
    Alcotest.test_case "verizon-lte trace dumbbell" `Quick
      (pinned "trace" "4a233723df9e933b1483391f50b13cfb" trace_repr);
    Alcotest.test_case "XCP dumbbell" `Quick (pinned "xcp" "7f5480c613a1a8eba24622634979711a" xcp_repr);
    Alcotest.test_case "probed traced dumbbell" `Quick
      (pinned "probed" "38acfb07586de2688cedc11b585debd7" probed_repr);
    Alcotest.test_case "mixed-CC dumbbell" `Quick
      (pinned "mixed" "8cade9ab6d8bc1c7e4f87e282310b086" mixed_repr);
    Alcotest.test_case "DCTCP on RED" `Quick
      (pinned "dctcp" "c5c2e29b534b148e4946e00bf3e29259" dctcp_repr);
    Alcotest.test_case "faulted parking lot on the fleet" `Quick
      (pinned "faulted fleet" "e8271525c43314818edd6072bf4790f9" faulted_fleet_repr);
  ]
