(* scale-incast4096: Topology.incast with 4096 senders running the
   trained datacenter table on the structure-of-arrays Fleet backend. *)

open Common

type size = { n : int; duration : float }

let full = { n = 4096; duration = 10. }
let tiny = { n = 64; duration = 1. }
let rtt_s = 8e-3
let period_s = 0.02

(* Every responder answers each 20 ms request with a burst whose size
   the run's seed draws: 0.75-2.25 kB (mean 1.5 kB), so one or two
   packets.  The bursts stay synchronized, which is what makes incast;
   a constant burst would leave the seed with nothing to vary. *)
let workload =
  {
    Remy_sim.Workload.off_time = Remy_util.Dist.Constant period_s;
    on_spec = Remy_sim.Workload.By_bytes (Remy_util.Dist.Uniform (750., 2250.));
  }

let config ~size ~seed tree =
  Remy_cc.Topology.incast ~rtt_s ~workload ~n:size.n ~cc:(Remy.Remycc.factory tree)
    ~duration:size.duration ~seed ()

(* Counts every packet a sender hands to the network, for the
   delivered + dropped <= sent check. *)
let counting (inner : Remy_cc.Sender_backend.factory) sent : Remy_cc.Sender_backend.factory =
 fun env ->
  inner
    {
      env with
      Remy_cc.Sender_backend.transmit =
        (fun p ->
          incr sent;
          env.Remy_cc.Sender_backend.transmit p);
    }

type probe = {
  ack_t : Span.timer;
  tx_outer : Span.timer;
  tx_nested : Span.timer;  (** transmits made from inside handle_ack *)
  mutable in_ack : bool;
  mutable pending_max : int;
  mutable pending_sum : float;
  mutable pending_samples : int;
}

(* Fleet.factory wrapped as a Sender_backend.factory: times handle_ack
   and env.transmit (separating transmits nested inside an ack) and
   samples Engine.pending every 64th ack. *)
let traced (inner : Remy_cc.Sender_backend.factory) pr : Remy_cc.Sender_backend.factory =
 fun env ->
  let transmit p =
    if pr.in_ack then Span.timed pr.tx_nested env.Remy_cc.Sender_backend.transmit p
    else Span.timed pr.tx_outer env.Remy_cc.Sender_backend.transmit p
  in
  let ops = inner { env with Remy_cc.Sender_backend.transmit } in
  let engine = env.Remy_cc.Sender_backend.engine in
  let handle_ack a =
    pr.in_ack <- true;
    Span.timed pr.ack_t ops.Remy_cc.Sender_backend.handle_ack a;
    pr.in_ack <- false;
    if pr.ack_t.Span.calls land 63 = 0 then begin
      let p = Remy_sim.Engine.pending engine in
      if p > pr.pending_max then pr.pending_max <- p;
      pr.pending_sum <- pr.pending_sum +. float_of_int p;
      pr.pending_samples <- pr.pending_samples + 1
    end
  in
  { ops with Remy_cc.Sender_backend.handle_ack }

let check (r : Remy_cc.Topology.result) ~sent =
  if r.Remy_cc.Topology.delivered + r.Remy_cc.Topology.drops > sent then
    Error
      (Printf.sprintf "delivered %d + dropped %d > sent %d" r.Remy_cc.Topology.delivered
         r.Remy_cc.Topology.drops sent)
  else if r.Remy_cc.Topology.delivered = 0 then Error "nothing delivered"
  else Ok r

let result_text (r : Remy_cc.Topology.result) =
  let b = Buffer.create 4096 in
  Printf.bprintf b "%d %d %d" r.Remy_cc.Topology.drops r.Remy_cc.Topology.delivered
    r.Remy_cc.Topology.received;
  Array.iter
    (fun (f : Remy_sim.Metrics.flow_summary) ->
      Printf.bprintf b ";%h,%h,%d,%d" f.Remy_sim.Metrics.throughput_mbps
        f.Remy_sim.Metrics.mean_queueing_delay_ms f.Remy_sim.Metrics.bytes
        f.Remy_sim.Metrics.packets)
    r.Remy_cc.Topology.flows;
  Buffer.contents b

let pass_counter = ref 0

(* Table loading and topology construction. *)
let setup ~size ~seed =
  let tree =
    match Remy.Remycc.load_result (Remy_scenarios.Tables.path "datacenter") with
    | Ok t -> t
    | Error e -> failwith ("cannot load table datacenter: " ^ e)
  in
  (tree, config ~size ~seed tree)

let pass ~size ~seed ~traced:tr =
  let (tree, cfg), setup_s = timed_setup (fun () -> setup ~size ~seed) in
  let sent = ref 0 in
  let pr =
    {
      ack_t = Span.timer ();
      tx_outer = Span.timer ();
      tx_nested = Span.timer ();
      in_ack = false;
      pending_max = 0;
      pending_sum = 0.;
      pending_samples = 0;
    }
  in
  let tally = Remy.Tally.create ~capacity:(Remy.Rule_tree.capacity tree) ~seed () in
  let factory =
    if tr then traced (Remy.Fleet.factory ~tally tree) pr else Remy.Fleet.factory tree
  in
  let rec_ = Span.recorder () in
  incr pass_counter;
  Span.set_op rec_ !pass_counter;
  let c0 = read_counts () in
  let run () =
    guarded "incast" (fun () ->
        let r = Remy_cc.Topology.run ~sender_factory:(counting factory sent) cfg in
        check r ~sent:!sent)
  in
  let result, wall =
    time (fun () ->
        if tr then
          Span.span rec_ ~name:"bench.pass" ~layer:"bench" (fun () ->
              Span.span rec_ ~name:"topology.run" ~layer:"sim" run)
        else run ())
  in
  let counts = diff_counts (read_counts ()) c0 in
  let spans = Span.spans rec_ in
  let layers wall r =
    if not tr then []
    else begin
      let ledger = Span.ledger spans in
      let get l = Option.value ~default:0. (List.assoc_opt l ledger) in
      let tx_s = pr.tx_outer.Span.total_s +. pr.tx_nested.Span.total_s in
      let fleet_self = pr.ack_t.Span.total_s -. pr.tx_nested.Span.total_s in
      let rest = get "sim" -. fleet_self -. tx_s in
      let lookups =
        List.fold_left (fun acc (_, n, _) -> acc + n) 0 (Remy.Tally.export tally)
      in
      [
        ("sim.runs", 1.);
        ("sim.run_s_p50", wall);
        ("sim.run_s_p99", wall);
        ("sim.busy_s", get "sim");
        ("fleet.handle_ack_calls", float_of_int pr.ack_t.Span.calls);
        ("fleet.handle_ack_s", pr.ack_t.Span.total_s);
        ("link.transmit_calls", float_of_int (pr.tx_outer.Span.calls + pr.tx_nested.Span.calls));
        ("link.transmit_s", tx_s);
        ("engine.pending_max", float_of_int pr.pending_max);
        ("engine.pending_mean", ratio pr.pending_sum (float_of_int pr.pending_samples));
        ("topology.residual_s", rest);
        ("qdisc.drops", float_of_int r.Remy_cc.Topology.drops);
        ("link.delivered", float_of_int r.Remy_cc.Topology.delivered);
        ("rule_tree.lookups", float_of_int lookups);
        ("ledger.bench_s", get "bench");
        ("ledger.fleet_s", fleet_self);
        ("ledger.link_s", tx_s);
        ("ledger.sim_s", rest);
      ]
    end
  in
  let base =
    {
      setup_s;
      wall_s = wall;
      op_walls = [| wall |];
      evals = 1;
      sim_s = size.duration;
      digest = "";
      score = None;
      attempted = 1;
      failed = 0;
      errors = [];
      counts;
      peak_rss_mb = peak_rss_mb ();
      layers = [];
      spans;
    }
  in
  match result with
  | Ok r -> { base with digest = md5 (result_text r); layers = layers wall r }
  | Error e -> { base with failed = 1; errors = [ e ]; sim_s = 0. }
