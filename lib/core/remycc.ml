open Remy_cc

type mask = { use_ack_ewma : bool; use_send_ewma : bool; use_rtt_ratio : bool }

let all_signals = { use_ack_ewma = true; use_send_ewma = true; use_rtt_ratio = true }

(* The RemyCC state of [n] flows, structure-of-arrays.  Both faces of
   the runtime run on it: [make] is one flow behind a [Cc.t], and
   [plug] is every flow of a run behind a {!Tcp_sender} plug, so one
   copy of the arithmetic serves both.  At 10k flows the flat arrays
   replace ~10k tracker/closure webs, and the per-ack update builds no
   record unless a tally wants the [Memory.t] sample.  Lookups are
   counted locally and taken by the caller ([take_lookups]): {!Par}
   domains run this path, and one atomic add per ack would contend. *)
type flows = {
  tree : Rule_tree.t;
  override : (int * Action.t) option;
  tally : Tally.t option;
  mask : mask;
  idle_restart_s : float; (* infinity = off *)
  (* Pacing state: the output a sender reads. *)
  cwnd : float array;
  intersend : float array;
  mem : Memory.tracker;
  mutable lookups : int;
}

let flows ?override ?tally ?(mask = all_signals)
    ?(idle_restart_s = Float.infinity) tree n =
  {
    tree;
    override;
    tally;
    mask;
    idle_restart_s;
    cwnd = Array.make n 0.;
    intersend = Array.make n 0.;
    mem = Memory.tracker n;
    lookups = 0;
  }

let take_lookups f =
  let n = f.lookups in
  f.lookups <- 0;
  n

let apply_mem f i mem =
  let id = Rule_tree.lookup f.tree mem in
  f.lookups <- f.lookups + 1;
  (match f.tally with Some t -> Tally.record t id mem | None -> ());
  let act = Rule_tree.action ?override:f.override f.tree id in
  f.cwnd.(i) <- Action.apply act ~window:f.cwnd.(i);
  f.intersend.(i) <- act.Action.intersend_ms /. 1e3

(* Per-ack fast path: when no tally wants the memory record, look the
   rule up straight from the three floats and allocate nothing.  A
   masked signal is pinned to zero before the lookup. *)
(* remy-lint: hot *)
let apply3 f i ~ack_ewma ~send_ewma ~rtt_ratio =
  let ack_ewma = if f.mask.use_ack_ewma then ack_ewma else 0. in
  let send_ewma = if f.mask.use_send_ewma then send_ewma else 0. in
  let rtt_ratio = if f.mask.use_rtt_ratio then rtt_ratio else 0. in
  match f.tally with
  | Some _ -> apply_mem f i (Memory.make ~ack_ewma ~send_ewma ~rtt_ratio)
  | None ->
    let id = Rule_tree.lookup3 f.tree ~ack_ewma ~send_ewma ~rtt_ratio in
    f.lookups <- f.lookups + 1;
    let act = Rule_tree.action ?override:f.override f.tree id in
    f.cwnd.(i) <- Action.apply act ~window:f.cwnd.(i);
    f.intersend.(i) <- act.Action.intersend_ms /. 1e3

let reset f i =
  Memory.reset f.mem i;
  f.cwnd.(i) <- 0.;
  (* Section 4.3: before any ACK, the all-zero memory region's action
     determines the initial window (m * 0 + b). *)
  apply_mem f i Memory.zero

(* remy-lint: hot *)
let on_ack f i ~rtt ~sent_at ~received_at =
  (* Graceful degradation after an outage: a gap in the ACK stream
     longer than [idle_restart_s] means the EWMAs describe a network
     that no longer exists (one giant interarrival delta would
     otherwise dominate them for dozens of ACKs), so restart the
     estimators as at connection start — only the tracker, not the
     pacing state — before this ack is folded in.  Off (infinity) by
     default — the optimizer's design runs never take this branch. *)
  (if f.idle_restart_s < Float.infinity then
     let last = f.mem.last_received_at.(i) in
     if (not (Float.is_nan last)) && received_at -. last > f.idle_restart_s
     then Memory.reset f.mem i);
  Memory.on_ack f.mem i ~sent_at ~received_at ~rtt;
  apply3 f i ~ack_ewma:f.mem.raw_ack_ewma.(i)
    ~send_ewma:f.mem.raw_send_ewma.(i) ~rtt_ratio:f.mem.raw_rtt_ratio.(i)

(* One flow behind a [Cc.t].  A [Cc.t] has no end-of-run hook, so each
   callback publishes its lookups to the process-wide counter at once;
   this face runs single-domain, so the atomic add does not contend. *)
let make ?override ?tally ?mask ?idle_restart_s tree =
  let f = flows ?override ?tally ?mask ?idle_restart_s tree 1 in
  let publish () =
    Remy_obs.Counters.add Remy_obs.Counters.lookups (take_lookups f)
  in
  let on_ack (a : Cc.ack_info) =
    let rtt =
      match a.rtt with Some r -> r | None -> a.now -. a.acked_sent_at
    in
    on_ack f 0 ~rtt ~sent_at:a.acked_sent_at ~received_at:a.receiver_ts;
    publish ()
  in
  {
    Cc.name = "remycc";
    ecn_capable = false;
    reset =
      (fun ~now:_ ->
        reset f 0;
        publish ());
    on_ack;
    on_loss = (fun ~now:_ -> ());
    on_timeout = (fun ~now:_ -> ());
    window = (fun () -> f.cwnd.(0));
    intersend = (fun () -> f.intersend.(0));
    stamp = Cc.no_stamp;
  }

let factory ?override ?tally ?mask ?idle_restart_s tree () =
  make ?override ?tally ?mask ?idle_restart_s tree

(* Every flow of a run behind a {!Tcp_sender} plug: the bank reads the
   window and pacing arrays directly, and the ack path skips the
   per-ack [Cc.ack_info] record (the update needs only two of the ack's
   fields and the RTT).  Lookups are published by [flush], once per
   run. *)
let plug ?override ?tally ?idle_restart_s tree (env : Sender_backend.env) =
  let f = flows ?override ?tally ?idle_restart_s tree env.n_flows in
  {
    Tcp_sender.cwnd = f.cwnd;
    intersend = f.intersend;
    ecn_capable = Array.make env.n_flows false;
    stamp = (fun _ -> None);
    reset = reset f;
    (* The RTT sample [make] sees: Karn-valid or, when Karn's rule
       rejected it, the fallback now - sent_at — the same number. *)
    on_ack =
      (fun i (ack : Remy_sim.Packet.ack) ~newly_acked:_ ~in_flight:_
           ~in_recovery:_ ->
        on_ack f i
          ~rtt:(Remy_sim.Engine.now env.engine -. ack.acked_sent_at)
          ~sent_at:ack.acked_sent_at ~received_at:ack.received_at);
    (* RemyCCs leave the window alone on loss and timeout (Section 4.1);
       the bank's retransmission machinery recovers. *)
    on_loss = ignore;
    on_timeout = ignore;
    flush =
      (fun () ->
        Remy_obs.Counters.add Remy_obs.Counters.lookups (take_lookups f));
  }

(* Loading a table in order to *run* it goes through here: parse errors
   carry line/column, and structurally valid but out-of-bounds tables
   are rejected with the offending rule, before any simulation starts. *)
let load_result path = Rule_tree.load_validated path
