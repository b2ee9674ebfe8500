open Remy_sim
open Remy_util

(* The host TCP machinery of every flow of one run, structure-of-arrays:
   each piece of per-flow state is one flat array indexed by flow, so a
   10k-flow run holds a few dozen arrays instead of 10k record and
   closure webs, and the ack path is cache-friendly across flows.  The
   congestion controller is a [plug] called by flow index; all the
   sender reads of it are its [cwnd]/[intersend] arrays, which its
   callbacks write. *)

type plug = {
  cwnd : float array;
  intersend : float array;
  ecn_capable : bool array;
  stamp : int -> Packet.xcp_header option;
  reset : int -> unit;
  on_ack :
    int -> Packet.ack -> newly_acked:int -> in_flight:int -> in_recovery:bool -> unit;
  on_loss : int -> unit;
  on_timeout : int -> unit;
  flush : unit -> unit;
}

type t = {
  engine : Engine.t;
  pool : Packet.Pool.pool;
  metrics : Metrics.t;
  n : int;
  plug : plug;
  (* Per-flow wiring, registered by [add_flow]. *)
  rng : Prng.t array;
  workload : Workload.t array;
  transmit : (Packet.t -> unit) array;
  start_mode : [ `Immediate | `Off_draw ] array;
  min_rto : float array;
  wake_cbs : (unit -> unit) array; (* preallocated pacing-stall callbacks *)
  (* Workload state *)
  on : bool array;
  demand_is_time : bool array;
  demand_seg : int array; (* valid when [not demand_is_time] *)
  demand_until : float array; (* valid when [demand_is_time] *)
  conn : int array; (* -1 before first connection *)
  conns_started : int array;
  (* Reliability state (per connection) *)
  next_seq : int array;
  highest_sent : int array; (* one past the highest seq ever sent *)
  cum_acked : int array;
  dup_acks : int array;
  in_recovery : bool array;
  recover_seq : int array;
  partial_rearmed : bool array; (* RFC 6582 "impatient": re-arm RTO
                                   only on the first partial ACK *)
  retx_count : int array;
  (* RTT estimation / RTO.  [srtt] is NaN before the first sample
     (avoids boxing an option per ACK in the estimator). *)
  srtt : float array;
  rttvar : float array;
  rto_backoff : float array;
  (* Lazy retransmission timer: [timer_deadline] is the authoritative
     expiry and re-arming just rewrites it.  An agenda event is only
     scheduled when none is outstanding at or before the deadline
     ([timer_event_at] tracks the live event's fire time, [timer_gen]
     invalidates superseded ones); an event that fires before the
     deadline reschedules itself.  Since deadlines almost always move
     later (each ACK pushes the RTO out), the per-ACK cost is two array
     writes instead of a closure allocation and an agenda push. *)
  timer_armed : bool array;
  timer_deadline : float array;
  timer_event_at : float array; (* infinity when no live event *)
  timer_gen : int array;
  timeout_count : int array;
  (* Pacing *)
  last_send : float array;
  wake_armed : bool array;
}

let max_rto = 60.
let n_flows t = t.n
let is_on t i = t.on.(i)
let next_seq t i = t.next_seq.(i)
let cum_acked t i = t.cum_acked.(i)
let connections_started t i = t.conns_started.(i)
let retransmissions t i = t.retx_count.(i)
let timeouts t i = t.timeout_count.(i)
let srtt t i = if Float.is_nan t.srtt.(i) then None else Some t.srtt.(i)
let cwnd t i = t.plug.cwnd.(i)
let pacing_gap t i = t.plug.intersend.(i)
let rto_backoff t i = t.rto_backoff.(i)
let flush t = t.plug.flush ()

let in_flight t i = max 0 (t.next_seq.(i) - t.cum_acked.(i) - t.dup_acks.(i))

let current_rto t i =
  let base =
    if Float.is_nan t.srtt.(i) then 1.0 else t.srtt.(i) +. (4. *. t.rttvar.(i))
  in
  Float.min max_rto (Float.max t.min_rto.(i) base *. t.rto_backoff.(i))

let segments_remaining t i =
  if t.demand_is_time.(i) then
    if Engine.now t.engine < t.demand_until.(i) then max_int else 0
  else t.demand_seg.(i) - t.next_seq.(i)

(* --- transmission ------------------------------------------------- *)

let rec schedule_timer_event t i at =
  t.timer_gen.(i) <- t.timer_gen.(i) + 1;
  let gen = t.timer_gen.(i) in
  t.timer_event_at.(i) <- at;
  Engine.schedule t.engine at (fun () -> timer_event t i gen)

and timer_event t i gen =
  if gen = t.timer_gen.(i) then begin
    t.timer_event_at.(i) <- Float.infinity;
    if t.timer_armed.(i) then begin
      if Engine.now t.engine >= t.timer_deadline.(i) then on_rto t i
      else
        (* Deadline moved later since this event was scheduled: chase it. *)
        schedule_timer_event t i t.timer_deadline.(i)
    end
  end

and arm_timer t i =
  t.timer_armed.(i) <- true;
  t.timer_deadline.(i) <- Engine.now t.engine +. current_rto t i;
  if t.timer_deadline.(i) < t.timer_event_at.(i) then
    schedule_timer_event t i t.timer_deadline.(i)

and disarm_timer t i = t.timer_armed.(i) <- false

and send_packet t i ~seq =
  let now = Engine.now t.engine in
  let retx = seq < t.highest_sent.(i) in
  let pkt =
    Packet.Pool.acquire t.pool ~flow:i ~seq ~conn:t.conn.(i) ~now ~retx
      ~ecn_capable:t.plug.ecn_capable.(i) ?xcp:(t.plug.stamp i) ()
  in
  if retx then t.retx_count.(i) <- t.retx_count.(i) + 1;
  t.highest_sent.(i) <- max t.highest_sent.(i) (seq + 1);
  t.last_send.(i) <- now;
  t.transmit.(i) pkt;
  if not t.timer_armed.(i) then arm_timer t i

and try_send t i =
  if t.on.(i) then begin
    let now = Engine.now t.engine in
    let window = max 1 (int_of_float (Float.max 0. t.plug.cwnd.(i))) in
    if in_flight t i < window && segments_remaining t i > 0 then begin
      let allowed_at = t.last_send.(i) +. t.plug.intersend.(i) in
      if now +. 1e-12 >= allowed_at then begin
        send_packet t i ~seq:t.next_seq.(i);
        t.next_seq.(i) <- t.next_seq.(i) + 1;
        try_send t i
      end
      else if not t.wake_armed.(i) then begin
        t.wake_armed.(i) <- true;
        Engine.schedule t.engine allowed_at t.wake_cbs.(i)
      end
    end
  end

(* --- loss events --------------------------------------------------- *)

and on_rto t i =
  t.timer_armed.(i) <- false;
  if t.on.(i) && t.highest_sent.(i) > t.cum_acked.(i) then begin
    t.timeout_count.(i) <- t.timeout_count.(i) + 1;
    (let tr = Engine.tracer t.engine in
     if Remy_obs.Trace.is_on tr then
       Remy_obs.Trace.sender_event tr ~now:(Engine.now t.engine)
         ~kind:Remy_obs.Trace.Timeout ~flow:i ~seq:t.cum_acked.(i));
    t.rto_backoff.(i) <- Float.min 64. (t.rto_backoff.(i) *. 2.);
    t.dup_acks.(i) <- 0;
    t.in_recovery.(i) <- false;
    (* RFC 6582 "careful" variant: dupACKs provoked by our own go-back-N
       retransmissions (cum <= recover_seq) must not trigger another fast
       retransmit, or a spurious timeout degenerates into an endless
       halving loop. *)
    t.recover_seq.(i) <- t.highest_sent.(i);
    (* Go-back-N: everything past the cumulative ACK is presumed lost and
       will be re-sent under slow start; the receiver's reorder buffer
       collapses the re-sent span quickly via cumulative-ACK jumps. *)
    t.next_seq.(i) <- t.cum_acked.(i);
    t.plug.on_timeout i;
    arm_timer t i;
    try_send t i
  end

(* --- workload switching -------------------------------------------- *)

and switch_on t i =
  let now = Engine.now t.engine in
  t.on.(i) <- true;
  t.conn.(i) <- t.conn.(i) + 1;
  t.conns_started.(i) <- t.conns_started.(i) + 1;
  t.next_seq.(i) <- 0;
  t.highest_sent.(i) <- 0;
  t.cum_acked.(i) <- 0;
  t.dup_acks.(i) <- 0;
  t.in_recovery.(i) <- false;
  t.recover_seq.(i) <- -1;
  t.partial_rearmed.(i) <- false;
  t.srtt.(i) <- Float.nan;
  t.rttvar.(i) <- 0.;
  t.rto_backoff.(i) <- 1.;
  disarm_timer t i;
  t.last_send.(i) <- neg_infinity;
  t.plug.reset i;
  Metrics.flow_on t.metrics i now;
  (match Workload.sample_on t.workload.(i) t.rng.(i) with
  | Workload.Packets n ->
    t.demand_is_time.(i) <- false;
    t.demand_seg.(i) <- n
  | Workload.Seconds s ->
    t.demand_is_time.(i) <- true;
    t.demand_until.(i) <- now +. s;
    if Float.is_finite s then begin
      let conn = t.conn.(i) in
      Engine.schedule_in t.engine s (fun () ->
          if t.on.(i) && t.conn.(i) = conn then switch_off t i)
    end);
  try_send t i

and switch_off t i =
  let now = Engine.now t.engine in
  t.on.(i) <- false;
  disarm_timer t i;
  Metrics.flow_off t.metrics i now;
  let off = Workload.sample_off t.workload.(i) t.rng.(i) in
  if Float.is_finite off then
    Engine.schedule_in t.engine off (fun () -> switch_on t i)

let start t i =
  match t.start_mode.(i) with
  | `Immediate -> switch_on t i
  | `Off_draw ->
    let off = Workload.sample_off t.workload.(i) t.rng.(i) in
    if Float.is_finite off then
      Engine.schedule_in t.engine off (fun () -> switch_on t i)

let create engine ~pool ~metrics (plug : plug) =
  let n = Array.length plug.cwnd in
  if n < 1 then invalid_arg "Tcp_sender.create: the plug must cover >= 1 flow";
  if Array.length plug.intersend <> n then
    invalid_arg "Tcp_sender.create: plug window and gap arrays differ in length";
  let t =
    {
      engine;
      pool;
      metrics;
      n;
      plug;
      rng = Array.make n (Prng.create 0);
      workload = Array.make n Workload.saturating;
      transmit = Array.make n ignore;
      start_mode = Array.make n `Immediate;
      min_rto = Array.make n 1.;
      wake_cbs = Array.make n ignore;
      on = Array.make n false;
      demand_is_time = Array.make n false;
      demand_seg = Array.make n 0;
      demand_until = Array.make n 0.;
      conn = Array.make n (-1);
      conns_started = Array.make n 0;
      next_seq = Array.make n 0;
      highest_sent = Array.make n 0;
      cum_acked = Array.make n 0;
      dup_acks = Array.make n 0;
      in_recovery = Array.make n false;
      recover_seq = Array.make n (-1);
      partial_rearmed = Array.make n false;
      retx_count = Array.make n 0;
      srtt = Array.make n Float.nan;
      rttvar = Array.make n 0.;
      rto_backoff = Array.make n 1.;
      timer_armed = Array.make n false;
      timer_deadline = Array.make n Float.infinity;
      timer_event_at = Array.make n Float.infinity;
      timer_gen = Array.make n 0;
      timeout_count = Array.make n 0;
      last_send = Array.make n neg_infinity;
      wake_armed = Array.make n false;
    }
  in
  for i = 0 to n - 1 do
    t.wake_cbs.(i) <-
      (fun () ->
        t.wake_armed.(i) <- false;
        try_send t i)
  done;
  t

let add_flow t i ~workload ~start ~min_rto ~rng ~transmit =
  if i < 0 || i >= t.n then
    invalid_arg
      (Printf.sprintf "Tcp_sender.add_flow: flow %d out of range (n=%d)" i t.n);
  t.rng.(i) <- rng;
  t.workload.(i) <- workload;
  t.transmit.(i) <- transmit;
  t.start_mode.(i) <- start;
  t.min_rto.(i) <- min_rto

(* --- ACK processing ------------------------------------------------ *)

let complete_if_done t i =
  if
    (not t.demand_is_time.(i))
    && t.cum_acked.(i) >= t.demand_seg.(i)
    && t.on.(i)
  then switch_off t i

(* remy-lint: hot *)
let handle_ack t i (ack : Packet.ack) =
  if t.on.(i) && ack.ack_conn = t.conn.(i) then begin
    (* RFC 6298 estimator, fed only Karn-valid samples. *)
    if not ack.acked_retx then begin
      let rtt_s = Engine.now t.engine -. ack.acked_sent_at in
      if Float.is_nan t.srtt.(i) then begin
        t.srtt.(i) <- rtt_s;
        t.rttvar.(i) <- rtt_s /. 2.
      end
      else begin
        t.rttvar.(i) <-
          (0.75 *. t.rttvar.(i)) +. (0.25 *. Float.abs (t.srtt.(i) -. rtt_s));
        t.srtt.(i) <- (0.875 *. t.srtt.(i)) +. (0.125 *. rtt_s)
      end
    end;
    let newly = ack.cum_ack - t.cum_acked.(i) in
    if newly > 0 then begin
      t.cum_acked.(i) <- ack.cum_ack;
      if t.next_seq.(i) < t.cum_acked.(i) then t.next_seq.(i) <- t.cum_acked.(i);
      t.dup_acks.(i) <- 0;
      t.rto_backoff.(i) <- 1.;
      if t.in_recovery.(i) then begin
        if t.cum_acked.(i) >= t.recover_seq.(i) then begin
          t.in_recovery.(i) <- false;
          arm_timer t i
        end
        else begin
          (* NewReno partial ACK: retransmit the next hole immediately,
             re-arming the timer only once per episode (impatient
             variant) so the RTO backstop can cut short long hole-by-hole
             recoveries. *)
          send_packet t i ~seq:t.cum_acked.(i);
          if not t.partial_rearmed.(i) then begin
            t.partial_rearmed.(i) <- true;
            arm_timer t i
          end
        end
      end
      else if t.highest_sent.(i) > t.cum_acked.(i) then arm_timer t i
      else disarm_timer t i;
      if t.highest_sent.(i) <= t.cum_acked.(i) then disarm_timer t i
    end
    else begin
      t.dup_acks.(i) <- t.dup_acks.(i) + 1;
      (* Enter fast retransmit only when the cumulative ACK has advanced
         past the previous recovery point (RFC 6582's careful variant),
         so retransmission-induced dupACKs cannot restart recovery. *)
      if
        t.dup_acks.(i) = 3
        && (not t.in_recovery.(i))
        && t.cum_acked.(i) > t.recover_seq.(i)
      then begin
        t.in_recovery.(i) <- true;
        t.recover_seq.(i) <- t.next_seq.(i);
        t.partial_rearmed.(i) <- false;
        t.plug.on_loss i;
        send_packet t i ~seq:t.cum_acked.(i)
      end
    end;
    t.plug.on_ack i ack ~newly_acked:(max 0 newly) ~in_flight:(in_flight t i)
      ~in_recovery:t.in_recovery.(i);
    complete_if_done t i;
    try_send t i
  end

(* --- the closure plug ---------------------------------------------- *)

(* One [Cc.t] per flow.  Every window the baselines report is a pure
   read of state their callbacks change, so copying [window ()] and
   [intersend ()] into the arrays after each callback is exact.  The
   copy is seeded at creation: probes read an [`Off_draw] flow's window
   before its first [reset]. *)
let cc_plug engine (ccs : Cc.t array) =
  let cwnd = Array.map (fun cc -> cc.Cc.window ()) ccs in
  let intersend = Array.map (fun cc -> cc.Cc.intersend ()) ccs in
  let sync i =
    cwnd.(i) <- ccs.(i).Cc.window ();
    intersend.(i) <- ccs.(i).Cc.intersend ()
  in
  let now () = Engine.now engine in
  {
    cwnd;
    intersend;
    ecn_capable = Array.map (fun cc -> cc.Cc.ecn_capable) ccs;
    stamp = (fun i -> ccs.(i).Cc.stamp ~now:(now ()));
    reset =
      (fun i ->
        ccs.(i).Cc.reset ~now:(now ());
        sync i);
    on_ack =
      (fun i (ack : Packet.ack) ~newly_acked ~in_flight ~in_recovery ->
        let now = now () in
        ccs.(i).Cc.on_ack
          {
            Cc.now;
            rtt = (if ack.acked_retx then None else Some (now -. ack.acked_sent_at));
            newly_acked;
            cum_ack = ack.cum_ack;
            acked_seq = ack.acked_seq;
            acked_sent_at = ack.acked_sent_at;
            receiver_ts = ack.received_at;
            ecn_echo = ack.ecn_echo;
            xcp_feedback = ack.ack_xcp_feedback;
            in_flight;
            in_recovery;
          };
        sync i);
    on_loss =
      (fun i ->
        ccs.(i).Cc.on_loss ~now:(now ());
        sync i);
    on_timeout =
      (fun i ->
        ccs.(i).Cc.on_timeout ~now:(now ());
        sync i);
    flush = ignore;
  }
