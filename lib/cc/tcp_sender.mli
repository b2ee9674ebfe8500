(** Reliable windowed TCP senders with pluggable congestion control.

    One bank holds the senders of every flow of a run and implements the
    host machinery every scheme in the evaluation shares:

    - an on/off workload source (Section 3.2): off periods are
      exponential; on periods are a fixed transfer (segments) or a fixed
      duration, after which the connection ends and the next one starts
      with fresh state ("RemyCCs do not keep state from one on period to
      the next");
    - window- and pacing-limited transmission: at most [floor cwnd]
      segments outstanding (minimum one, so a connection can always make
      progress), no two sends closer than the pacing gap;
    - loss recovery: three duplicate ACKs trigger fast retransmit and a
      NewReno-style recovery episode with partial-ACK retransmissions;
      an RFC 6298 retransmission timer (Karn-filtered RTT samples,
      exponential backoff) recovers from tail loss;
    - outstanding-data estimation credits duplicate ACKs, which yields
      standard self-clocked fast-recovery behavior for every scheme.

    The congestion controller is a {!plug} and only ever decides "how
    big a window, how fast to pace" — exactly the paper's division of
    labor.  Per-flow state lives in flat arrays indexed by flow. *)

type t

type plug = {
  cwnd : float array;
      (** per-flow congestion window, in segments (may be fractional
          for RemyCC); its length is the bank's flow count *)
  intersend : float array;  (** per-flow pacing gap, seconds *)
  ecn_capable : bool array;  (** per-flow: packets ask for ECN marking *)
  stamp : int -> Remy_sim.Packet.xcp_header option;
      (** congestion header for flow [i]'s next packet (XCP only) *)
  reset : int -> unit;  (** flow [i] starts a connection ("on" period) *)
  on_ack :
    int ->
    Remy_sim.Packet.ack ->
    newly_acked:int ->
    in_flight:int ->
    in_recovery:bool ->
    unit;
      (** After the sender has processed the ack: the segments it newly
          covered, the outstanding segments and the recovery state it
          left. *)
  on_loss : int -> unit;  (** triple-dupACK, once per recovery episode *)
  on_timeout : int -> unit;
  flush : unit -> unit;  (** publish per-run counters; see {!flush} *)
}
(** A congestion controller for every flow of a bank, called by flow
    index.  The callbacks leave each flow's window and pacing gap in
    [cwnd] and [intersend], which the sender reads before every
    transmission; the plug reads the clock from the run's engine. *)

val max_rto : float
(** 60 s, RFC 6298's suggested ceiling: however long an outage, the
    retransmission timer never backs off past this, so the sender probes
    a healed path within one minute instead of doubling unboundedly. *)

val create :
  Remy_sim.Engine.t ->
  pool:Remy_sim.Packet.Pool.pool ->
  metrics:Remy_sim.Metrics.t ->
  plug ->
  t
(** A bank of senders, one per entry of the plug's arrays.  Outgoing
    data packets are acquired from [pool]; the receiving side releases
    them (see {!Receiver_bank}). *)

val add_flow :
  t ->
  int ->
  workload:Remy_sim.Workload.t ->
  start:[ `Immediate | `Off_draw ] ->
  min_rto:float ->
  rng:Remy_util.Prng.t ->
  transmit:(Remy_sim.Packet.t -> unit) ->
  unit
(** Wire flow [i]: [start] begins with an "on" period at t=0 or draws an
    initial off time; [min_rto] is the RFC 6298 floor (typically 1.0 or
    0.2 s).  Raises [Invalid_argument] when [i] is out of range. *)

val start : t -> int -> unit
(** Arm flow [i]'s workload process (once, before [Engine.run]). *)

val handle_ack : t -> int -> Remy_sim.Packet.ack -> unit
(** Deliver an ACK of flow [i] that has crossed the reverse path. *)

val flush : t -> unit
(** End of run: the plug adds what it counted locally to
    {!Remy_obs.Counters}, once per bank rather than once per event. *)

val cc_plug : Remy_sim.Engine.t -> Cc.t array -> plug
(** The closure plug: one {!Cc.t} per flow, its [window ()] and
    [intersend ()] copied into the arrays after every callback (and once
    at creation, so probes see a window before the first [reset]). *)

val n_flows : t -> int

(** {2 Introspection by flow (tests, Fig. 6 instrumentation)} *)

val is_on : t -> int -> bool
val next_seq : t -> int -> int
val cum_acked : t -> int -> int
val in_flight : t -> int -> int
val connections_started : t -> int -> int
val retransmissions : t -> int -> int
val timeouts : t -> int -> int
val srtt : t -> int -> float option
val cwnd : t -> int -> float
val pacing_gap : t -> int -> float

val current_rto : t -> int -> float
(** The live retransmission timeout: [srtt + 4 rttvar] (1 s before the
    first sample), floored at the flow's [min_rto], multiplied by the
    exponential backoff, and clamped at {!max_rto}. *)

val rto_backoff : t -> int -> float
(** The exponential backoff multiplier: doubles per timeout (capped at
    64 so the multiplier alone cannot overflow the clamp), and resets
    to 1 on the first ACK that advances the cumulative point. *)
