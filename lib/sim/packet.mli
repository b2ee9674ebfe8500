(** Data packets and acknowledgments.

    One packet is one fixed-size TCP segment (the simulator works in
    whole segments, like Remy's own design-phase simulator).  Sequence
    numbers count segments within one connection ("on" period).  The XCP
    congestion header and the ECN bits ride along for the router-assisted
    baselines.

    All fields are mutable so that {!Pool} can re-initialise retired
    records in place; every consumer outside the pool treats them as
    write-once (the link marks [ecn_marked], XCP routers update
    [xcp_feedback], everything else only reads). *)

type xcp_header = {
  xcp_cwnd : float;  (** sender cwnd, packets *)
  xcp_rtt : float;  (** sender RTT estimate, seconds *)
  mutable xcp_feedback : float;  (** router-granted window delta, packets *)
}

type t = {
  mutable flow : int;  (** sender index within the experiment *)
  mutable seq : int;  (** segment sequence number, from 0 per connection *)
  mutable conn : int;  (** connection ("on" period) counter, guards stale ACKs *)
  mutable size : int;  (** bytes on the wire *)
  mutable sent_at : float;  (** transmission timestamp (echoed by receiver) *)
  mutable retx : bool;  (** retransmission (Karn: no RTT sample) *)
  mutable ecn_capable : bool;
  mutable ecn_marked : bool;
  mutable corrupt : bool;
      (** payload corrupted in flight (fault injection); the link drops
          the packet at service completion — it consumes capacity but is
          never delivered *)
  mutable xcp : xcp_header option;
}

type ack = {
  mutable ack_flow : int;
  mutable ack_conn : int;
  mutable cum_ack : int;  (** next segment expected in order *)
  mutable acked_seq : int;  (** seq of the data packet that triggered this ACK *)
  mutable acked_sent_at : float;  (** echo of that packet's [sent_at] *)
  mutable acked_retx : bool;
  mutable ecn_echo : bool;
  mutable ack_xcp_feedback : float option;  (** packets of window delta *)
  mutable received_at : float;  (** receiver timestamp *)
}

val default_size : int
(** 1500 bytes: the segment size used throughout the evaluation. *)

val make :
  flow:int ->
  seq:int ->
  conn:int ->
  now:float ->
  ?size:int ->
  ?retx:bool ->
  ?ecn_capable:bool ->
  ?xcp:xcp_header ->
  unit ->
  t

val dummy : t
(** Placeholder packet for array fillers and not-in-service slots; never
    enters a simulation. *)

val dummy_ack : ack

(** Free lists of packet and ack records, reused across a connection's
    lifetime.  [acquire]/[acquire_ack] pop a recycled record (fully
    re-initialised) or allocate on a miss; [release]/[release_ack] hand a
    record back once no reference to it survives.  Records the owner
    loses track of (e.g. packets dropped inside a qdisc) may simply be
    garbage collected — the pool replenishes itself on the next miss. *)
module Pool : sig
  type pool

  val create : ?packets:int -> ?acks:int -> unit -> pool
  (** [packets]/[acks] (default 0) pre-populate the free lists with
      that many fresh records — counted as neither hits nor misses —
      so a scenario that can estimate its working set (flow count plus
      bandwidth-delay product) starts warm instead of cold-missing
      through the first RTTs. *)

  val acquire :
    pool ->
    flow:int ->
    seq:int ->
    conn:int ->
    now:float ->
    retx:bool ->
    ecn_capable:bool ->
    ?size:int ->
    ?xcp:xcp_header ->
    unit ->
    t
  (** The per-send flags are required, not optional: a computed optional
      argument is boxed in [Some] on every call. *)

  val release : pool -> t -> unit
  (** The caller must not touch the record afterwards: it will be handed
      out again, re-initialised, by a later [acquire]. *)

  val acquire_ack : pool -> ack
  (** Unlike {!acquire} the ack comes back uninitialised (callers set
      every field); a recycled record may carry stale values. *)

  val release_ack : pool -> ack -> unit

  val hits : pool -> int
  (** Acquires served from the free list. *)

  val misses : pool -> int
  (** Acquires that had to allocate. *)
end
