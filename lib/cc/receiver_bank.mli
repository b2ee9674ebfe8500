(** Structure-of-arrays receiver fleet.

    n receivers whose hot per-ack state ([expected], [conn]) lives in
    flat int arrays.  Acknowledges every arriving data segment (the
    paper's receivers are unchanged stock TCP receivers sending
    per-packet ACK feedback); each ACK echoes the arriving segment's
    sequence number, send timestamp and ECN mark — exactly the feedback
    a RemyCC memory consumes.  A new connection (higher [conn]) resets
    a flow's reorder state; duplicates are acknowledged but not
    recounted in metrics.  Always pooled: arriving packets are released
    back to the pool on every path, and acks are acquired from it (the
    sender side must release them after [handle_ack], as
    {!Topology.run} does). *)

type t

val create :
  metrics:Remy_sim.Metrics.t ->
  pool:Remy_sim.Packet.Pool.pool ->
  ack_sink:(int -> Remy_sim.Packet.ack -> unit) ->
  fwd_delay:float array ->
  ?delivery_hook:(flow:int -> now:float -> seq:int -> unit) ->
  unit ->
  t
(** [fwd_delay.(flow)] is the flow's total forward propagation delay in
    seconds (its length fixes the fleet size); queueing delay of an
    arrival is [now - sent_at - fwd_delay].  [delivery_hook] observes
    every fresh data delivery (Fig. 6's sequence plot). *)

val receive : t -> now:float -> int -> Remy_sim.Packet.t -> unit
(** [receive t ~now flow pkt] takes ownership of [pkt]. *)

val expected : t -> int -> int
(** Next in-order sequence number for a flow. *)

val delivered : t -> int
(** Fresh data packets accepted across all flows. *)
