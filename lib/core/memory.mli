(** The RemyCC memory: the three congestion signals of Section 4.1.

    - [ack_ewma]: EWMA of the interarrival time between new ACKs
      (strictly, between the receiver timestamps they echo), ms;
    - [send_ewma]: EWMA of the spacing of the sender timestamps echoed
      in those ACKs, ms;
    - [rtt_ratio]: most recent RTT divided by the connection's minimum.

    Both EWMAs give weight 1/8 to the new sample and blend from the
    well-known all-zeroes initial state.  Values live in the cube
    [0, 16384) per dimension (Section 4.3); deliberately absent are raw
    RTT and packet loss (Section 4.1 explains why). *)

type t = { ack_ewma : float; send_ewma : float; rtt_ratio : float }

val zero : t
(** The flow-start state. *)

val max_value : float
(** 16384, the upper bound of every dimension. *)

val clamp : float -> float
(** The saturation [make] applies to every coordinate:
    [min (max_value - 1e-9) (max 0. v)]. *)

val ewma_weight : float
(** 1/8. *)

type tracker = private {
  raw_ack_ewma : float array;  (** unclamped, ms *)
  raw_send_ewma : float array;  (** unclamped, ms *)
  last_received_at : float array;
      (** receiver timestamp of the last ACK folded in (NaN before the
          first), so callers can detect a long ACK gap — e.g. a link
          outage — and restart the estimators rather than feed them one
          giant delta *)
  last_sent_at : float array;  (** NaN before the first ACK *)
  min_rtt_s : float array;  (** infinity before the first sample *)
  raw_rtt_ratio : float array;  (** unclamped *)
}
(** Mutable signal trackers of several connections, one flat array per
    field, indexed by connection: updating one allocates nothing. *)

val tracker : int -> tracker
(** [tracker n]: [n] connections, each in the all-zero state. *)

val reset : tracker -> int -> unit

val on_ack : tracker -> int -> sent_at:float -> received_at:float -> rtt:float -> unit
(** Feed one acknowledgment of connection [i] (times in seconds; [rtt]
    measured by the sender). *)

val current : tracker -> int -> t
(** Connection [i]'s memory, clamped into the cube. *)

val min_rtt : tracker -> int -> float option
(** Smallest RTT seen this connection, seconds. *)

val get : t -> int -> float
(** Dimension accessor: 0 = ack_ewma, 1 = send_ewma, 2 = rtt_ratio. *)

val make : ack_ewma:float -> send_ewma:float -> rtt_ratio:float -> t
val dims : int
val pp : Format.formatter -> t -> unit
