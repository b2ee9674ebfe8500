(** Constant-delay delivery pipe.

    [push] hands the value to [handler] exactly [delay] seconds later,
    preserving order.  Equivalent to scheduling one fresh closure per
    value, but the values wait in a ring buffer and every agenda entry is
    the same preallocated callback — so the steady-state cost per value
    is an array write and an agenda push, with no allocation.  Used for
    every fixed propagation delay of a topology run: per-link exit lines
    between hops, delivery lines from a flow's last link to its receiver
    (one per distinct delay), and per-flow ACK return paths. *)

type 'a t

val create : Engine.t -> delay:float -> filler:'a -> ('a -> unit) -> 'a t
(** [filler] pads the internal ring buffer (never passed to the
    handler). *)

val push : 'a t -> 'a -> unit
(** Deliver the value to the handler [delay] seconds from now.  Values
    pushed at the same instant are delivered in push order. *)

val length : 'a t -> int
(** Values currently in flight. *)
