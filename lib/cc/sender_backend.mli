(** Pluggable sender implementations for topology runners.

    The {!Topology} runner talks to senders only through {!ops}; a
    {!factory} builds one ops value per flow from that flow's wiring
    {!env}.  Every backend here is one {!Tcp_sender} bank per run,
    which owns the host TCP machinery; backends differ only in the
    bank's congestion-control plug.  {!records} plugs in one
    {!Cc.t} per flow; the structure-of-arrays RemyCC plug in lib/core
    ([Remy.Fleet]) runs the same bank (runs are bit-identical;
    test_fleet proves it). *)

type ops = {
  start_flow : unit -> unit;
  handle_ack : Remy_sim.Packet.ack -> unit;
      (** The caller retains ownership of the ack record and releases
          it to the pool after this returns. *)
  cwnd : unit -> float;
  pacing_gap : unit -> float;
  srtt : unit -> float option;
  flush : unit -> unit;
      (** After the run: publish the backend's per-run counters
          ({!Tcp_sender.flush}).  The runner calls it for every flow;
          calls after the first for one bank add nothing. *)
}

type env = {
  engine : Remy_sim.Engine.t;
  pool : Remy_sim.Packet.Pool.pool;
  metrics : Remy_sim.Metrics.t;
  n_flows : int;
  flow : int;
  workload : Remy_sim.Workload.t;
  start : [ `Immediate | `Off_draw ];
  min_rto : float;
  rng : Remy_util.Prng.t;
  transmit : Remy_sim.Packet.t -> unit;
}

type factory = env -> ops
(** Called once per flow, in flow order, with one fresh factory value
    per run (the bank is allocated on the first call). *)

val bank : (env -> Tcp_sender.plug) -> factory
(** One {!Tcp_sender} bank per factory value, driven by the plug the
    first call's [env] builds; the plug's arrays must cover
    [env.n_flows] flows.  Reusing the value for a run with a different
    flow count raises [Invalid_argument]. *)

val records : Cc.factory array -> factory
(** The closure-plug bank ({!Tcp_sender.cc_plug}): flow [i] runs a
    fresh [ccs.(i) ()]. *)
