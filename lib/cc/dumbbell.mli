(** The dumbbell network (Fig. 2 of the paper), and the link and queue
    specs every network is built from.

    n senders share one bottleneck (queue discipline + link) toward their
    receivers; ACKs return over an uncongested reverse path.  Each flow
    has its own two-way propagation delay (for the differing-RTT
    experiment of Section 5.4), an on/off workload, and a congestion
    control factory.  The same network serves both roles from the paper:
    Remy's design-phase simulator (unlimited queue, no loss) and the
    ns-2-style evaluation (finite DropTail/sfqCoDel/RED/XCP bottleneck),
    selected by {!qdisc_spec}.  {!Topology.of_dumbbell} turns a
    {!config} into the one-link network {!Topology.run} simulates. *)

type qdisc_spec =
  | Droptail of int  (** capacity in packets; the paper's default is 1000 *)
  | Codel of int
  | Sfq_codel of int
  | Dctcp_red of { capacity : int; threshold : int }
  | Xcp of int
      (** capacity in packets; router learns the link rate from the
          service model (trace links use the long-run mean, footnote 6) *)
  | With_loss of float * qdisc_spec
      (** i.i.d. non-congestive loss rate in front of the inner queue *)

type service =
  | Rate_mbps of float
  | Trace of Remy_sim.Cell_trace.t  (** replayed cyclically *)

type flow_spec = {
  cc : Cc.factory;
  rtt : float;  (** two-way propagation delay, seconds *)
  workload : Remy_sim.Workload.t;
  start : [ `Immediate | `Off_draw ];
}

type config = {
  service : service;
  qdisc : qdisc_spec;
  flows : flow_spec array;
  duration : float;  (** simulated seconds *)
  seed : int;
  min_rto : float;
}

val default_min_rto : float
(** 0.2 s — small enough not to stall short LTE outages, large enough to
    avoid spurious timeouts at the design-range RTTs. *)

val qdisc_of_spec :
  Remy_sim.Engine.t ->
  tracer:Remy_obs.Trace.t ->
  rate_mbps:float ->
  seed:int ->
  qdisc_spec ->
  Remy_sim.Qdisc.t
(** Instantiate one queue discipline from its spec.  [rate_mbps] sizes
    XCP's capacity estimate; [seed] derives the stochastic-loss stream
    of {!With_loss}.  {!Topology.run} builds one qdisc per link. *)

val pool_presize : rate_mbps:float -> max_rtt:float -> n_flows:int -> int
(** Packet/ack pool pre-size for a scenario: a few records per flow
    plus the bottleneck's bandwidth-delay product, capped at 65536. *)

val fault_seed : seed:int -> link:int -> int
(** The PRNG seed for link [link]'s fault injector, derived from the run
    seed by a fixed mix (never by splitting the flow RNG chain), so
    installing a fault schedule perturbs no other stochastic stream. *)
