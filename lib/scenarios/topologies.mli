(** Replicated experiments over the named multi-bottleneck topologies.

    The {!Scenario} experiment shape — one scheme, [replications]
    seeds, pooled (queueing delay, throughput) points — with the
    network built by a {!Remy_cc.Topology} builder ("parking-lot",
    "fat-tree-pod", "incast") instead of the dumbbell.  RemyCC schemes
    are simulated on the structure-of-arrays {!Remy.Fleet} sender
    backend (bit-identical to one {!Remy.Remycc} closure per flow),
    which is what makes a 10k-flow incast run feasible from the CLI. *)

type t = {
  topology : string;  (** a name from {!names} *)
  n : int;  (** senders *)
  link_mbps : float option;  (** bottleneck-tier rate; None = default *)
  rtt_s : float option;  (** total two-way propagation; None = default *)
  capacity : int;  (** per-link buffer, packets *)
  workload : Remy_sim.Workload.t option;
  start : [ `Immediate | `Off_draw ] option;
  duration : float;
  replications : int;
  base_seed : int;
}

val names : string list

val make :
  ?capacity:int ->
  ?replications:int ->
  ?base_seed:int ->
  ?link_mbps:float ->
  ?rtt_s:float ->
  ?workload:Remy_sim.Workload.t ->
  ?start:[ `Immediate | `Off_draw ] ->
  topology:string ->
  n:int ->
  duration:float ->
  unit ->
  t
(** Defaults: capacity 1000, 16 replications, base seed 7000; unset
    options fall through to the topology builder's own defaults.
    Raises [Invalid_argument] on an unknown topology name. *)

val config :
  t -> scheme:Schemes.t -> seed:int -> Remy_cc.Topology.config
(** The concrete network for one replication (exposed for tests and
    for tools that drive {!Remy_cc.Topology.run} directly). *)

val run_scheme :
  ?tracer:Remy_obs.Trace.t ->
  ?probe_interval:float ->
  ?faults:Remy_faults.Spec.t ->
  t ->
  Schemes.t ->
  Scenario.summary
(** Replication [i] uses seed [base_seed + i]; tracing applies to
    replication 0 only, exactly as {!Scenario.run_scheme}.  [faults]
    installs the same fault schedule on every replication, resolved
    per link exactly as in {!Remy_cc.Topology.run}. *)

val run_all : t -> Schemes.t list -> Scenario.summary list
