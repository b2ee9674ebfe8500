(** Generic replicated experiment runner.

    An experiment fixes a bottleneck (service model + buffer), a sender
    population (count, per-flow RTTs, workload) and a horizon, then runs
    each scheme over [replications] seeds, pooling one (queueing delay,
    throughput) point per sender per run — the points behind the
    paper's throughput-delay ellipse plots and median tables. *)

type t = {
  service : Remy_cc.Dumbbell.service;
  capacity : int;  (** bottleneck buffer, packets *)
  n : int;  (** senders *)
  rtts : float array;
      (** per-flow two-way propagation delay, seconds; length [n] or 1
          (broadcast) *)
  workload : Remy_sim.Workload.t;
  start : [ `Immediate | `Off_draw ];
  duration : float;
  replications : int;
  base_seed : int;
}

val make :
  ?capacity:int ->
  ?rtts:float array ->
  ?replications:int ->
  ?base_seed:int ->
  ?start:[ `Immediate | `Off_draw ] ->
  service:Remy_cc.Dumbbell.service ->
  n:int ->
  rtt:float ->
  workload:Remy_sim.Workload.t ->
  duration:float ->
  unit ->
  t
(** Defaults: capacity 1000, 16 replications, base seed 7000, all flows
    at [rtt], senders start with an off-time draw (use [`Immediate] for
    saturating workloads). *)

type point = { tput_mbps : float; qdelay_ms : float }

type summary = {
  scheme : string;
  points : point array;  (** one per scored sender per replication *)
  median_tput : float;
  median_qdelay : float;
  ellipse : Remy_util.Ellipse.t option;  (** [None] with fewer than 2 points *)
  mean_tput : float;
  mean_rtt_ms : float;  (** mean queueing delay + propagation RTT *)
  per_flow_tput : float array array;
      (** [replications] rows of per-flow throughput (RTT-fairness plots) *)
}

val replicate :
  ?tracer:Remy_obs.Trace.t ->
  ?probe_interval:float ->
  ?faults:Remy_faults.Spec.t ->
  ?sender_factory:(unit -> Remy_cc.Sender_backend.factory) ->
  name:string ->
  replications:int ->
  base_seed:int ->
  (seed:int -> Remy_cc.Topology.config) ->
  summary
(** [replicate ~name ~replications ~base_seed config_of_seed] runs
    {!Remy_cc.Topology.run} on [config_of_seed ~seed] for seeds
    [base_seed .. base_seed + replications - 1] and pools the points
    into a summary labelled [name].  Senders with zero on-time are
    excluded, like the paper's "active during intervals" accounting.
    [tracer]/[probe_interval] apply to the first replication only (one
    representative trace per scheme); they never affect results.
    [faults] installs the same fault schedule in every replication
    (fault draws are seeded per replication from the run seed, so each
    replication sees different drop/reorder realizations of the same
    schedule).  [sender_factory], when given, makes a fresh sender
    backend per replication in place of the closure-plug bank
    ({!Remy_cc.Sender_backend.records}). *)

val config : t -> Schemes.t -> seed:int -> Remy_cc.Dumbbell.config
(** The dumbbell of one replication: the scheme's factory and qdisc
    pairing over [t]'s bottleneck and senders. *)

val run_scheme :
  ?tracer:Remy_obs.Trace.t ->
  ?probe_interval:float ->
  ?faults:Remy_faults.Spec.t ->
  t ->
  Schemes.t ->
  summary
(** {!replicate} over {!config}, with seeds from [t.base_seed], on
    the closure-plug bank running [scheme.factory] per flow. *)

val run_all : t -> Schemes.t list -> summary list

val pp_summary_row : Format.formatter -> summary -> unit
(** One aligned text row: scheme, median throughput, median delay,
    ellipse axes. *)
