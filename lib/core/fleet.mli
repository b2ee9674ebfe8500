(** The structure-of-arrays RemyCC sender backend.

    A {!Remy_cc.Sender_backend.factory}: one {!Remy_cc.Tcp_sender} bank
    per run, whose congestion-control plug is {!Remycc.plug} — every
    flow's RemyCC memory signals in flat float arrays, each rule's
    action written straight into the bank's window and pacing arrays,
    instead of one {!Remycc} closure set per flow.  Steady-state ack
    processing builds no record (unless a [tally] wants memory
    samples), so 10k-flow scenarios run with O(1) allocation per ack.

    Behaviour is bit-identical to [Sender_backend.records] over
    [Remycc.factory tree] closures: both run the same RemyCC arithmetic
    on the same TCP machinery (test_fleet proves run-level
    equivalence). *)

val factory :
  ?override:int * Action.t ->
  ?tally:Tally.t ->
  ?idle_restart_s:float ->
  Rule_tree.t ->
  Remy_cc.Sender_backend.factory
(** [factory tree] builds one bank per run: it is allocated on the
    first per-flow call (sized by [env.n_flows]), so use a fresh
    factory value for every {!Remy_cc.Topology.run}.  [override],
    [tally] and [idle_restart_s] behave as in {!Remycc.factory}. *)
