(* Global hot-path counters.  Each counter is an [Atomic.t] so simulator
   code running on optimizer worker domains can bump them without locks;
   the hot loops themselves accumulate into local ints and flush once per
   run, so the atomics are touched O(runs) times, not O(events). *)

let events_run = Atomic.make 0
let acks_processed = Atomic.make 0
let lookups = Atomic.make 0
let pool_hits = Atomic.make 0
let pool_misses = Atomic.make 0

let add c n = if n <> 0 then ignore (Atomic.fetch_and_add c n)
let incr c = ignore (Atomic.fetch_and_add c 1)

type snapshot = {
  events_run : int;
  acks_processed : int;
  lookups : int;
  pool_hits : int;
  pool_misses : int;
}

let snapshot () =
  {
    events_run = Atomic.get events_run;
    acks_processed = Atomic.get acks_processed;
    lookups = Atomic.get lookups;
    pool_hits = Atomic.get pool_hits;
    pool_misses = Atomic.get pool_misses;
  }

let reset () =
  Atomic.set events_run 0;
  Atomic.set acks_processed 0;
  Atomic.set lookups 0;
  Atomic.set pool_hits 0;
  Atomic.set pool_misses 0

(* [diff later earlier]: the counters attributable to the work between the
   two snapshots, so concurrent report sections no longer need to share
   one process-wide [reset]. *)
let diff (a : snapshot) (b : snapshot) =
  {
    events_run = a.events_run - b.events_run;
    acks_processed = a.acks_processed - b.acks_processed;
    lookups = a.lookups - b.lookups;
    pool_hits = a.pool_hits - b.pool_hits;
    pool_misses = a.pool_misses - b.pool_misses;
  }

let to_record ?(prefix = "c_") (s : snapshot) : Record.t =
  [
    (prefix ^ "events_run", Record.Int s.events_run);
    (prefix ^ "acks_processed", Record.Int s.acks_processed);
    (prefix ^ "lookups", Record.Int s.lookups);
    (prefix ^ "pool_hits", Record.Int s.pool_hits);
    (prefix ^ "pool_misses", Record.Int s.pool_misses);
  ]

let of_record ?(prefix = "c_") (r : Record.t) =
  let int k = Option.bind (Record.find (prefix ^ k) r) Record.to_int in
  match
    ( int "events_run", int "acks_processed", int "lookups", int "pool_hits",
      int "pool_misses" )
  with
  | Some events_run, Some acks_processed, Some lookups, Some pool_hits,
    Some pool_misses ->
    Some { events_run; acks_processed; lookups; pool_hits; pool_misses }
  | _ -> None
