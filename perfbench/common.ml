(* Shared measurement plumbing: clock, quantiles, process statistics,
   digests, and the per-pass record every workload returns. *)

let now = Remy_obs.Clock.now_s

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* A pass's set-up, timed: it runs at least [setup_min_runs] times and
   until its runs add up to [setup_min_s], and the pass keeps the last
   result and the median time.  One page fault or preemption then does
   not set a pass's set-up time, and a set-up of well under a
   microsecond (train-pool builds only its config) still gets enough
   samples for a steady median.  [dispose] releases each earlier result
   and is not timed. *)
let setup_min_runs = 7
let setup_min_s = 25e-3

let timed_setup ?(dispose = ignore) f =
  let times = ref [] and runs = ref 0 and spent = ref 0. in
  let last = ref None in
  while !runs < setup_min_runs || !spent < setup_min_s do
    Option.iter dispose !last;
    let t0 = now () in
    last := Some (f ());
    let dt = now () -. t0 in
    times := dt :: !times;
    incr runs;
    spent := !spent +. dt
  done;
  let times = Array.of_list !times in
  Array.sort Float.compare times;
  (Option.get !last, times.(Array.length times / 2))

(* Linear-interpolated quantile of an unsorted sample (0 for an empty
   one, which only bypassed layers produce). *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then 0.
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor pos) in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then s.(n - 1) else s.(i) +. (frac *. (s.(i + 1) -. s.(i)))
  end

let median xs = quantile xs 0.5
let sum xs = Array.fold_left ( +. ) 0. xs

let ratio a b = if b > 0. then a /. b else 0.

(* A "Key:   1234 kB" line of /proc/self/status, in kB. *)
let proc_status_kb key =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
    let prefix = key ^ ":" in
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.
      | line when String.starts_with ~prefix line ->
        let rest = String.sub line (String.length prefix)
            (String.length line - String.length prefix) in
        (match String.split_on_char ' ' (String.trim rest) with
         | v :: _ -> (try float_of_string v with Failure _ -> 0.)
         | [] -> 0.)
      | _ -> scan ()
    in
    let v = scan () in
    close_in ic;
    v

let peak_rss_mb () = proc_status_kb "VmHWM" /. 1024.

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let md5 s = Digest.to_hex (Digest.string s)

(* Process-wide work counters around a pass.  [Remy_obs.Counters] and
   [Gc.quick_stat] cover every domain of this process; a distributed
   pass adds its workers' figures (see [Train.worker_main]). *)
type counts = {
  events : int;
  pool_hits : int;
  pool_misses : int;
  minor_words : float;
  minor_collections : int;
  major_collections : int;
}

let read_counts () =
  let c = Remy_obs.Counters.snapshot () in
  let g = Gc.quick_stat () in
  {
    events = c.Remy_obs.Counters.events_run;
    pool_hits = c.Remy_obs.Counters.pool_hits;
    pool_misses = c.Remy_obs.Counters.pool_misses;
    minor_words = g.Gc.minor_words;
    minor_collections = g.Gc.minor_collections;
    major_collections = g.Gc.major_collections;
  }

let diff_counts a b =
  {
    events = a.events - b.events;
    pool_hits = a.pool_hits - b.pool_hits;
    pool_misses = a.pool_misses - b.pool_misses;
    minor_words = a.minor_words -. b.minor_words;
    minor_collections = a.minor_collections - b.minor_collections;
    major_collections = a.major_collections - b.major_collections;
  }

let add_counts a b =
  {
    events = a.events + b.events;
    pool_hits = a.pool_hits + b.pool_hits;
    pool_misses = a.pool_misses + b.pool_misses;
    minor_words = a.minor_words +. b.minor_words;
    minor_collections = a.minor_collections + b.minor_collections;
    major_collections = a.major_collections + b.major_collections;
  }

(* One execution of a workload's timed body, plus the set-up that
   preceded it.  An operation is the unit a caller waits on: one design
   run, one scheme x seed run, or one incast run. *)
type pass = {
  setup_s : float;
  wall_s : float;
  op_walls : float array;  (** wall time of each operation *)
  evals : int;  (** candidate evaluations (train) or operations *)
  sim_s : float;  (** simulated seconds *)
  digest : string;  (** digest of the pass's outputs *)
  score : float option;  (** trained table's score (train-* only) *)
  attempted : int;
  failed : int;
  errors : string list;
  counts : counts;
  peak_rss_mb : float;  (** this process, plus every worker's peak *)
  layers : (string * float) list;  (** per-layer values, traced passes *)
  spans : Span.t list;  (** traced passes *)
}

(* Run one operation: an exception or a failed output check counts it
   as failed, with the reason kept for the report. *)
let guarded name f =
  match f () with
  | Ok v -> Ok v
  | Error e -> Error (Printf.sprintf "%s: %s" name e)
  | exception e -> Error (Printf.sprintf "%s raised %s" name (Printexc.to_string e))
