(* The reference load: a fixed CPU load owned by the benchmark, timed
   beside every pass to measure how fast the host runs at that moment.
   On a shared 2-core host the same pass ran up to ~40% slower a few
   minutes later while CPU time still equalled wall time, so absolute
   seconds drift with the neighbours' load.  End-to-end timings are
   therefore reported in reference seconds (ref_s): seconds scaled by
   [nominal_s] / (the reference load's time around the pass), an
   in-process A/B ratio in the ROADMAP's sense.

   The load calls nothing in lib/ and allocates nothing: its arrays are
   allocated once, so the garbage or live data a pass leaves in the
   shared heap gives it no GC work.  It does share the CPU caches with
   the program, which is the point: it measures CPU and cache speed.

   Its mix follows the simulator's: a binary heap of float keys (the
   agenda; each step pops the earliest event and pushes its successor)
   and scattered reads and writes over a 1 MB working set (per-flow
   state). *)

let heap_size = 4096
let steps = 350_000

(* The reference load's typical time on the host the benchmark was
   built on; it only fixes the unit, so that ref_s read close to
   seconds. *)
let nominal_s = 0.038

type arrays = { keys : float array; flows : int array; working_set : int array }

let arrays () =
  {
    keys = Array.make heap_size 0.;
    flows = Array.make heap_size 0;
    working_set = Array.make (1 lsl 17) 0;
  }

(* One set of arrays per domain that runs the load, allocated once and
   reused by every measurement. *)
let per_domain = ref [||]

let arrays_for domains =
  let have = Array.length !per_domain in
  if have < domains then
    per_domain := Array.append !per_domain (Array.init (domains - have) (fun _ -> arrays ()));
  !per_domain

let run { keys; flows; working_set } =
  let x = ref 88172645463325252 in
  let next () =
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    !x land max_int
  in
  for i = 0 to heap_size - 1 do
    let at = float_of_int (next () land 0xFFFF) in
    let j = ref i in
    while !j > 0 && keys.((!j - 1) / 2) > at do
      let p = (!j - 1) / 2 in
      keys.(!j) <- keys.(p);
      flows.(!j) <- flows.(p);
      j := p
    done;
    keys.(!j) <- at;
    flows.(!j) <- i
  done;
  let mask = Array.length working_set - 1 in
  let acc = ref 0 in
  for _ = 1 to steps do
    let flow = flows.(0) in
    let slot = ((flow * 2654435761) + !acc) land mask in
    acc := !acc + working_set.(slot);
    working_set.(slot) <- !acc land 0xFF;
    (* Replace the root by the flow's next event and sift it down. *)
    let at = keys.(0) +. 1. +. float_of_int (next () land 1023) in
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      let m = if l + 1 < heap_size && keys.(l + 1) < keys.(l) then l + 1 else l in
      if m < heap_size && keys.(m) < at then begin
        keys.(!i) <- keys.(m);
        flows.(!i) <- flows.(m);
        i := m
      end
      else continue := false
    done;
    keys.(!i) <- at;
    flows.(!i) <- flow
  done;
  !acc

(* Seconds the reference load takes right now on [domains] domains at
   once, median of three.  A workload that keeps two cores busy is
   slowed by a neighbour on either of them, so its reference runs on
   two: the main domain and a spawned one, each on its own arrays.  The
   time is the harmonic mean of theirs, the time at their summed rate. *)
let measure ?(domains = 1) () =
  let arrays = arrays_for domains in
  let timed a () =
    let t0 = Remy_obs.Clock.now_s () in
    ignore (Sys.opaque_identity (run a));
    Remy_obs.Clock.now_s () -. t0
  in
  let once () =
    let helpers = List.init (domains - 1) (fun i -> Domain.spawn (timed arrays.(i + 1))) in
    let own = timed arrays.(0) () in
    let times = own :: List.map Domain.join helpers in
    float_of_int domains /. List.fold_left (fun acc t -> acc +. (1. /. t)) 0. times
  in
  let a = once () in
  let b = once () in
  let c = once () in
  Float.max (Float.min a b) (Float.min (Float.max a b) c)
