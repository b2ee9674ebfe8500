(* In-memory spans recorded around calls into each layer's public
   functions.  Nothing inside lib/ is instrumented: the benchmark wraps
   the calls it makes (or the callbacks it hands to the program).

   A span has a name, a layer, start/end on the monotonic clock, and its
   parent; the spans of one operation share [op].  Per-callback hot
   paths (cc on_ack, fleet handle_ack, link transmit) are too frequent
   for one record each, so workloads keep aggregated timers for those
   and subtract them from the enclosing span's layer (see [ledger]). *)

type t = {
  id : int;
  op : int;
  parent : int;  (** -1 for a root *)
  depth : int;
  name : string;
  layer : string;
  start : float;
  stop : float;
}

type recorder = {
  mutable op : int;
  mutable next_id : int;
  mutable finished : t list;
  mutable stack : t list;  (** open spans, innermost first ([stop] unset) *)
}

let recorder () = { op = 0; next_id = 0; finished = []; stack = [] }
let set_op r op = r.op <- op

let fresh_id r =
  let id = r.next_id in
  r.next_id <- id + 1;
  id

let current r =
  match r.stack with s :: _ -> (s.id, s.depth) | [] -> (-1, -1)

let span r ~name ~layer f =
  let parent, pdepth = current r in
  let open_span =
    {
      id = fresh_id r;
      op = r.op;
      parent;
      depth = pdepth + 1;
      name;
      layer;
      start = Remy_obs.Clock.now_s ();
      stop = nan;
    }
  in
  r.stack <- open_span :: r.stack;
  let close () =
    r.stack <- List.tl r.stack;
    r.finished <- { open_span with stop = Remy_obs.Clock.now_s () } :: r.finished
  in
  match f () with
  | v ->
    close ();
    v
  | exception e ->
    close ();
    raise e

(* A span measured elsewhere (a pool task on a helper domain), attached
   under the innermost open span. *)
let record r ~name ~layer ~start ~stop =
  let parent, pdepth = current r in
  r.finished <-
    { id = fresh_id r; op = r.op; parent; depth = pdepth + 1; name; layer; start; stop }
    :: r.finished

let spans r = List.rev r.finished

(* Wall time per layer: at every instant, the deepest open span owns the
   time, so the shares partition the roots' intervals and add up to
   their wall time exactly.  Parallel pool tasks are siblings at one
   depth, so the union of their intervals goes to their layer and the
   gaps inside the enclosing map to the pool. *)
let ledger spans =
  let events =
    List.concat_map (fun s -> [ (s.start, 1, s); (s.stop, -1, s) ]) spans
    |> Array.of_list
  in
  Array.stable_sort (fun (a, _, _) (b, _, _) -> Float.compare a b) events;
  let totals = Hashtbl.create 8 in
  let add layer dt =
    Hashtbl.replace totals layer
      (dt +. Option.value ~default:0. (Hashtbl.find_opt totals layer))
  in
  let active = ref [] in
  let last = ref nan in
  Array.iter
    (fun (t, kind, s) ->
      (match !active with
      | [] -> ()
      | a :: rest ->
        let deepest =
          List.fold_left (fun d x -> if x.depth > d.depth then x else d) a rest
        in
        add deepest.layer (t -. !last));
      last := t;
      if kind > 0 then active := s :: !active
      else active := List.filter (fun x -> x.id <> s.id) !active)
    events;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let to_json (s : t) =
  Printf.sprintf
    "{\"op\":%d,\"id\":%d,\"parent\":%d,\"name\":%S,\"layer\":%S,\"start\":%.9f,\"end\":%.9f}"
    s.op s.id s.parent s.name s.layer s.start s.stop

(* Aggregated timer for a per-callback hot path. *)
type timer = { mutable calls : int; mutable total_s : float }

let timer () = { calls = 0; total_s = 0. }

let timed tm f x =
  let t0 = Remy_obs.Clock.now_s () in
  let r = f x in
  tm.total_s <- tm.total_s +. (Remy_obs.Clock.now_s () -. t0);
  tm.calls <- tm.calls + 1;
  r
