type t = { ack_ewma : float; send_ewma : float; rtt_ratio : float }

let zero = { ack_ewma = 0.; send_ewma = 0.; rtt_ratio = 0. }
let max_value = 16384.
let ewma_weight = 0.125
let dims = 3

let clamp v = Float.min (max_value -. 1e-9) (Float.max 0. v)

(* The trackers of [n] connections, structure-of-arrays.  The per-ack
   fields use float sentinels instead of options — NaN for "no echo seen
   yet", infinity for "no RTT observed" — so updating allocates nothing
   on the ack path (options would box three floats per ack).  The EWMAs
   blend from zero on every sample (Ewma.create_at 0. semantics). *)
type tracker = {
  raw_ack_ewma : float array;
  raw_send_ewma : float array;
  last_received_at : float array;  (* NaN before the first ack *)
  last_sent_at : float array;  (* NaN before the first ack *)
  min_rtt_s : float array;  (* infinity before the first sample *)
  raw_rtt_ratio : float array;
}

let tracker n =
  {
    raw_ack_ewma = Array.make n 0.;
    raw_send_ewma = Array.make n 0.;
    last_received_at = Array.make n Float.nan;
    last_sent_at = Array.make n Float.nan;
    min_rtt_s = Array.make n Float.infinity;
    raw_rtt_ratio = Array.make n 0.;
  }

let reset t i =
  t.raw_ack_ewma.(i) <- 0.;
  t.raw_send_ewma.(i) <- 0.;
  t.last_received_at.(i) <- Float.nan;
  t.last_sent_at.(i) <- Float.nan;
  t.min_rtt_s.(i) <- Float.infinity;
  t.raw_rtt_ratio.(i) <- 0.

let current t i =
  {
    ack_ewma = clamp t.raw_ack_ewma.(i);
    send_ewma = clamp t.raw_send_ewma.(i);
    rtt_ratio = clamp t.raw_rtt_ratio.(i);
  }

let on_ack t i ~sent_at ~received_at ~rtt =
  if not (Float.is_nan t.last_received_at.(i)) then begin
    (* Deltas in milliseconds; negative deltas (reordered echoes) are
       floored at zero. *)
    let xa = Float.max 0. ((received_at -. t.last_received_at.(i)) *. 1e3) in
    t.raw_ack_ewma.(i) <-
      t.raw_ack_ewma.(i) +. (ewma_weight *. (xa -. t.raw_ack_ewma.(i)));
    let xs = Float.max 0. ((sent_at -. t.last_sent_at.(i)) *. 1e3) in
    t.raw_send_ewma.(i) <-
      t.raw_send_ewma.(i) +. (ewma_weight *. (xs -. t.raw_send_ewma.(i)))
  end;
  t.last_received_at.(i) <- received_at;
  t.last_sent_at.(i) <- sent_at;
  if rtt < t.min_rtt_s.(i) then t.min_rtt_s.(i) <- rtt;
  t.raw_rtt_ratio.(i) <-
    (if t.min_rtt_s.(i) > 0. && Float.is_finite t.min_rtt_s.(i) then
       rtt /. t.min_rtt_s.(i)
     else 1.)

let min_rtt t i =
  if Float.is_finite t.min_rtt_s.(i) then Some t.min_rtt_s.(i) else None

let get m = function
  | 0 -> m.ack_ewma
  | 1 -> m.send_ewma
  | 2 -> m.rtt_ratio
  | d -> invalid_arg (Printf.sprintf "Memory.get: dimension %d" d)

let make ~ack_ewma ~send_ewma ~rtt_ratio =
  { ack_ewma = clamp ack_ewma; send_ewma = clamp send_ewma; rtt_ratio = clamp rtt_ratio }

let pp fmt m =
  Format.fprintf fmt "<ack_ewma=%.3f send_ewma=%.3f rtt_ratio=%.3f>" m.ack_ewma
    m.send_ewma m.rtt_ratio
