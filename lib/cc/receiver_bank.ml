open Remy_sim

(* Structure-of-arrays receiver fleet: the per-ack hot state of n
   receivers ([expected], [conn]) lives in two flat int arrays instead
   of n heap records, and the reorder buffers — cold, touched only
   under loss — are small per-flow tables created lazily at fleet
   construction.  The bank owns every arriving packet and releases it
   on all paths. *)

type t = {
  metrics : Metrics.t;
  pool : Packet.Pool.pool;
  ack_sink : int -> Packet.ack -> unit;
  fwd_delay : float array; (* forward propagation per flow, seconds *)
  delivery_hook : (flow:int -> now:float -> seq:int -> unit) option;
  conn : int array;
  expected : int array;
  out_of_order : (int, unit) Hashtbl.t array;
  mutable delivered : int; (* fresh data packets accepted, all flows *)
}

let create ~metrics ~pool ~ack_sink ~fwd_delay ?delivery_hook () =
  let n = Array.length fwd_delay in
  {
    metrics;
    pool;
    ack_sink;
    fwd_delay;
    delivery_hook;
    conn = Array.make n (-1);
    expected = Array.make n 0;
    out_of_order = Array.init n (fun _ -> Hashtbl.create 4);
    delivered = 0;
  }

let expected t flow = t.expected.(flow)
let delivered t = t.delivered

let ack_of t flow (pkt : Packet.t) ~now =
  let feedback =
    match pkt.Packet.xcp with
    | Some hdr when Float.is_finite hdr.Packet.xcp_feedback ->
      Some hdr.Packet.xcp_feedback
    | Some _ | None -> None
  in
  let ack = Packet.Pool.acquire_ack t.pool in
  ack.Packet.ack_flow <- flow;
  ack.ack_conn <- t.conn.(flow);
  ack.cum_ack <- t.expected.(flow);
  ack.acked_seq <- pkt.seq;
  ack.acked_sent_at <- pkt.sent_at;
  ack.acked_retx <- pkt.retx;
  ack.ecn_echo <- pkt.ecn_marked;
  ack.ack_xcp_feedback <- feedback;
  ack.received_at <- now;
  ack

let receive t ~now flow (pkt : Packet.t) =
  if pkt.Packet.conn > t.conn.(flow) then begin
    t.conn.(flow) <- pkt.Packet.conn;
    t.expected.(flow) <- 0;
    Hashtbl.reset t.out_of_order.(flow)
  end;
  if pkt.Packet.conn = t.conn.(flow) then begin
    let ooo = t.out_of_order.(flow) in
    (* [Hashtbl.length] is a field read; skipping the probes when the
       reorder buffer is empty keeps the loss-free path hash-free. *)
    let fresh =
      pkt.seq >= t.expected.(flow)
      && (Hashtbl.length ooo = 0 || not (Hashtbl.mem ooo pkt.seq))
    in
    if fresh then begin
      Metrics.packet_delivered t.metrics flow ~bytes:pkt.size
        ~queueing_delay:
          (Float.max 0. (now -. pkt.Packet.sent_at -. t.fwd_delay.(flow)));
      t.delivered <- t.delivered + 1;
      (match t.delivery_hook with
      | Some f -> f ~flow ~now ~seq:pkt.seq
      | None -> ());
      if pkt.seq = t.expected.(flow) then begin
        t.expected.(flow) <- t.expected.(flow) + 1;
        (* Drain any buffered in-order continuation. *)
        while Hashtbl.length ooo > 0 && Hashtbl.mem ooo t.expected.(flow) do
          Hashtbl.remove ooo t.expected.(flow);
          t.expected.(flow) <- t.expected.(flow) + 1
        done
      end
      else Hashtbl.replace ooo pkt.seq ()
    end;
    let ack = ack_of t flow pkt ~now in
    Packet.Pool.release t.pool pkt;
    t.ack_sink flow ack
  end
  else
    (* Stale connection: dropped without acknowledgment. *)
    Packet.Pool.release t.pool pkt
