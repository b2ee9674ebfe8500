type xcp_header = {
  xcp_cwnd : float;
  xcp_rtt : float;
  mutable xcp_feedback : float;
}

(* Fields are mutable so pooled packets can be re-initialised in place;
   outside [Pool] the records are treated as write-once. *)
type t = {
  mutable flow : int;
  mutable seq : int;
  mutable conn : int;
  mutable size : int;
  mutable sent_at : float;
  mutable retx : bool;
  mutable ecn_capable : bool;
  mutable ecn_marked : bool;
  mutable corrupt : bool;
  mutable xcp : xcp_header option;
}

type ack = {
  mutable ack_flow : int;
  mutable ack_conn : int;
  mutable cum_ack : int;
  mutable acked_seq : int;
  mutable acked_sent_at : float;
  mutable acked_retx : bool;
  mutable ecn_echo : bool;
  mutable ack_xcp_feedback : float option;
  mutable received_at : float;
}

let default_size = 1500

let make ~flow ~seq ~conn ~now ?(size = default_size) ?(retx = false)
    ?(ecn_capable = false) ?xcp () =
  {
    flow;
    seq;
    conn;
    size;
    sent_at = now;
    retx;
    ecn_capable;
    ecn_marked = false;
    corrupt = false;
    xcp;
  }

(* Pool array filler only: a slot holding [dummy] is by definition free,
   so no live flow ever reads or writes it from any domain. *)
(* remy-lint: allow global-mutable *)
let dummy =
  {
    flow = -1;
    seq = -1;
    conn = -1;
    size = 0;
    sent_at = 0.;
    retx = false;
    ecn_capable = false;
    ecn_marked = false;
    corrupt = false;
    xcp = None;
  }

(* Same free-slot filler argument as [dummy]. *)
(* remy-lint: allow global-mutable *)
let dummy_ack =
  {
    ack_flow = -1;
    ack_conn = -1;
    cum_ack = 0;
    acked_seq = -1;
    acked_sent_at = 0.;
    acked_retx = false;
    ecn_echo = false;
    ack_xcp_feedback = None;
    received_at = 0.;
  }

(* Free lists of retired packet and ack records, reused across a
   connection's lifetime so the per-packet cost of a simulation is field
   writes instead of minor-heap allocation.  Releasing is optional: a
   record the owner loses track of (e.g. a packet dropped inside a
   qdisc) is simply collected, and the next acquire replenishes the pool
   (a "miss"). *)
module Pool = struct
  type pool = {
    mutable pkts : t array;
    mutable n_pkts : int;
    mutable acks : ack array;
    mutable n_acks : int;
    mutable hits : int;
    mutable misses : int;
  }

  (* [packets]/[acks] pre-populate the free lists with that many fresh
     records (counted as neither hits nor misses), so a scenario that
     knows its flow count and bandwidth-delay product pays its pool
     misses at construction instead of cold-missing through the first
     RTTs of the steady state. *)
  let create ?(packets = 0) ?(acks = 0) () =
    let p =
      {
        pkts = Array.make (max 64 packets) dummy;
        n_pkts = 0;
        acks = Array.make (max 64 acks) dummy_ack;
        n_acks = 0;
        hits = 0;
        misses = 0;
      }
    in
    for i = 0 to packets - 1 do
      p.pkts.(i) <-
        make ~flow:(-1) ~seq:(-1) ~conn:(-1) ~now:0. ()
    done;
    p.n_pkts <- packets;
    for i = 0 to acks - 1 do
      p.acks.(i) <-
        {
          ack_flow = -1;
          ack_conn = -1;
          cum_ack = 0;
          acked_seq = -1;
          acked_sent_at = 0.;
          acked_retx = false;
          ecn_echo = false;
          ack_xcp_feedback = None;
          received_at = 0.;
        }
    done;
    p.n_acks <- acks;
    p

  (* remy-lint: hot *)
  let acquire p ~flow ~seq ~conn ~now ~retx ~ecn_capable ?(size = default_size)
      ?xcp () =
    if p.n_pkts > 0 then begin
      p.n_pkts <- p.n_pkts - 1;
      p.hits <- p.hits + 1;
      let pkt = p.pkts.(p.n_pkts) in
      pkt.flow <- flow;
      pkt.seq <- seq;
      pkt.conn <- conn;
      pkt.size <- size;
      pkt.sent_at <- now;
      pkt.retx <- retx;
      pkt.ecn_capable <- ecn_capable;
      pkt.ecn_marked <- false;
      pkt.corrupt <- false;
      pkt.xcp <- xcp;
      pkt
    end
    else begin
      p.misses <- p.misses + 1;
      (* cold miss path: forwarding to make's optional parameters boxes
         the arguments in Some *)
      (* remy-lint: allow hot-alloc *)
      make ~flow ~seq ~conn ~now ~size ~retx ~ecn_capable ?xcp ()
    end

  (* remy-lint: hot *)
  let release p pkt =
    if p.n_pkts >= Array.length p.pkts then begin
      (* cold doubling path *)
      let bigger = Array.make (2 * Array.length p.pkts) dummy in (* remy-lint: allow hot-alloc *)
      Array.blit p.pkts 0 bigger 0 p.n_pkts;
      p.pkts <- bigger
    end;
    p.pkts.(p.n_pkts) <- pkt;
    p.n_pkts <- p.n_pkts + 1

  (* remy-lint: hot *)
  let acquire_ack p =
    if p.n_acks > 0 then begin
      p.n_acks <- p.n_acks - 1;
      p.hits <- p.hits + 1;
      p.acks.(p.n_acks)
    end
    else begin
      p.misses <- p.misses + 1;
      (* cold miss path: the pool ran dry *)
      (* remy-lint: allow hot-alloc *)
      {
        ack_flow = -1;
        ack_conn = -1;
        cum_ack = 0;
        acked_seq = -1;
        acked_sent_at = 0.;
        acked_retx = false;
        ecn_echo = false;
        ack_xcp_feedback = None;
        received_at = 0.;
      }
    end

  (* remy-lint: hot *)
  let release_ack p ack =
    if p.n_acks >= Array.length p.acks then begin
      (* cold doubling path *)
      let bigger = Array.make (2 * Array.length p.acks) dummy_ack in (* remy-lint: allow hot-alloc *)
      Array.blit p.acks 0 bigger 0 p.n_acks;
      p.acks <- bigger
    end;
    p.acks.(p.n_acks) <- ack;
    p.n_acks <- p.n_acks + 1

  let hits p = p.hits
  let misses p = p.misses
end
