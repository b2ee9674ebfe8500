open Remy_sim

(* A first-transmission, non-ECN packet of flow 0. *)
let acquire p seq =
  Packet.Pool.acquire p ~flow:0 ~seq ~conn:0 ~now:0. ~retx:false
    ~ecn_capable:false ()

let test_acquire_reinitialises () =
  let p = Packet.Pool.create () in
  let a =
    Packet.Pool.acquire p ~flow:1 ~seq:2 ~conn:3 ~now:4.0 ~retx:true
      ~ecn_capable:true ()
  in
  (* Dirty every field a simulation can touch, then recycle. *)
  a.Packet.ecn_marked <- true;
  a.Packet.size <- 99;
  a.Packet.xcp <-
    Some { Packet.xcp_cwnd = 1.; xcp_rtt = 0.1; xcp_feedback = 2. };
  Packet.Pool.release p a;
  let b =
    Packet.Pool.acquire p ~flow:9 ~seq:8 ~conn:7 ~now:6.5 ~retx:false
      ~ecn_capable:false ()
  in
  Alcotest.(check bool) "same record recycled" true (a == b);
  let fresh = Packet.make ~flow:9 ~seq:8 ~conn:7 ~now:6.5 () in
  Alcotest.(check int) "flow" fresh.Packet.flow b.Packet.flow;
  Alcotest.(check int) "seq" fresh.Packet.seq b.Packet.seq;
  Alcotest.(check int) "conn" fresh.Packet.conn b.Packet.conn;
  Alcotest.(check int) "size" fresh.Packet.size b.Packet.size;
  Alcotest.(check (float 0.)) "sent_at" fresh.Packet.sent_at b.Packet.sent_at;
  Alcotest.(check bool) "retx cleared" fresh.Packet.retx b.Packet.retx;
  Alcotest.(check bool) "ecn_capable cleared" fresh.Packet.ecn_capable
    b.Packet.ecn_capable;
  Alcotest.(check bool) "ecn_marked cleared" fresh.Packet.ecn_marked
    b.Packet.ecn_marked;
  Alcotest.(check bool) "xcp cleared" true (b.Packet.xcp = None)

let test_hit_miss_accounting () =
  let p = Packet.Pool.create () in
  let a = acquire p 0 in
  let b = acquire p 1 in
  Alcotest.(check int) "cold pool misses" 2 (Packet.Pool.misses p);
  Alcotest.(check int) "no hits yet" 0 (Packet.Pool.hits p);
  Packet.Pool.release p a;
  Packet.Pool.release p b;
  ignore (acquire p 2);
  ignore (acquire p 3);
  Alcotest.(check int) "recycles are hits" 2 (Packet.Pool.hits p);
  Alcotest.(check int) "misses unchanged" 2 (Packet.Pool.misses p)

let test_lost_records_replenish () =
  (* Records the owner loses (dropped packets) are never released; the
     pool must keep serving fresh ones via misses. *)
  let p = Packet.Pool.create () in
  for seq = 0 to 99 do
    ignore (acquire p seq)
  done;
  Alcotest.(check int) "every acquire a miss" 100 (Packet.Pool.misses p)

let test_ack_pool_recycles () =
  let p = Packet.Pool.create () in
  let a = Packet.Pool.acquire_ack p in
  a.Packet.ack_flow <- 5;
  a.Packet.cum_ack <- 17;
  Packet.Pool.release_ack p a;
  let b = Packet.Pool.acquire_ack p in
  Alcotest.(check bool) "same ack record recycled" true (a == b)

let test_pool_grows_past_initial_capacity () =
  let p = Packet.Pool.create () in
  let pkts =
    List.init 500 (fun seq -> acquire p seq)
  in
  List.iter (Packet.Pool.release p) pkts;
  (* All 500 must come back from the free list. *)
  for seq = 0 to 499 do
    ignore (acquire p seq)
  done;
  Alcotest.(check int) "full recycling" 500 (Packet.Pool.hits p)

let tests =
  [
    Alcotest.test_case "acquire fully re-initialises" `Quick
      test_acquire_reinitialises;
    Alcotest.test_case "hit/miss accounting" `Quick test_hit_miss_accounting;
    Alcotest.test_case "lost records replenish via misses" `Quick
      test_lost_records_replenish;
    Alcotest.test_case "ack records recycle" `Quick test_ack_pool_recycles;
    Alcotest.test_case "free list grows past initial capacity" `Quick
      test_pool_grows_past_initial_capacity;
  ]
