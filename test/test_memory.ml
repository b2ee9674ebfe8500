open Remy

let test_zero_initial () =
  let t = Memory.tracker 1 in
  let m = Memory.current t 0 in
  Alcotest.(check (float 0.)) "ack_ewma" 0. m.Memory.ack_ewma;
  Alcotest.(check (float 0.)) "send_ewma" 0. m.Memory.send_ewma;
  Alcotest.(check (float 0.)) "rtt_ratio" 0. m.Memory.rtt_ratio

let test_first_ack_sets_ratio_only () =
  let t = Memory.tracker 1 in
  Memory.on_ack t 0 ~sent_at:0. ~received_at:0.075 ~rtt:0.15;
  let m = Memory.current t 0 in
  (* No deltas yet, so the EWMAs stay zero; the first RTT is the min so
     the ratio is 1. *)
  Alcotest.(check (float 0.)) "ack_ewma still 0" 0. m.Memory.ack_ewma;
  Alcotest.(check (float 0.)) "send_ewma still 0" 0. m.Memory.send_ewma;
  Alcotest.(check (float 1e-9)) "ratio 1" 1. m.Memory.rtt_ratio;
  Alcotest.(check (option (float 1e-12))) "min rtt" (Some 0.15) (Memory.min_rtt t 0)

let test_ewma_blends_from_zero () =
  let t = Memory.tracker 1 in
  Memory.on_ack t 0 ~sent_at:0. ~received_at:0.1 ~rtt:0.1;
  (* Second ack 8 ms later at receiver, 8 ms later at sender. *)
  Memory.on_ack t 0 ~sent_at:0.008 ~received_at:0.108 ~rtt:0.1;
  let m = Memory.current t 0 in
  (* EWMA from zero with weight 1/8: 0 + (8 - 0)/8 = 1 ms. *)
  Alcotest.(check (float 1e-9)) "ack_ewma" 1. m.Memory.ack_ewma;
  Alcotest.(check (float 1e-9)) "send_ewma" 1. m.Memory.send_ewma

let test_rtt_ratio_tracks_min () =
  let t = Memory.tracker 1 in
  Memory.on_ack t 0 ~sent_at:0. ~received_at:0.1 ~rtt:0.1;
  Memory.on_ack t 0 ~sent_at:0.01 ~received_at:0.12 ~rtt:0.2;
  let m = Memory.current t 0 in
  Alcotest.(check (float 1e-9)) "ratio 2" 2. m.Memory.rtt_ratio;
  (* A new smaller RTT becomes the min; ratio returns to 1. *)
  Memory.on_ack t 0 ~sent_at:0.02 ~received_at:0.13 ~rtt:0.05;
  let m = Memory.current t 0 in
  Alcotest.(check (float 1e-9)) "new min, ratio 1" 1. m.Memory.rtt_ratio

let test_reset () =
  let t = Memory.tracker 1 in
  Memory.on_ack t 0 ~sent_at:0. ~received_at:0.1 ~rtt:0.1;
  Memory.on_ack t 0 ~sent_at:0.01 ~received_at:0.2 ~rtt:0.19;
  Memory.reset t 0;
  let m = Memory.current t 0 in
  Alcotest.(check (float 0.)) "back to zero" 0. m.Memory.ack_ewma;
  Alcotest.(check bool) "min rtt cleared" true (Memory.min_rtt t 0 = None)

let test_clamping () =
  let m = Memory.make ~ack_ewma:1e9 ~send_ewma:(-5.) ~rtt_ratio:20000. in
  Alcotest.(check bool) "ack clamped" true (m.Memory.ack_ewma < Memory.max_value);
  Alcotest.(check (float 0.)) "negative floored" 0. m.Memory.send_ewma;
  Alcotest.(check bool) "ratio clamped" true (m.Memory.rtt_ratio < Memory.max_value)

let test_get_dims () =
  let m = Memory.make ~ack_ewma:1. ~send_ewma:2. ~rtt_ratio:3. in
  Alcotest.(check (float 0.)) "dim 0" 1. (Memory.get m 0);
  Alcotest.(check (float 0.)) "dim 1" 2. (Memory.get m 1);
  Alcotest.(check (float 0.)) "dim 2" 3. (Memory.get m 2);
  Alcotest.check_raises "dim 3 invalid" (Invalid_argument "Memory.get: dimension 3")
    (fun () -> ignore (Memory.get m 3))

let test_reordered_echo_floored () =
  let t = Memory.tracker 1 in
  Memory.on_ack t 0 ~sent_at:0.010 ~received_at:0.110 ~rtt:0.1;
  (* An echo with an *earlier* send timestamp must not produce a
     negative EWMA sample. *)
  Memory.on_ack t 0 ~sent_at:0.005 ~received_at:0.112 ~rtt:0.107;
  let m = Memory.current t 0 in
  Alcotest.(check bool) "send_ewma non-negative" true (m.Memory.send_ewma >= 0.)

let prop_ratio_at_least_one =
  QCheck.Test.make ~name:"rtt_ratio >= 1 once samples exist" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 40) (float_range 0.01 2.0))
    (fun rtts ->
      let t = Memory.tracker 1 in
      let clock = ref 0. in
      List.for_all
        (fun rtt ->
          clock := !clock +. 0.05;
          Memory.on_ack t 0 ~sent_at:(!clock -. rtt) ~received_at:!clock ~rtt;
          let m = Memory.current t 0 in
          m.Memory.rtt_ratio >= 1. -. 1e-9)
        rtts)

let prop_memory_always_in_cube =
  QCheck.Test.make ~name:"memory stays inside [0, 16384)^3" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 40) (pair (float_range 0. 100.) (float_range 0.001 50.)))
    (fun samples ->
      let t = Memory.tracker 1 in
      let clock = ref 0. in
      List.for_all
        (fun (gap, rtt) ->
          clock := !clock +. gap;
          Memory.on_ack t 0 ~sent_at:(!clock -. rtt) ~received_at:!clock ~rtt;
          let m = Memory.current t 0 in
          let ok v = v >= 0. && v < Memory.max_value in
          ok m.Memory.ack_ewma && ok m.Memory.send_ewma && ok m.Memory.rtt_ratio)
        samples)

let tests =
  [
    Alcotest.test_case "all-zero initial state" `Quick test_zero_initial;
    QCheck_alcotest.to_alcotest prop_ratio_at_least_one;
    QCheck_alcotest.to_alcotest prop_memory_always_in_cube;
    Alcotest.test_case "first ack sets ratio only" `Quick test_first_ack_sets_ratio_only;
    Alcotest.test_case "EWMA blends from zero with 1/8" `Quick test_ewma_blends_from_zero;
    Alcotest.test_case "rtt ratio tracks min" `Quick test_rtt_ratio_tracks_min;
    Alcotest.test_case "reset" `Quick test_reset;
    Alcotest.test_case "clamping to [0, 16384)" `Quick test_clamping;
    Alcotest.test_case "dimension accessor" `Quick test_get_dims;
    Alcotest.test_case "reordered echo floored" `Quick test_reordered_echo_floored;
  ]
