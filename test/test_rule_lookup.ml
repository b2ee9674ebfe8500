open Remy
open Remy_util

(* [Rule_tree.lookup3], the allocation-free per-ack lookup, must name the
   same rule as [Rule_tree.lookup] on the clamped [Memory.t] for every
   input the tracker can emit, and the rule named must own the point.
   Tables come from random subdivision, so split points land anywhere. *)

(* Raw coordinates, before [Memory.make]'s clamp: uniform points, every
   box corner and midpoint (where half-open boundary handling matters),
   and out-of-domain or non-finite values in each dimension. *)
let probes t rng =
  let uniform () = Prng.float rng Memory.max_value in
  let random = List.init 300 (fun _ -> (uniform (), uniform (), uniform ())) in
  let corners =
    List.concat_map
      (fun id ->
        let b = Rule_tree.box t id in
        List.map
          (fun pick -> (pick b.(0), pick b.(1), pick b.(2)))
          [ fst; snd; (fun (lo, hi) -> (lo +. hi) /. 2.) ])
      (Rule_tree.live_ids t)
  in
  let specials =
    [
      -1.; -0.; Float.nan; Float.infinity; Float.neg_infinity; Memory.max_value;
      Memory.max_value -. 1e-9; 2. *. Memory.max_value; 1e300;
    ]
  in
  let odd =
    List.concat_map
      (fun v ->
        [
          (v, uniform (), uniform ());
          (uniform (), v, uniform ());
          (uniform (), uniform (), v);
          (v, v, v);
        ])
      specials
  in
  random @ corners @ odd

let agrees t (a, s, r) =
  let m = Memory.make ~ack_ewma:a ~send_ewma:s ~rtt_ratio:r in
  let id = Rule_tree.lookup t m in
  let owns =
    let b = Rule_tree.box t id in
    List.for_all
      (fun d ->
        let v = Memory.get m d in
        Float.is_nan v || (fst b.(d) <= v && v < snd b.(d)))
      [ 0; 1; 2 ]
  in
  owns && Rule_tree.lookup3 t ~ack_ewma:a ~send_ewma:s ~rtt_ratio:r = id

let all_agree t rng = List.for_all (agrees t) (probes t rng)

let prop_lookup3_matches_lookup =
  QCheck.Test.make ~name:"raw-float lookup = record lookup" ~count:50
    QCheck.(pair (int_range 0 5) (int_range 0 10_000))
    (fun (depth, seed) ->
      let t = Test_rule_tree.random_tree (Prng.create (seed + 1)) depth in
      all_agree t (Prng.create ((seed * 7919) + 13)))

let test_set_action_keeps_lookups () =
  let t = Test_rule_tree.random_tree (Prng.create 3) 3 in
  let points = probes t (Prng.create 17) in
  let ids_of t =
    List.map
      (fun (a, s, r) ->
        Rule_tree.lookup t (Memory.make ~ack_ewma:a ~send_ewma:s ~rtt_ratio:r))
      points
  in
  let before = ids_of t in
  List.iter
    (fun id ->
      Rule_tree.set_action t id
        { Action.multiple = 0.5; increment = 1.; intersend_ms = 2. })
    (Rule_tree.live_ids t);
  Alcotest.(check (list int)) "same ids after set_action" before (ids_of t);
  Alcotest.(check bool) "still agrees" true (all_agree t (Prng.create 17))

let test_save_load_keeps_lookups () =
  let t = Test_rule_tree.random_tree (Prng.create 6) 4 in
  let path = Filename.temp_file "rules" ".rules" in
  Rule_tree.save path t;
  (match Rule_tree.load path with
  | Error msg -> Alcotest.fail msg
  | Ok t' ->
    List.iter
      (fun (a, s, r) ->
        let act t =
          Rule_tree.action t
            (Rule_tree.lookup3 t ~ack_ewma:a ~send_ewma:s ~rtt_ratio:r)
        in
        if not (Action.equal (act t) (act t')) then
          Alcotest.fail "loaded table maps a point to another action")
      (probes t (Prng.create 29));
    Alcotest.(check bool) "loaded table agrees" true
      (all_agree t' (Prng.create 29)));
  Sys.remove path

let tests =
  [
    QCheck_alcotest.to_alcotest prop_lookup3_matches_lookup;
    Alcotest.test_case "set_action keeps lookups" `Quick
      test_set_action_keeps_lookups;
    Alcotest.test_case "save/load keeps lookups" `Quick
      test_save_load_keeps_lookups;
  ]
