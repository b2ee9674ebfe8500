(* Rule lookups replayed on memory points real runs visited: the Tally
   reservoir samples of eval-fig4's RemyCC runs, timed through the
   compiled index (Rule_tree.lookup) and plain tree descent
   (Rule_tree.lookup_uncompiled).  Both must name the same rule. *)

let min_lookups = 2_000_000

let time_lookups f tree points reps =
  let acc = ref 0 in
  let t0 = Remy_obs.Clock.now_s () in
  for _ = 1 to reps do
    Array.iter (fun m -> acc := !acc + f tree m) points
  done;
  (Remy_obs.Clock.now_s () -. t0, !acc)

(* [rule_tree.lookup_ns] and [rule_tree.descent_ns] over every table's
   visited points, alternating the two arms so host drift hits both. *)
let lookups visits =
  let total_n = ref 0 and compiled_s = ref 0. and descent_s = ref 0. in
  Hashtbl.iter
    (fun name (tree, samples) ->
      let points = Array.of_list samples in
      let n = Array.length points in
      if n > 0 then begin
        Array.iter
          (fun m ->
            if Remy.Rule_tree.lookup tree m <> Remy.Rule_tree.lookup_uncompiled tree m
            then failwith (Printf.sprintf "%s: compiled lookup disagrees with descent" name))
          points;
        let reps = max 1 (min_lookups / n / 4) in
        for _ = 1 to 4 do
          let c, a = time_lookups Remy.Rule_tree.lookup tree points reps in
          let d, b = time_lookups Remy.Rule_tree.lookup_uncompiled tree points reps in
          if a <> b then failwith (name ^ ": replay sums differ");
          compiled_s := !compiled_s +. c;
          descent_s := !descent_s +. d;
          total_n := !total_n + (reps * n)
        done
      end)
    visits;
  let per n s = if n > 0 then 1e9 *. s /. float_of_int n else 0. in
  [
    ("rule_tree.replayed_points",
      float_of_int (Hashtbl.fold (fun _ (_, s) acc -> acc + List.length s) visits 0));
    ("rule_tree.lookup_ns", per !total_n !compiled_s);
    ("rule_tree.descent_ns", per !total_n !descent_s);
  ]
