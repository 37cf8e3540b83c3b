let bm w l = Bitmap.of_list w l

(* {1 Greedy MIN-K-UNION (the reference)}

   Algorithm 1's greedy approximation of MIN-K-UNION, one call per pick:
   seed with the smallest bitmap, then repeatedly add the bitmap that
   contributes the fewest new bits, ties toward the lowest index, every
   candidate recomputed on every call. [Clustering.run] no longer calls
   it; it is the reference its loop must match, and the approximation
   bound below is proved about it. It returns the chosen indices into
   [candidates] and the OR of their bitmaps; the [int] of each pair is an
   opaque tag. *)

let reference_choose ~k candidates =
  let n = Array.length candidates in
  let chosen = Array.make n false in
  let seed = ref 0 in
  let seed_count = ref max_int in
  Array.iteri
    (fun i (_, b) ->
      let c = Bitmap.popcount b in
      if c < !seed_count then begin
        seed := i;
        seed_count := c
      end)
    candidates;
  chosen.(!seed) <- true;
  let acc = Bitmap.copy (snd candidates.(!seed)) in
  let picked = ref [ !seed ] in
  for _ = 2 to k do
    let best = ref (-1) in
    let best_cost = ref max_int in
    Array.iteri
      (fun i (_, b) ->
        if not chosen.(i) then begin
          let cost = Bitmap.union_cost b acc in
          if cost < !best_cost then begin
            best := i;
            best_cost := cost
          end
        end)
      candidates;
    chosen.(!best) <- true;
    Bitmap.union_into ~dst:acc (snd candidates.(!best));
    picked := !best :: !picked
  done;
  (List.rev !picked, acc)

let test_mku_picks_overlapping_pair () =
  (* Bitmaps: {0,1}, {0,1}, {5,6,7}. The best 2-union is the identical pair. *)
  let cands = [| (10, bm 8 [ 0; 1 ]); (11, bm 8 [ 0; 1 ]); (12, bm 8 [ 5; 6; 7 ]) |] in
  let indices, union = reference_choose ~k:2 cands in
  Alcotest.(check (list int)) "indices" [ 0; 1 ] (List.sort compare indices);
  Alcotest.(check int) "union size" 2 (Bitmap.popcount union)

let test_mku_k_equals_n () =
  let cands = [| (0, bm 4 [ 0 ]); (1, bm 4 [ 1 ]); (2, bm 4 [ 2 ]) |] in
  let indices, union = reference_choose ~k:3 cands in
  Alcotest.(check int) "all chosen" 3 (List.length indices);
  Alcotest.(check int) "union" 3 (Bitmap.popcount union)

let test_mku_seed_is_smallest () =
  let cands = [| (0, bm 8 [ 0; 1; 2 ]); (1, bm 8 [ 5 ]) |] in
  let indices, _ = reference_choose ~k:1 cands in
  Alcotest.(check (list int)) "smallest bitmap seeds" [ 1 ] indices

let prop_mku_union_correct =
  QCheck.Test.make ~name:"chosen union is the OR of chosen bitmaps" ~count:200
    QCheck.(
      pair (int_range 1 6)
        (list_of_size Gen.(int_range 1 12)
           (list_of_size Gen.(int_range 0 6) (int_range 0 15))))
    (fun (k, bitsets) ->
      QCheck.assume (k <= List.length bitsets);
      let cands = Array.of_list (List.mapi (fun i l -> (i, bm 16 l)) bitsets) in
      let indices, union = reference_choose ~k cands in
      let expected = Bitmap.union_all 16 (List.map (fun i -> snd cands.(i)) indices) in
      List.length (List.sort_uniq compare indices) = k && Bitmap.equal union expected)

(* {1 Clustering (Algorithm 1)} *)

let no_srules _ = false
let all_srules _ = true

let run ?(r = 0) ?(semantics = Params.Sum) ?(hmax = 100) ?(kmax = 2)
    ?(has_srule_space = no_srules) layer =
  Clustering.run ~r ~semantics ~hmax ~kmax ~has_srule_space
    (Array.of_list (List.map fst layer))
    (Array.of_list (List.map snd layer))

let ids_of_result res =
  let prule_ids = List.concat_map (fun r -> r.Prule.switches) res.Clustering.prules in
  let srule_ids = List.map fst res.Clustering.srules in
  let default_ids = match res.Clustering.default with Some (ids, _) -> ids | None -> [] in
  List.sort compare (prule_ids @ srule_ids @ default_ids)

let layer_of l = List.map (fun (id, bits) -> (id, bm 8 bits)) l

let test_empty_layer () =
  let res = run [] in
  Alcotest.(check bool) "empty" true
    (res.Clustering.prules = [] && res.Clustering.srules = []
   && res.Clustering.default = None)

let test_fit_gives_exact_singletons () =
  let layer = layer_of [ (1, [ 0; 1 ]); (2, [ 3 ]); (3, [ 5; 6 ]) ] in
  let res = run ~r:12 ~hmax:3 layer in
  Alcotest.(check int) "three rules" 3 (List.length res.Clustering.prules);
  List.iter2
    (fun (id, exact) rule ->
      Alcotest.(check (list int)) "singleton" [ id ] rule.Prule.switches;
      Alcotest.(check bool) "exact bitmap" true (Bitmap.equal exact rule.Prule.bitmap))
    layer res.Clustering.prules;
  Alcotest.(check int) "no redundancy" 0 (Clustering.redundancy layer res)

let test_sharing_when_over_budget () =
  (* 3 switches, hmax 2: sharing must kick in. Identical bitmaps pair at R=0. *)
  let layer = layer_of [ (1, [ 0 ]); (2, [ 0 ]); (3, [ 7 ]) ] in
  let res = run ~r:0 ~hmax:2 layer in
  Alcotest.(check int) "two rules" 2 (List.length res.Clustering.prules);
  Alcotest.(check bool) "no spill" true
    (res.Clustering.srules = [] && res.Clustering.default = None);
  let shared = List.find (fun r -> List.length r.Prule.switches = 2) res.Clustering.prules in
  Alcotest.(check (list int)) "identical pair shares" [ 1; 2 ]
    (List.sort compare shared.Prule.switches)

let test_r_zero_rejects_lossy_sharing () =
  (* Distinct bitmaps, hmax 1, no s-rule space: at R=0 one switch must fall
     to the default rule. *)
  let layer = layer_of [ (1, [ 0 ]); (2, [ 1 ]) ] in
  let res = run ~r:0 ~hmax:1 layer in
  Alcotest.(check int) "one p-rule" 1 (List.length res.Clustering.prules);
  (match res.Clustering.default with
  | Some (ids, bm') ->
      Alcotest.(check int) "one defaulted switch" 1 (List.length ids);
      Alcotest.(check int) "default bitmap is its exact bitmap" 1 (Bitmap.popcount bm')
  | None -> Alcotest.fail "expected a default rule");
  ignore (ids_of_result res)

let test_r_allows_lossy_sharing () =
  let layer = layer_of [ (1, [ 0 ]); (2, [ 1 ]); (3, [ 6 ]) ] in
  let res = run ~r:2 ~hmax:2 ~kmax:2 layer in
  Alcotest.(check int) "two rules" 2 (List.length res.Clustering.prules);
  Alcotest.(check bool) "nothing spilled" true
    (res.Clustering.srules = [] && res.Clustering.default = None);
  (* Redundancy: the shared pair's bitmaps are distance 1 each from the OR. *)
  Alcotest.(check int) "redundancy 2" 2 (Clustering.redundancy layer res)

let test_sum_vs_per_bitmap_semantics () =
  (* Three disjoint singleton bitmaps sharing one rule (kmax 3): each input
     is distance 2 from the OR; the sum is 6. *)
  let layer = layer_of [ (1, [ 0 ]); (2, [ 1 ]); (3, [ 2 ]) ] in
  let res_sum_tight = run ~r:5 ~semantics:Params.Sum ~hmax:1 ~kmax:3 layer in
  Alcotest.(check bool) "sum semantics rejects at R=5" true
    (res_sum_tight.Clustering.default <> None || res_sum_tight.Clustering.srules <> []);
  let res_sum_ok = run ~r:6 ~semantics:Params.Sum ~hmax:1 ~kmax:3 layer in
  Alcotest.(check int) "sum semantics accepts at R=6" 1
    (List.length res_sum_ok.Clustering.prules);
  Alcotest.(check bool) "all in one rule" true
    (match res_sum_ok.Clustering.prules with
    | [ r ] -> List.length r.Prule.switches = 3
    | _ -> false);
  let res_pb = run ~r:2 ~semantics:Params.Per_bitmap ~hmax:1 ~kmax:3 layer in
  Alcotest.(check int) "per-bitmap accepts at R=2" 1
    (List.length res_pb.Clustering.prules)

let test_srule_spill () =
  let layer = layer_of [ (1, [ 0 ]); (2, [ 1 ]); (3, [ 2 ]) ] in
  let asked = ref [] in
  let res =
    run ~r:0 ~hmax:1
      ~has_srule_space:(fun id ->
        asked := id :: !asked;
        id = 2)
      layer
  in
  Alcotest.(check int) "one p-rule" 1 (List.length res.Clustering.prules);
  Alcotest.(check (list int)) "s-rule for switch 2" [ 2 ]
    (List.map fst res.Clustering.srules);
  (match res.Clustering.default with
  | Some (ids, _) -> Alcotest.(check int) "one defaulted" 1 (List.length ids)
  | None -> Alcotest.fail "expected default");
  (* Capacity was consulted in ascending switch order for the spilled ones. *)
  Alcotest.(check (list int)) "asked in order" [ 2; 3 ] (List.rev !asked)

let test_default_bitmap_is_or () =
  let layer = layer_of [ (1, [ 0 ]); (2, [ 1; 2 ]); (3, [ 2; 5 ]) ] in
  let res = run ~r:0 ~hmax:1 layer in
  match res.Clustering.default with
  | Some (ids, bm') ->
      Alcotest.(check int) "two defaulted" 2 (List.length ids);
      let expected =
        Bitmap.union_all 8
          (List.map (fun id -> List.assoc id layer) ids)
      in
      Alcotest.(check bool) "OR of defaulted" true (Bitmap.equal bm' expected)
  | None -> Alcotest.fail "expected default"

let test_assigned_bitmap_lookup () =
  let layer = layer_of [ (1, [ 0 ]); (2, [ 0 ]); (3, [ 1 ]); (4, [ 2 ]) ] in
  let res =
    run ~r:0 ~hmax:1 ~kmax:2 ~has_srule_space:(fun id -> id = 3) layer
  in
  (* Switches 1,2 share the p-rule; 3 has the s-rule; 4 is defaulted. *)
  (match Clustering.assigned_bitmap res 1 with
  | Some b -> Alcotest.(check int) "shared popcount" 1 (Bitmap.popcount b)
  | None -> Alcotest.fail "1 should be assigned");
  (match Clustering.assigned_bitmap res 3 with
  | Some b -> Alcotest.(check bool) "s-rule exact" true (Bitmap.get b 1)
  | None -> Alcotest.fail "3 should be assigned");
  (match Clustering.assigned_bitmap res 4 with
  | Some b -> Alcotest.(check bool) "default bitmap" true (Bitmap.get b 2)
  | None -> Alcotest.fail "4 should be assigned");
  Alcotest.(check bool) "unknown id" true (Clustering.assigned_bitmap res 9 = None)

let test_invalid_args () =
  Alcotest.check_raises "hmax" (Invalid_argument "Clustering.run: hmax must be positive")
    (fun () -> ignore (run ~hmax:0 []));
  Alcotest.check_raises "kmax" (Invalid_argument "Clustering.run: kmax must be positive")
    (fun () -> ignore (run ~kmax:0 []))

(* Properties over random layers. *)

let arb_layer =
  QCheck.make
    ~print:(fun (r, hmax, kmax, layer) ->
      Printf.sprintf "r=%d hmax=%d kmax=%d layer=%s" r hmax kmax
        (String.concat ";"
           (List.map
              (fun (id, bm') -> Printf.sprintf "%d:%s" id (Bitmap.to_string bm'))
              layer)))
    QCheck.Gen.(
      int_range 0 6 >>= fun r ->
      int_range 1 5 >>= fun hmax ->
      int_range 1 4 >>= fun kmax ->
      int_range 0 12 >>= fun n ->
      let bits = list_size (int_range 1 5) (int_range 0 15) in
      list_repeat n bits >>= fun bitsets ->
      return (r, hmax, kmax, List.mapi (fun i b -> (i, Bitmap.of_list 16 b)) bitsets))

let prop_partition =
  QCheck.Test.make ~name:"every switch lands in exactly one output" ~count:300
    arb_layer (fun (r, hmax, kmax, layer) ->
      let res = run ~r ~hmax ~kmax layer in
      ids_of_result res = List.sort compare (List.map fst layer))

let prop_hmax_respected =
  QCheck.Test.make ~name:"at most hmax p-rules" ~count:300 arb_layer
    (fun (r, hmax, kmax, layer) ->
      let res = run ~r ~hmax ~kmax layer in
      List.length res.Clustering.prules <= max hmax (List.length layer))

let prop_kmax_respected =
  QCheck.Test.make ~name:"at most kmax switches per rule" ~count:300 arb_layer
    (fun (r, hmax, kmax, layer) ->
      let res = run ~r ~hmax ~kmax layer in
      (* The fit-first fast path emits singletons, always within bounds. *)
      List.for_all
        (fun rule -> List.length rule.Prule.switches <= max kmax 1)
        res.Clustering.prules)

let prop_rule_bitmap_covers_members =
  QCheck.Test.make ~name:"rule bitmap = OR of its switches' exact bitmaps or wider"
    ~count:300 arb_layer (fun (r, hmax, kmax, layer) ->
      let res = run ~r ~hmax ~kmax layer in
      List.for_all
        (fun rule ->
          List.for_all
            (fun id -> Bitmap.subset (List.assoc id layer) rule.Prule.bitmap)
            rule.Prule.switches)
        res.Clustering.prules)

let prop_r_bounds_redundancy_per_rule =
  QCheck.Test.make ~name:"sum semantics: per-rule redundancy <= R" ~count:300
    arb_layer (fun (r, hmax, kmax, layer) ->
      let res = run ~r ~semantics:Params.Sum ~hmax ~kmax layer in
      List.for_all
        (fun rule ->
          let members = List.map (fun id -> List.assoc id layer) rule.Prule.switches in
          let s =
            List.fold_left
              (fun acc b -> acc + Bitmap.hamming b rule.Prule.bitmap)
              0 members
          in
          (* Singleton rules have 0; only rules formed by sharing obey R,
             which singletons trivially do. *)
          List.length members = 1 || s <= r)
        res.Clustering.prules)

let prop_srules_exact =
  QCheck.Test.make ~name:"s-rules carry exact bitmaps" ~count:300 arb_layer
    (fun (r, hmax, kmax, layer) ->
      let res = run ~r ~hmax ~kmax ~has_srule_space:all_srules layer in
      List.for_all
        (fun (id, b) -> Bitmap.equal b (List.assoc id layer))
        res.Clustering.srules
      && res.Clustering.default = None)

let tests =
  [
    Alcotest.test_case "min-k-union picks overlapping pair" `Quick
      test_mku_picks_overlapping_pair;
    Alcotest.test_case "min-k-union k=n" `Quick test_mku_k_equals_n;
    Alcotest.test_case "min-k-union seeds smallest" `Quick test_mku_seed_is_smallest;
    QCheck_alcotest.to_alcotest prop_mku_union_correct;
    Alcotest.test_case "empty layer" `Quick test_empty_layer;
    Alcotest.test_case "fit-first exact singletons" `Quick test_fit_gives_exact_singletons;
    Alcotest.test_case "sharing when over budget" `Quick test_sharing_when_over_budget;
    Alcotest.test_case "R=0 rejects lossy sharing" `Quick test_r_zero_rejects_lossy_sharing;
    Alcotest.test_case "R>0 allows lossy sharing" `Quick test_r_allows_lossy_sharing;
    Alcotest.test_case "sum vs per-bitmap semantics" `Quick test_sum_vs_per_bitmap_semantics;
    Alcotest.test_case "s-rule spill" `Quick test_srule_spill;
    Alcotest.test_case "default bitmap is OR" `Quick test_default_bitmap_is_or;
    Alcotest.test_case "assigned_bitmap lookup" `Quick test_assigned_bitmap_lookup;
    Alcotest.test_case "invalid args" `Quick test_invalid_args;
    QCheck_alcotest.to_alcotest prop_partition;
    QCheck_alcotest.to_alcotest prop_hmax_respected;
    QCheck_alcotest.to_alcotest prop_kmax_respected;
    QCheck_alcotest.to_alcotest prop_rule_bitmap_covers_members;
    QCheck_alcotest.to_alcotest prop_r_bounds_redundancy_per_rule;
    QCheck_alcotest.to_alcotest prop_srules_exact;
  ]

(* Exhaustive optimum of MIN-K-UNION: the smallest union popcount over
   every k-subset of [cands] (bitmaps of width [w]). *)
let optimal_k_union ~k ~w cands =
  let n = Array.length cands in
  let best = ref max_int in
  let rec subsets start chosen count =
    if count = k then begin
      let u = Bitmap.union_all w (List.map (fun i -> snd cands.(i)) chosen) in
      best := min !best (Bitmap.popcount u)
    end
    else
      for i = start to n - 1 do
        subsets (i + 1) (i :: chosen) (count + 1)
      done
  in
  subsets 0 [] 0;
  !best

(* Approximation quality: on instances small enough to solve exactly, the
   greedy MIN-K-UNION never exceeds k times the optimal union size OPT.
   Proof: the seed is the smallest candidate, so its popcount is at most
   that of any member of an optimal k-set, which is at most OPT. Before
   each of the k - 1 later steps fewer than k candidates are chosen, so
   some member of the optimal set is still unchosen; its union cost
   against the accumulator is at most its own popcount, at most OPT, and
   the greedy step picks a candidate costing no more. Summing: the greedy
   union is at most OPT + (k - 1) * OPT = k * OPT, and greedy attains it
   (see [test_mku_k_times_optimal]). *)
let prop_mku_near_optimal =
  QCheck.Test.make ~name:"greedy min-k-union within k*OPT" ~count:200
    QCheck.(
      pair (int_range 2 3)
        (list_of_size Gen.(int_range 3 7)
           (list_of_size Gen.(int_range 1 4) (int_range 0 11))))
    (fun (k, bitsets) ->
      QCheck.assume (k <= List.length bitsets);
      let cands = Array.of_list (List.mapi (fun i l -> (i, bm 12 l)) bitsets) in
      let _, greedy_union = reference_choose ~k cands in
      Bitmap.popcount greedy_union <= k * optimal_k_union ~k ~w:12 cands)

(* The two shrunk instances on which the former "within 2x of optimal"
   property failed (QCheck seeds 59 and 180): OPT = 1 (three copies of
   bit 9), but the greedy seeds on a singleton and ties its way through
   the other singletons first, reaching exactly k * OPT = 3. *)
let test_mku_k_times_optimal () =
  List.iter
    (fun bitsets ->
      let k = 3 in
      let cands = Array.of_list (List.mapi (fun i l -> (i, bm 12 l)) bitsets) in
      let _, greedy_union = reference_choose ~k cands in
      Alcotest.(check int) "optimum" 1 (optimal_k_union ~k ~w:12 cands);
      Alcotest.(check int) "greedy reaches k * OPT" 3
        (Bitmap.popcount greedy_union))
    [ [ [ 1 ]; [ 0 ]; [ 9 ]; [ 9 ]; [ 9 ] ];
      [ [ 0 ]; [ 1 ]; [ 9 ]; [ 9 ]; [ 9 ]; [ 2 ] ] ]

let tests =
  tests
  @ [
      QCheck_alcotest.to_alcotest prop_mku_near_optimal;
      Alcotest.test_case "min-k-union tight k*OPT instances" `Quick
        test_mku_k_times_optimal;
    ]

(* {1 Algorithm 1 against the list-rebuilding reference}

   The loop as it stood before [Clustering.run] kept its unassigned
   switches in one array compacted in place: each pick rebuilds the
   candidates as a fresh list and array, and every MIN-K-UNION call
   allocates its own [chosen] marks. Kept here only as the reference the
   rewritten loop must match exactly — picks, tie-breaks, budget
   rejections (which never restore [k]) and the order of the s-rule
   capacity probes. *)

let reference_run ~r ~semantics ~hmax ~kmax ~has_srule_space layer =
  match layer with
  | [] -> { Clustering.prules = []; srules = []; default = None }
  | _ :: _ when List.length layer <= hmax ->
      {
        Clustering.prules =
          List.map (fun (id, b) -> { Prule.bitmap = b; switches = [ id ] }) layer;
        srules = [];
        default = None;
      }
  | _ :: _ ->
      let unassigned = ref (Array.of_list layer) in
      let prules = ref [] and nprules = ref 0 and k = ref kmax in
      let remove indices =
        let drop = Array.make (Array.length !unassigned) false in
        List.iter (fun i -> drop.(i) <- true) indices;
        let keep = ref [] in
        Array.iteri (fun i sw -> if not drop.(i) then keep := sw :: !keep) !unassigned;
        unassigned := Array.of_list (List.rev !keep)
      in
      let continue = ref true in
      while !continue && Array.length !unassigned > 0 && !nprules < hmax do
        let kk = min !k (Array.length !unassigned) in
        let indices, output = reference_choose ~k:kk !unassigned in
        if
          Clustering.rule_within_budget ~r ~semantics
            ~exacts:(List.map (fun i -> snd !unassigned.(i)) indices)
            output
        then begin
          let switches = List.map (fun i -> fst !unassigned.(i)) indices in
          prules := { Prule.bitmap = output; switches } :: !prules;
          incr nprules;
          remove indices
        end
        else if kk = 1 then continue := false
        else k := kk - 1
      done;
      let leftovers =
        Array.to_list !unassigned |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      let srules = ref [] and default_switches = ref [] and default_bm = ref None in
      List.iter
        (fun (id, b) ->
          if has_srule_space id then srules := (id, b) :: !srules
          else begin
            default_switches := id :: !default_switches;
            match !default_bm with
            | None -> default_bm := Some (Bitmap.copy b)
            | Some acc -> Bitmap.union_into ~dst:acc b
          end)
        leftovers;
      {
        Clustering.prules = List.rev !prules;
        srules = List.rev !srules;
        default =
          Option.map (fun b -> (List.rev !default_switches, b)) !default_bm;
      }

let same_result (a : Clustering.result) (b : Clustering.result) =
  List.equal
    (fun (x : Prule.prule) (y : Prule.prule) ->
      List.equal Int.equal x.switches y.switches && Bitmap.equal x.bitmap y.bitmap)
    a.prules b.prules
  && List.equal
       (fun (i, x) (j, y) -> i = j && Bitmap.equal x y)
       a.srules b.srules
  && Clustering.equal_default a.default b.default

(* A layer of 1-80 switches, so both n <= Hmax and n > 64 occur. Its
   bitmaps mostly come from a small pool, so equal bitmaps (ties at every
   greedy step) are common; or, one-hot-heavy, mostly single bits from a
   pool of at most 4 ports, so many candidates cost 0 against a seed.
   Hmax is mostly below the layer size, so the greedy loop runs; the
   s-rule capacity is an arbitrary predicate on the switch. *)
let arb_layer_case =
  let open QCheck.Gen in
  let gen =
    int_range 1 70 >>= fun w ->
    let bits = list_size (int_range 0 5) (int_range 0 (w - 1)) in
    bool >>= fun one_hot ->
    (if one_hot then list_size (int_range 1 4) (int_range 0 (w - 1) >|= fun p -> [ p ])
     else list_size (int_range 1 4) bits)
    >>= fun pool ->
    let npool = List.length pool in
    int_range 1 80 >>= fun n ->
    list_repeat n
      (frequency
         [ ((if one_hot then 4 else 3), int_bound (npool - 1) >|= List.nth pool);
           (1, bits) ])
    >>= fun sets ->
    frequency [ (3, int_range 1 (max 1 (n - 1))); (1, int_range n (n + 3)) ]
    >>= fun hmax ->
    int_range 1 8 >>= fun kmax ->
    int_range 0 6 >>= fun r ->
    bool >>= fun sum ->
    list_repeat n bool >|= fun space ->
    (w, sets, hmax, kmax, r, sum, space)
  in
  QCheck.make gen
    ~print:(fun (w, sets, hmax, kmax, r, sum, space) ->
      Printf.sprintf "w=%d hmax=%d kmax=%d r=%d %s sets=%s space=%s" w hmax
        kmax r
        (if sum then "Sum" else "Per_bitmap")
        (QCheck.Print.(list (list int)) sets)
        (QCheck.Print.(list bool) space))

(* Bitmap ownership: no output bitmap (p-rule, s-rule or default) is an
   input bitmap, and every singleton — a singleton-path p-rule, an s-rule —
   equals its switch's input. *)
let owns_fresh_bitmaps ~hmax layer (res : Clustering.result) =
  let fresh out = List.for_all (fun (_, b) -> out != b) layer in
  let outputs =
    List.map (fun (rule : Prule.prule) -> rule.bitmap) res.prules
    @ List.map snd res.srules
    @ Option.to_list (Option.map snd res.default)
  in
  List.for_all fresh outputs
  && List.for_all (fun (id, out) -> Bitmap.equal out (List.assoc id layer)) res.srules
  && (List.length layer > hmax
     || List.for_all2
          (fun (_, b) (rule : Prule.prule) -> Bitmap.equal rule.bitmap b)
          layer res.prules)

(* Runs both on one layer with one s-rule capacity predicate and compares
   their results and the order of their capacity probes. *)
let agrees_with_reference ~r ~semantics ~hmax ~kmax ~has_space layer =
  let probe calls id =
    calls := id :: !calls;
    has_space id
  in
  let calls = ref [] and ref_calls = ref [] in
  let got = run ~r ~semantics ~hmax ~kmax ~has_srule_space:(probe calls) layer in
  let want =
    reference_run ~r ~semantics ~hmax ~kmax ~has_srule_space:(probe ref_calls)
      layer
  in
  same_result got want
  && List.equal Int.equal !calls !ref_calls
  && owns_fresh_bitmaps ~hmax layer got

let prop_run_matches_reference =
  QCheck.Test.make ~name:"Clustering.run = reference greedy" ~count:1000
    arb_layer_case (fun (w, sets, hmax, kmax, r, sum, space) ->
      let layer = List.mapi (fun i l -> ((3 * i) + 1, bm w l)) sets in
      let semantics = if sum then Params.Sum else Params.Per_bitmap in
      let has_space = Array.of_list space in
      agrees_with_reference ~r ~semantics ~hmax ~kmax
        ~has_space:(fun id -> has_space.((id - 1) / 3))
        layer)

let test_bitmap_ownership () =
  let layer = layer_of [ (1, [ 0 ]); (2, [ 0 ]); (3, [ 1 ]); (4, [ 5 ]) ] in
  let fit = run ~hmax:4 layer in
  List.iter2
    (fun (_, b) (rule : Prule.prule) ->
      Alcotest.(check bool) "singleton path copies its input" true
        (rule.bitmap != b && Bitmap.equal rule.bitmap b))
    layer fit.prules;
  let spilled = run ~hmax:1 ~kmax:1 ~has_srule_space:all_srules layer in
  Alcotest.(check int) "three s-rules" 3 (List.length spilled.srules);
  Alcotest.(check bool) "s-rules copy their inputs" true
    (owns_fresh_bitmaps ~hmax:1 layer spilled);
  List.iter
    (fun kmax ->
      let res = run ~r:0 ~hmax:2 ~kmax layer in
      Alcotest.(check int) "two p-rules" 2 (List.length res.prules);
      List.iter
        (fun (rule : Prule.prule) ->
          List.iter
            (fun (_, b) ->
              Alcotest.(check bool) "greedy p-rule owns its bitmap" true
                (rule.bitmap != b))
            layer)
        res.prules)
    [ 1; 2 ]

(* Every leaf and spine layer of a dispersed install: perfbench's
   [dispersed] scenario (2,048-host Clos, tenants placed P=1, 2,000 WVE
   groups), compared with the reference at Kmax 2 and 8, R 0 and 6. *)
let dispersed_trees =
  lazy
    (let topo =
       Topology.create ~pods:8 ~leaves_per_pod:8 ~spines_per_pod:4
         ~hosts_per_leaf:32 ~cores_per_plane:4
     in
     let tenant_sizes = Vm_placement.default_tenant_sizes (Rng.create 42) 200 in
     let placement =
       Vm_placement.place (Rng.create 44) topo
         ~strategy:(Vm_placement.Pack_up_to 1) ~host_capacity:20 ~tenant_sizes
     in
     let groups =
       Workload.generate (Rng.create 43) placement ~kind:Group_dist.Wve
         ~total_groups:2000
     in
     let ctrl = Controller.create topo (Params.create ~fmax:60 ()) in
     ignore
       (Controller.install_all ctrl
          (Array.to_list
             (Array.map
                (fun (g : Workload.group) ->
                  ( g.group_id,
                    Array.to_list
                      (Array.map (fun h -> (h, Controller.Both)) g.member_hosts) ))
                groups)));
     Array.map
       (fun (g : Workload.group) ->
         match Controller.encoding ctrl ~group:g.group_id with
         | Some e -> e.Encoding.tree
         | None -> Alcotest.fail "every group has receivers")
       groups)

let test_dispersed_layers_match_reference () =
  let trees = Lazy.force dispersed_trees in
  let defaults = Params.create () in
  let greedy_layers = ref 0 in
  List.iter
    (fun (kmax, r) ->
      Array.iter
        (fun (t : Tree.t) ->
          List.iter
            (fun (ids, bms, hmax) ->
              if Array.length ids > hmax then incr greedy_layers;
              let layer = Array.to_list (Array.map2 (fun i b -> (i, b)) ids bms) in
              if
                not
                  (agrees_with_reference ~r ~semantics:Params.Sum ~hmax ~kmax
                     ~has_space:(fun id -> id mod 3 <> 0)
                     layer)
              then
                Alcotest.failf "kmax %d r %d: a layer of %d switches differs"
                  kmax r (Array.length ids))
            [ (t.leaf_ids, t.leaf_bms, defaults.hmax_leaf);
              (t.pod_ids, t.spine_bms, defaults.hmax_spine) ])
        trees)
    [ (2, 0); (2, 6); (8, 0); (8, 6) ];
  Alcotest.(check bool) "the greedy loop ran" true (!greedy_layers > 0)

let tests =
  tests
  @ [
      QCheck_alcotest.to_alcotest prop_run_matches_reference;
      Alcotest.test_case "p-rule bitmap ownership" `Quick test_bitmap_ownership;
      Alcotest.test_case "dispersed layers = reference greedy" `Quick
        test_dispersed_layers_match_reference;
    ]
