let topo = Topology.running_example ()
let h = topo.Topology.hosts_per_leaf
let fig3_members = [ 0; 1; (5 * h) + 2; (6 * h) + 4; (6 * h) + 5; (7 * h) + 7 ]
let fig3_tree = Tree.of_members topo fig3_members

let encode ?(params = Params.create ~header_budget:None ()) ?(fmax = 1000) tree =
  let srules = Srule_state.create topo ~fmax in
  (Encoding.encode params srules tree, srules)

let test_fig3_upstream_from_ha () =
  let enc, _ = encode fig3_tree in
  let hd = Encoding.header_for_sender enc ~sender:0 in
  (* u-leaf: deliver to Hb (port 1), multipath up (Figure 3b: 01...|M). *)
  Alcotest.(check string) "u-leaf down" "01000000"
    (Bitmap.to_string hd.Prule.u_leaf.Prule.down);
  Alcotest.(check bool) "u-leaf multipath" true hd.Prule.u_leaf.Prule.multipath;
  (* u-spine: no other leaves in pod 0, still multipath to core (00|M). *)
  (match hd.Prule.u_spine with
  | Some u ->
      Alcotest.(check string) "u-spine down" "00" (Bitmap.to_string u.Prule.down);
      Alcotest.(check bool) "u-spine multipath" true u.Prule.multipath
  | None -> Alcotest.fail "expected u-spine");
  (* core: forward to pods 2 and 3 (0011). *)
  match hd.Prule.core with
  | Some bm -> Alcotest.(check string) "core" "0011" (Bitmap.to_string bm)
  | None -> Alcotest.fail "expected core rule"

let test_fig3_upstream_from_hk () =
  let enc, _ = encode fig3_tree in
  let hk = (5 * h) + 2 in
  let hd = Encoding.header_for_sender enc ~sender:hk in
  (* Figure 3b sender Hk: u-leaf 00|M (no co-leaf members), core 1001. *)
  Alcotest.(check string) "u-leaf down" "00000000"
    (Bitmap.to_string hd.Prule.u_leaf.Prule.down);
  match hd.Prule.core with
  | Some bm -> Alcotest.(check string) "core P0+P3" "1001" (Bitmap.to_string bm)
  | None -> Alcotest.fail "expected core rule"

let test_single_leaf_group_header () =
  let tree = Tree.of_members topo [ 0; 1; 2 ] in
  let enc, _ = encode tree in
  let hd = Encoding.header_for_sender enc ~sender:0 in
  Alcotest.(check string) "local ports minus sender" "01100000"
    (Bitmap.to_string hd.Prule.u_leaf.Prule.down);
  Alcotest.(check bool) "no multipath needed" false hd.Prule.u_leaf.Prule.multipath;
  Alcotest.(check bool) "no u-spine" true (hd.Prule.u_spine = None);
  Alcotest.(check bool) "no core" true (hd.Prule.core = None)

let test_sender_not_member () =
  (* A sender whose host is not in the group: all members are remote. *)
  let tree = Tree.of_members topo [ (5 * h) + 2 ] in
  let enc, _ = encode tree in
  let hd = Encoding.header_for_sender enc ~sender:0 in
  Alcotest.(check string) "no local deliveries" "00000000"
    (Bitmap.to_string hd.Prule.u_leaf.Prule.down);
  Alcotest.(check bool) "goes up" true hd.Prule.u_leaf.Prule.multipath

let test_common_downstream_shared_by_senders () =
  let enc, _ = encode fig3_tree in
  let ha = Encoding.header_for_sender enc ~sender:0 in
  let hk = Encoding.header_for_sender enc ~sender:((5 * h) + 2) in
  let da = ha.Prule.downstream and dk = hk.Prule.downstream in
  Alcotest.(check bool) "d-spine shared" true (da.Prule.d_spine = dk.Prule.d_spine);
  Alcotest.(check bool) "d-leaf shared" true (da.Prule.d_leaf = dk.Prule.d_leaf);
  Alcotest.(check bool) "one down for both senders" true (da == dk)

let test_header_bytes_match_wire () =
  let enc, _ = encode fig3_tree in
  List.iter
    (fun sender ->
      let hd = Encoding.header_for_sender enc ~sender in
      Alcotest.(check int) "accounted = encoded"
        (Bytes.length (Header_codec.encode topo hd))
        (Prule.header_bytes topo hd);
      Alcotest.(check int) "Encoding.header_bytes agrees"
        (Prule.header_bytes topo hd)
        (Encoding.header_bytes enc ~sender))
    fig3_members

let test_covered_flags () =
  let enc, _ = encode fig3_tree in
  Alcotest.(check bool) "covered (no default)" true (Encoding.covered_without_default enc);
  Alcotest.(check bool) "pure p-rules" true (Encoding.covered_by_prules enc);
  Alcotest.(check bool) "no default" false (Encoding.uses_default enc);
  Alcotest.(check int) "no srules" 0 (Encoding.srule_entries enc);
  (* Force spill: hmax 1 per layer, no s-rule space. *)
  let params = Params.create ~hmax_leaf:1 ~hmax_spine:1 ~header_budget:None () in
  let enc2, _ = encode ~params ~fmax:0 fig3_tree in
  Alcotest.(check bool) "uses default" true (Encoding.uses_default enc2);
  Alcotest.(check bool) "not covered" false (Encoding.covered_without_default enc2)

let test_srule_accounting_and_release () =
  let params = Params.create ~hmax_leaf:1 ~hmax_spine:1 ~header_budget:None () in
  let srules = Srule_state.create topo ~fmax:10 in
  let enc = Encoding.encode params srules fig3_tree in
  (* 3 leaves spill to leaf s-rules (4 leaves, hmax 1), 2 pods spill to pod
     s-rules (3 pods, hmax 1). *)
  Alcotest.(check int) "leaf srules" 3 (List.length enc.Encoding.d_leaf.Clustering.srules);
  Alcotest.(check int) "pod srules" 2 (List.length enc.Encoding.d_spine.Clustering.srules);
  Alcotest.(check int) "physical entries" (3 + (2 * 2)) (Encoding.srule_entries enc);
  Alcotest.(check int) "state total" (3 + (2 * 2)) (Srule_state.total_srules srules);
  Encoding.release srules enc;
  Alcotest.(check int) "released" 0 (Srule_state.total_srules srules)

let test_budgeted_hmax_grows_spine_budget () =
  (* With the byte budget, a 3-pod tree gets >=3 spine rules, so no spill. *)
  let params = Params.create ~header_budget:(Some 325) () in
  let enc, _ = encode ~params fig3_tree in
  Alcotest.(check int) "three spine rules" 3
    (List.length enc.Encoding.d_spine.Clustering.prules);
  Alcotest.(check bool) "pure" true (Encoding.covered_by_prules enc)

let test_budget_cap_is_respected () =
  (* A wide group on the fabric must never exceed the byte budget. *)
  let fabric = Topology.facebook_fabric () in
  let rng = Rng.create 21 in
  let members =
    List.init 400 (fun _ -> Rng.int rng (Topology.num_hosts fabric))
    |> List.sort_uniq compare
  in
  let tree = Tree.of_members fabric members in
  let params = Params.create ~header_budget:(Some 325) () in
  let srules = Srule_state.create fabric ~fmax:1000 in
  let enc = Encoding.encode params srules tree in
  List.iter
    (fun sender ->
      let b = Encoding.header_bytes enc ~sender in
      Alcotest.(check bool) (Printf.sprintf "%dB <= 325" b) true (b <= 325))
    (List.filteri (fun i _ -> i < 5) members)

let test_srule_state_errors () =
  let s = Srule_state.create topo ~fmax:1 in
  Srule_state.reserve_leaf s 0;
  Alcotest.(check bool) "full" false (Srule_state.leaf_has_space s 0);
  Alcotest.check_raises "overflow" (Srule_state.Full (Srule_state.Leaf 0))
    (fun () -> Srule_state.reserve_leaf s 0);
  Srule_state.release s (Srule_state.Leaf 0);
  Alcotest.check_raises "underflow" (Srule_state.Underflow (Srule_state.Leaf 0))
    (fun () -> Srule_state.release s (Srule_state.Leaf 0));
  Alcotest.(check bool) "invariants hold" true (Srule_state.check s);
  Srule_state.reserve_pod s 1;
  Alcotest.(check int) "pod reserve counts on each spine"
    topo.Topology.spines_per_pod
    (Srule_state.total_srules s);
  let occ = Srule_state.spine_occupancy s in
  Alcotest.(check int) "spine of pod 1" 1 occ.(topo.Topology.spines_per_pod);
  Alcotest.(check int) "spine of pod 0" 0 occ.(0)

let fabric = Topology.facebook_fabric ()

let arb_members =
  QCheck.make
    ~print:(fun l -> String.concat "," (List.map string_of_int l))
    QCheck.Gen.(
      list_size (int_range 1 60) (int_range 0 (Topology.num_hosts fabric - 1)))

let prop_headers_within_max =
  QCheck.Test.make ~name:"every header fits the worst-case bound" ~count:100
    arb_members (fun members ->
      QCheck.assume (members <> []);
      let tree = Tree.of_members fabric members in
      let params = Params.default in
      let srules = Srule_state.create fabric ~fmax:params.Params.fmax in
      let enc = Encoding.encode params srules tree in
      let bound = Prule.max_header_bytes fabric params in
      List.for_all
        (fun sender -> Encoding.header_bytes enc ~sender <= bound)
        (List.filteri (fun i _ -> i < 3) members))

let prop_release_inverts_encode =
  QCheck.Test.make ~name:"release returns all reserved s-rules" ~count:100
    arb_members (fun members ->
      QCheck.assume (members <> []);
      let tree = Tree.of_members fabric members in
      let params = Params.create ~hmax_leaf:2 ~hmax_spine:1 ~header_budget:None () in
      let srules = Srule_state.create fabric ~fmax:5 in
      let enc = Encoding.encode params srules tree in
      let used = Srule_state.total_srules srules in
      Encoding.release srules enc;
      used = Encoding.srule_entries enc && Srule_state.total_srules srules = 0)

let tests =
  [
    Alcotest.test_case "fig3 upstream from Ha" `Quick test_fig3_upstream_from_ha;
    Alcotest.test_case "fig3 upstream from Hk" `Quick test_fig3_upstream_from_hk;
    Alcotest.test_case "single-leaf group header" `Quick test_single_leaf_group_header;
    Alcotest.test_case "sender not a member" `Quick test_sender_not_member;
    Alcotest.test_case "common downstream shared" `Quick
      test_common_downstream_shared_by_senders;
    Alcotest.test_case "header bytes match wire" `Quick test_header_bytes_match_wire;
    Alcotest.test_case "covered flags" `Quick test_covered_flags;
    Alcotest.test_case "s-rule accounting and release" `Quick
      test_srule_accounting_and_release;
    Alcotest.test_case "budget grows spine allowance" `Quick
      test_budgeted_hmax_grows_spine_budget;
    Alcotest.test_case "byte budget respected on fabric" `Quick
      test_budget_cap_is_respected;
    Alcotest.test_case "srule state errors" `Quick test_srule_state_errors;
    QCheck_alcotest.to_alcotest prop_headers_within_max;
    QCheck_alcotest.to_alcotest prop_release_inverts_encode;
  ]

(* {1 One encoder on the live ledger}

   [Encoding.encode] probes and reserves s-rule space on the ledger it is
   given, group after group; [srule_ok_*] makes a switch ineligible
   before its capacity is probed. *)

let tight = Params.create ~hmax_leaf:1 ~hmax_spine:1 ~header_budget:None ()

let srule_ids (c : Clustering.result) = List.map fst c.Clustering.srules

let default_ids (c : Clustering.result) =
  match c.Clustering.default with Some (ids, _) -> ids | None -> []

let test_ineligible_leaves () =
  let srules = Srule_state.create topo ~fmax:10 in
  let enc =
    Encoding.encode ~srule_ok_leaf:(fun _ -> false) tight srules fig3_tree
  in
  Alcotest.(check (list int)) "no leaf s-rule" [] (srule_ids enc.Encoding.d_leaf);
  Alcotest.(check int) "three leaves folded into the default" 3
    (List.length (default_ids enc.Encoding.d_leaf));
  Alcotest.(check bool) "every leaf counter untouched" true
    (Array.for_all (( = ) 0) (Srule_state.leaf_occupancy srules));
  Alcotest.(check int) "pod s-rules unaffected" 2
    (List.length enc.Encoding.d_spine.Clustering.srules);
  Alcotest.(check bool) "uses default" true (Encoding.uses_default enc);
  Alcotest.(check int) "ledger holds the pod entries only"
    (Encoding.srule_entries enc) (Srule_state.total_srules srules)

let test_ineligible_pods () =
  let srules = Srule_state.create topo ~fmax:10 in
  let enc =
    Encoding.encode ~srule_ok_pod:(fun _ -> false) tight srules fig3_tree
  in
  Alcotest.(check (list int)) "no pod s-rule" [] (srule_ids enc.Encoding.d_spine);
  Alcotest.(check int) "two pods folded into the default" 2
    (List.length (default_ids enc.Encoding.d_spine));
  for p = 0 to topo.Topology.pods - 1 do
    Alcotest.(check int) (Printf.sprintf "pod %d untouched" p) 0
      (Srule_state.pod_used srules p)
  done;
  Alcotest.(check int) "leaf s-rules unaffected" 3
    (List.length enc.Encoding.d_leaf.Clustering.srules);
  Alcotest.(check int) "ledger holds the leaf entries only" 3
    (Srule_state.total_srules srules)

let test_one_degraded_leaf () =
  let all = Encoding.encode tight (Srule_state.create topo ~fmax:10) fig3_tree in
  let spilled = srule_ids all.Encoding.d_leaf in
  let bad = List.hd spilled in
  let srules = Srule_state.create topo ~fmax:10 in
  let enc =
    Encoding.encode ~srule_ok_leaf:(fun l -> l <> bad) tight srules fig3_tree
  in
  Alcotest.(check (list int)) "degraded leaf is the default"
    [ bad ] (default_ids enc.Encoding.d_leaf);
  Alcotest.(check (list int)) "the others keep their s-rules"
    (List.filter (fun l -> l <> bad) spilled)
    (srule_ids enc.Encoding.d_leaf);
  Alcotest.(check int) "degraded leaf never reserved" 0
    (Srule_state.leaf_used srules bad);
  List.iter
    (fun l ->
      if l <> bad then
        Alcotest.(check int) (Printf.sprintf "leaf %d reserved" l) 1
          (Srule_state.leaf_used srules l))
    spilled

let test_full_tables_fall_to_default () =
  let srules = Srule_state.create topo ~fmax:1 in
  let first = Encoding.encode tight srules fig3_tree in
  let held = Srule_state.total_srules srules in
  Alcotest.(check int) "first group fills its switches" (3 + (2 * 2)) held;
  let second = Encoding.encode tight srules fig3_tree in
  Alcotest.(check (list int)) "no leaf slot left" [] (srule_ids second.Encoding.d_leaf);
  Alcotest.(check (list int)) "no pod slot left" [] (srule_ids second.Encoding.d_spine);
  Alcotest.(check bool) "second group uses the default" true
    (Encoding.uses_default second);
  Alcotest.(check bool) "second group not covered" false
    (Encoding.covered_without_default second);
  Alcotest.(check int) "ledger unchanged by the second group" held
    (Srule_state.total_srules srules);
  Alcotest.(check bool) "invariants hold" true (Srule_state.check srules);
  Encoding.release srules second;
  Encoding.release srules first;
  Alcotest.(check int) "both released" 0 (Srule_state.total_srules srules)

let test_encodes_accumulate () =
  let srules = Srule_state.create topo ~fmax:10 in
  let a = Encoding.encode tight srules fig3_tree in
  let b =
    Encoding.encode tight srules (Tree.of_members topo [ 0; 3 * h; (4 * h) + 1 ])
  in
  Alcotest.(check int) "ledger = sum of both encodings"
    (Encoding.srule_entries a + Encoding.srule_entries b)
    (Srule_state.total_srules srules);
  Encoding.release srules a;
  Alcotest.(check int) "releasing one leaves the other"
    (Encoding.srule_entries b) (Srule_state.total_srules srules)

let test_reencode_after_release () =
  let srules = Srule_state.create topo ~fmax:10 in
  let a = Encoding.encode tight srules fig3_tree in
  let occ = Srule_state.leaf_occupancy srules in
  Encoding.release srules a;
  let b = Encoding.encode tight srules fig3_tree in
  Alcotest.(check (list int)) "same leaf s-rules" (srule_ids a.Encoding.d_leaf)
    (srule_ids b.Encoding.d_leaf);
  Alcotest.(check (list int)) "same pod s-rules" (srule_ids a.Encoding.d_spine)
    (srule_ids b.Encoding.d_spine);
  Alcotest.(check (array int)) "same occupancy" occ (Srule_state.leaf_occupancy srules);
  List.iter
    (fun sender ->
      Alcotest.(check int) "same header size"
        (Encoding.header_bytes a ~sender) (Encoding.header_bytes b ~sender))
    fig3_members

(* {1 Srule_state} *)

let test_ledger_pod_capacity () =
  let s = Srule_state.create topo ~fmax:2 in
  Srule_state.reserve_pod s 1;
  Srule_state.reserve_pod s 1;
  Alcotest.(check bool) "pod full" false (Srule_state.pod_has_space s 1);
  Alcotest.(check bool) "other pod free" true (Srule_state.pod_has_space s 0);
  Alcotest.check_raises "overflow" (Srule_state.Full (Srule_state.Pod 1))
    (fun () -> Srule_state.reserve_pod s 1);
  Alcotest.(check int) "pod counter" 2 (Srule_state.pod_used s 1);
  Alcotest.(check bool) "no leaf touched" true
    (Array.for_all (( = ) 0) (Srule_state.leaf_occupancy s));
  Srule_state.release s (Srule_state.Pod 1);
  Srule_state.release s (Srule_state.Pod 1);
  Alcotest.check_raises "underflow" (Srule_state.Underflow (Srule_state.Pod 1))
    (fun () -> Srule_state.release s (Srule_state.Pod 1));
  Alcotest.(check int) "empty again" 0 (Srule_state.total_srules s)

let test_site_key_injective () =
  let leaves = List.init (Topology.num_leaves topo) (fun l -> Srule_state.Leaf l) in
  let pods = List.init topo.Topology.pods (fun p -> Srule_state.Pod p) in
  let keys = List.map Srule_state.site_key (leaves @ pods) in
  Alcotest.(check int) "distinct keys" (List.length keys)
    (List.length (List.sort_uniq compare keys));
  Alcotest.(check bool) "leaves on even slots" true
    (List.for_all (fun s -> Srule_state.site_key s mod 2 = 0) leaves);
  Alcotest.(check bool) "pods on odd slots" true
    (List.for_all (fun s -> Srule_state.site_key s mod 2 = 1) pods)

let arb_groups =
  QCheck.make
    ~print:QCheck.Print.(list (list int))
    QCheck.Gen.(
      list_size (int_range 1 12)
        (list_size (int_range 1 40) (int_range 0 (Topology.num_hosts fabric - 1))))

let prop_streamed_encodes_respect_fmax =
  QCheck.Test.make ~name:"streamed encodes: ledger = sum of entries, <= fmax"
    ~count:100 arb_groups (fun groups ->
      QCheck.assume (List.for_all (( <> ) []) groups);
      let params = Params.create ~hmax_leaf:2 ~hmax_spine:1 ~header_budget:None () in
      let srules = Srule_state.create fabric ~fmax:2 in
      let encs =
        List.map
          (fun members -> Encoding.encode params srules (Tree.of_members fabric members))
          groups
      in
      let entries = List.fold_left (fun n e -> n + Encoding.srule_entries e) 0 encs in
      let consistent =
        Srule_state.check srules && Srule_state.total_srules srules = entries
      in
      List.iter (Encoding.release srules) encs;
      consistent && Srule_state.total_srules srules = 0)

let prop_ineligible_never_reserves =
  QCheck.Test.make ~name:"no eligible switch, no reservation" ~count:100
    arb_members (fun members ->
      QCheck.assume (members <> []);
      let params = Params.create ~hmax_leaf:2 ~hmax_spine:1 ~header_budget:None () in
      let srules = Srule_state.create fabric ~fmax:5 in
      let enc =
        Encoding.encode ~srule_ok_leaf:(fun _ -> false)
          ~srule_ok_pod:(fun _ -> false) params srules
          (Tree.of_members fabric members)
      in
      Srule_state.total_srules srules = 0
      && Encoding.srule_entries enc = 0
      && Encoding.covered_without_default enc = Encoding.covered_by_prules enc)

let tests =
  tests
  @ [
      Alcotest.test_case "ineligible leaves fold into default" `Quick
        test_ineligible_leaves;
      Alcotest.test_case "ineligible pods fold into default" `Quick
        test_ineligible_pods;
      Alcotest.test_case "one degraded leaf" `Quick test_one_degraded_leaf;
      Alcotest.test_case "full tables fall to default" `Quick
        test_full_tables_fall_to_default;
      Alcotest.test_case "encodes accumulate on one ledger" `Quick
        test_encodes_accumulate;
      Alcotest.test_case "re-encode after release" `Quick test_reencode_after_release;
      Alcotest.test_case "ledger pod capacity" `Quick test_ledger_pod_capacity;
      Alcotest.test_case "site_key injective" `Quick test_site_key_injective;
      QCheck_alcotest.to_alcotest prop_streamed_encodes_respect_fmax;
      QCheck_alcotest.to_alcotest prop_ineligible_never_reserves;
    ]

(* {1 Tree-sized footprint}

   An encoding's leaf index and upper-rule memo have one entry per leaf
   of its tree, not per leaf of the fabric: the same tree shape takes the
   same words on the benchmark's 64-leaf Clos as on the 576-leaf
   Facebook fabric. Every bitmap involved is one word wide on both. *)

let clos64 =
  Topology.create ~pods:8 ~leaves_per_pod:8 ~spines_per_pod:4 ~hosts_per_leaf:32
    ~cores_per_plane:4

let test_footprint_independent_of_fabric () =
  let words topo =
    let lpp = topo.Topology.leaves_per_pod in
    let host leaf port = (leaf * topo.Topology.hosts_per_leaf) + port in
    let members =
      [ host 0 0; host 0 1; host 1 3; host (lpp + 2) 5; host (2 * lpp) 7 ]
    in
    let params = Params.create ~header_budget:None () in
    let srules = Srule_state.create topo ~fmax:params.Params.fmax in
    let enc = Encoding.encode params srules (Tree.of_members topo members) in
    (* The topology record is shared, not the encoding's own. *)
    let own = Obj.reachable_words (Obj.repr enc) - Obj.reachable_words (Obj.repr topo) in
    ignore (Encoding.header_for_sender enc ~sender:(host 0 0));
    ignore (Encoding.header_for_sender enc ~sender:(host 3 0));
    (own, Obj.reachable_words (Obj.repr enc.Encoding.upper))
  in
  Alcotest.(check (pair int int))
    "encoding and upper memo words: 64-leaf Clos = Facebook fabric"
    (words clos64) (words fabric)

(* A sender-only member on a leaf the tree does not span has no slot in
   the index; its header must still equal the one a fresh encode of the
   same membership builds, before and after fast-path joins. Leaf 1
   shares pod 0 with tree leaf 0; leaf 2 is in pod 1, off the tree. *)
let test_off_tree_sender_header () =
  let receivers = [ 0; 1; (5 * h) + 2 ] in
  let senders = [ h + 4; (2 * h) + 3 ] in
  let fresh members = fst (encode (Tree.of_members topo members)) in
  let wire enc s = Header_codec.encode topo (Encoding.header_for_sender enc ~sender:s) in
  let check_against msg enc members =
    let reference = fresh members in
    List.iter
      (fun s ->
        Alcotest.(check bool) (Printf.sprintf "%s: sender %d" msg s) true
          (Bytes.equal (wire enc s) (wire reference s));
        let a = Encoding.header_for_sender enc ~sender:s in
        let b = Encoding.header_for_sender enc ~sender:s in
        Alcotest.(check bool) (Printf.sprintf "%s: sender %d memoized" msg s) true
          (a.Prule.u_spine == b.Prule.u_spine && a.Prule.core == b.Prule.core))
      senders
  in
  let enc = fresh receivers in
  List.iter
    (fun s ->
      Alcotest.(check bool) "off the tree" true
        (Tree.leaf_bitmap enc.Encoding.tree (Topology.leaf_of_host topo s) = None))
    senders;
  check_against "fresh" enc receivers;
  let joined = [ 2; (5 * h) + 4 ] in
  List.iter
    (fun host ->
      match Encoding.apply_delta enc (Encoding.delta_of_host topo ~joining:true host) with
      | Encoding.Applied _ -> ()
      | Encoding.Reencode _ -> Alcotest.failf "join of %d left the fast path" host)
    joined;
  check_against "after joins" enc (receivers @ joined)

let tests =
  tests
  @ [
      Alcotest.test_case "footprint independent of fabric size" `Quick
        test_footprint_independent_of_fabric;
      Alcotest.test_case "off-tree sender header" `Quick
        test_off_tree_sender_header;
    ]
