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
  Srule_state.release_leaf s 0;
  Alcotest.check_raises "underflow" (Srule_state.Underflow (Srule_state.Leaf 0))
    (fun () -> Srule_state.release_leaf s 0);
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
