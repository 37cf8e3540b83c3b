(* Extensions from the paper's discussion sections: two-tier fabrics
   (§5.1.1 "qualitatively similar results"), incremental deployment with
   legacy switches (§7), and multi-datacenter relay multicast (§7). *)

let topo = Topology.running_example ()
let h = topo.Topology.hosts_per_leaf
let fig3_hosts = [ 0; 1; (5 * h) + 2; (6 * h) + 4; (6 * h) + 5; (7 * h) + 7 ]

(* {1 Two-tier} *)

let test_two_tier_header_has_no_spine_section () =
  let tt = Topology.leaf_spine ~leaves:8 ~spines:4 ~hosts_per_leaf:8 in
  let tree = Tree.of_members tt [ 0; 9; 17; 25 ] in
  let srules = Srule_state.create tt ~fmax:100 in
  let enc = Encoding.encode Params.default srules tree in
  let hd = Encoding.header_for_sender enc ~sender:0 in
  Alcotest.(check int) "no d-spine rules" 0 (List.length hd.Prule.downstream.Prule.d_spine);
  Alcotest.(check bool) "no d-spine default" true (hd.Prule.downstream.Prule.d_spine_default = None);
  Alcotest.(check bool) "no core rule" true (hd.Prule.core = None);
  (* Still delivers. *)
  let fabric = Fabric.create tt in
  Fabric.install_encoding fabric ~group:1 enc;
  let report = Fabric.inject fabric ~sender:0 ~group:1 ~header:hd ~payload:64 in
  Alcotest.(check bool) "delivers" true
    (Fabric.deliveries_correct report ~tree ~sender:0)

(* {1 Legacy switches} *)

let legacy_setup ~legacy_leaves ~encode_aware =
  let tree = Tree.of_members topo fig3_hosts in
  let srules = Srule_state.create topo ~fmax:100 in
  let legacy_leaf l = List.mem l legacy_leaves in
  let enc =
    if encode_aware then Encoding.encode ~legacy_leaf Params.default srules tree
    else Encoding.encode Params.default srules tree
  in
  let fabric = Fabric.create topo in
  List.iter (fun l -> Fabric.set_leaf_legacy fabric l true) legacy_leaves;
  Fabric.install_encoding fabric ~group:1 enc;
  (tree, enc, fabric)

let test_legacy_leaf_without_srule_loses_receivers () =
  (* The controller is unaware that L6 is legacy: its receivers are lost. *)
  let tree, _, fabric = legacy_setup ~legacy_leaves:[ 6 ] ~encode_aware:false in
  let srules = Srule_state.create topo ~fmax:100 in
  let enc = Encoding.encode Params.default srules tree in
  let hd = Encoding.header_for_sender enc ~sender:0 in
  let report = Fabric.inject fabric ~sender:0 ~group:1 ~header:hd ~payload:64 in
  Alcotest.(check bool) "members behind legacy leaf missed" false
    (Fabric.deliveries_correct report ~tree ~sender:0);
  Alcotest.(check bool) "others still served" true
    (List.mem_assoc ((5 * h) + 2) report.Fabric.delivered)

let test_legacy_aware_encoding_installs_srules () =
  let tree, enc, fabric = legacy_setup ~legacy_leaves:[ 6 ] ~encode_aware:true in
  Alcotest.(check bool) "s-rule forced for legacy leaf" true
    (List.mem_assoc 6 enc.Encoding.d_leaf.Clustering.srules);
  Alcotest.(check bool) "legacy leaf not in any p-rule" true
    (List.for_all
       (fun r -> not (List.mem 6 r.Prule.switches))
       enc.Encoding.d_leaf.Clustering.prules);
  let hd = Encoding.header_for_sender enc ~sender:0 in
  let report = Fabric.inject fabric ~sender:0 ~group:1 ~header:hd ~payload:64 in
  Alcotest.(check bool) "delivery restored" true
    (Fabric.deliveries_correct report ~tree ~sender:0)

let test_legacy_table_overflow_falls_to_default () =
  (* A legacy leaf with a full group table cannot be served at all: the
     encoder puts it in the default rule, which the legacy switch cannot
     parse — the paper's "legacy group tables remain the bottleneck". *)
  let tree = Tree.of_members topo fig3_hosts in
  let srules = Srule_state.create topo ~fmax:0 in
  let enc = Encoding.encode ~legacy_leaf:(fun l -> l = 6) Params.default srules tree in
  (match enc.Encoding.d_leaf.Clustering.default with
  | Some (ids, _) -> Alcotest.(check (list int)) "legacy leaf defaulted" [ 6 ] ids
  | None -> Alcotest.fail "expected default");
  let fabric = Fabric.create topo in
  Fabric.set_leaf_legacy fabric 6 true;
  Fabric.install_encoding fabric ~group:1 enc;
  let hd = Encoding.header_for_sender enc ~sender:0 in
  let report = Fabric.inject fabric ~sender:0 ~group:1 ~header:hd ~payload:64 in
  Alcotest.(check bool) "receivers behind it are lost" false
    (Fabric.deliveries_correct report ~tree ~sender:0)

let test_legacy_spine_served_by_pod_srule () =
  let tree = Tree.of_members topo fig3_hosts in
  let srules = Srule_state.create topo ~fmax:100 in
  (* Pod 3's spines are legacy. *)
  let enc = Encoding.encode ~legacy_pod:(fun p -> p = 3) Params.default srules tree in
  Alcotest.(check bool) "pod s-rule forced" true
    (List.mem_assoc 3 enc.Encoding.d_spine.Clustering.srules);
  let fabric = Fabric.create topo in
  List.iter (fun s -> Fabric.set_spine_legacy fabric s true) (Topology.spines_of_pod topo 3);
  Fabric.install_encoding fabric ~group:1 enc;
  let hd = Encoding.header_for_sender enc ~sender:0 in
  let report = Fabric.inject fabric ~sender:0 ~group:1 ~header:hd ~payload:64 in
  Alcotest.(check bool) "delivers through legacy pod" true
    (Fabric.deliveries_correct report ~tree ~sender:0)

(* {1 Multi-datacenter} *)

let test_multidc_delivery () =
  let dc_a = Fabric.create topo in
  let dc_b = Fabric.create (Topology.running_example ()) in
  let m = Multidc.create Params.default [ dc_a; dc_b ] in
  Alcotest.(check int) "two DCs" 2 (Multidc.datacenters m);
  let members = [ (0, 0); (0, 1); (0, 42); (1, 5); (1, 17); (1, 60) ] in
  Multidc.add_group m ~group:9 members;
  let report = Multidc.send m ~group:9 ~sender_dc:0 ~sender:0 in
  Alcotest.(check int) "one WAN unicast" 1 report.Multidc.wan_unicasts;
  Alcotest.(check bool) "all members exactly once" true
    (Multidc.deliveries_correct m ~group:9 ~sender_dc:0 ~sender:0 report)

let test_multidc_single_dc_group () =
  let dc_a = Fabric.create topo in
  let dc_b = Fabric.create topo in
  let m = Multidc.create Params.default [ dc_a; dc_b ] in
  Multidc.add_group m ~group:1 [ (0, 0); (0, 9) ];
  let report = Multidc.send m ~group:1 ~sender_dc:0 ~sender:0 in
  Alcotest.(check int) "no WAN traffic" 0 report.Multidc.wan_unicasts;
  Alcotest.(check bool) "delivered" true
    (Multidc.deliveries_correct m ~group:1 ~sender_dc:0 ~sender:0 report)

let test_multidc_sender_in_memberless_dc () =
  let dc_a = Fabric.create topo in
  let dc_b = Fabric.create topo in
  let m = Multidc.create Params.default [ dc_a; dc_b ] in
  Multidc.add_group m ~group:1 [ (1, 5); (1, 30) ];
  let report = Multidc.send m ~group:1 ~sender_dc:0 ~sender:0 in
  Alcotest.(check int) "one WAN unicast" 1 report.Multidc.wan_unicasts;
  Alcotest.(check bool) "remote members served" true
    (Multidc.deliveries_correct m ~group:1 ~sender_dc:0 ~sender:0 report)

let test_multidc_remove_group_releases () =
  let dc_a = Fabric.create topo in
  let m = Multidc.create Params.default [ dc_a ] in
  Multidc.add_group m ~group:1 [ (0, 0); (0, 9); (0, 42) ];
  Multidc.remove_group m ~group:1;
  Alcotest.check_raises "gone" Not_found (fun () ->
      ignore (Multidc.send m ~group:1 ~sender_dc:0 ~sender:0));
  (* Re-adding under the same id works (state was fully released). *)
  Multidc.add_group m ~group:1 [ (0, 0); (0, 9) ];
  let report = Multidc.send m ~group:1 ~sender_dc:0 ~sender:0 in
  Alcotest.(check bool) "works after re-add" true
    (Multidc.deliveries_correct m ~group:1 ~sender_dc:0 ~sender:0 report)

let test_multidc_validation () =
  let dc_a = Fabric.create topo in
  let m = Multidc.create Params.default [ dc_a ] in
  Alcotest.check_raises "unknown dc"
    (Invalid_argument "Multidc.add_group: unknown datacenter") (fun () ->
      Multidc.add_group m ~group:1 [ (1, 0) ]);
  Alcotest.check_raises "duplicate member"
    (Invalid_argument "Multidc.add_group: duplicate member") (fun () ->
      Multidc.add_group m ~group:1 [ (0, 0); (0, 0) ]);
  Alcotest.check_raises "no datacenters"
    (Invalid_argument "Multidc.create: no datacenters") (fun () ->
      ignore (Multidc.create Params.default []))

let tests =
  [
    Alcotest.test_case "two-tier: no spine section" `Quick
      test_two_tier_header_has_no_spine_section;
    Alcotest.test_case "legacy leaf unaware: loss" `Quick
      test_legacy_leaf_without_srule_loses_receivers;
    Alcotest.test_case "legacy-aware encoding: s-rules" `Quick
      test_legacy_aware_encoding_installs_srules;
    Alcotest.test_case "legacy table overflow" `Quick
      test_legacy_table_overflow_falls_to_default;
    Alcotest.test_case "legacy spines via pod s-rule" `Quick
      test_legacy_spine_served_by_pod_srule;
    Alcotest.test_case "multi-DC delivery" `Quick test_multidc_delivery;
    Alcotest.test_case "multi-DC single-DC group" `Quick test_multidc_single_dc_group;
    Alcotest.test_case "multi-DC memberless sender DC" `Quick
      test_multidc_sender_in_memberless_dc;
    Alcotest.test_case "multi-DC remove releases" `Quick test_multidc_remove_group_releases;
    Alcotest.test_case "multi-DC validation" `Quick test_multidc_validation;
  ]
