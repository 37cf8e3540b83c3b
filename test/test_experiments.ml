(* End-to-end experiment harness tests at a reduced scale: shapes that the
   paper's figures rely on must hold even on small runs. *)

let small_config ?(strategy = Vm_placement.Pack_up_to 12) ?(dist = Group_dist.Wve)
    ?(groups = 1_500) () =
  {
    Scalability.topo = Topology.facebook_fabric ();
    tenants = 100;
    total_groups = groups;
    strategy;
    dist;
    params = Params.create ~fmax:50 ();
    seed = 7;
    domains = 1;
  }

let test_scalability_shapes () =
  let cfg = small_config () in
  match Scalability.run cfg ~r_values:[ 0; 12 ] with
  | [ p0; p12 ] ->
      Alcotest.(check int) "all groups encoded" cfg.Scalability.total_groups
        p0.Scalability.total_groups;
      Alcotest.(check bool) "coverage grows with R" true
        (p12.Scalability.covered >= p0.Scalability.covered);
      Alcotest.(check bool) "s-rules shrink with R" true
        (p12.Scalability.leaf_srules.Stats.mean
        <= p0.Scalability.leaf_srules.Stats.mean +. 1e-9);
      Alcotest.(check bool) "traffic overhead grows with R at P=12" true
        (p12.Scalability.overhead_1500 >= p0.Scalability.overhead_1500 -. 1e-9);
      Alcotest.(check bool) "unicast worst" true
        (p0.Scalability.unicast_overhead > p0.Scalability.overlay_overhead);
      Alcotest.(check bool) "overlay worse than Elmo" true
        (p0.Scalability.overlay_overhead > p0.Scalability.overhead_1500);
      Alcotest.(check bool) "headers within budget" true
        (p0.Scalability.header_bytes.Stats.max <= 325.0)
  | _ -> Alcotest.fail "expected two points"

let test_scalability_deterministic () =
  let cfg = small_config ~groups:400 () in
  let a = Scalability.run_point cfg ~r:6 in
  let b = Scalability.run_point cfg ~r:6 in
  Alcotest.(check bool) "same seed, same point" true (a = b)

let test_p1_disperses () =
  let p12 = Scalability.run_point (small_config ~groups:800 ()) ~r:0 in
  let p1 =
    Scalability.run_point
      (small_config ~strategy:(Vm_placement.Pack_up_to 1) ~groups:800 ())
      ~r:0
  in
  (* Dispersed placement needs more state: bigger headers and fewer pure
     p-rule groups. *)
  Alcotest.(check bool) "bigger headers at P=1" true
    (p1.Scalability.header_bytes.Stats.mean > p12.Scalability.header_bytes.Stats.mean);
  Alcotest.(check bool) "less pure-p coverage at P=1" true
    (p1.Scalability.covered_pure_prules <= p12.Scalability.covered_pure_prules)

let test_control_plane_shapes () =
  let cfg =
    {
      Control_plane.topo = Topology.facebook_fabric ();
      tenants = 100;
      total_groups = 800;
      strategy = Vm_placement.Pack_up_to 1;
      dist = Group_dist.Wve;
      params = Params.create ~fmax:50 ();
      events = 1_500;
      events_per_second = 1_000.0;
      failure_trials = 3;
      seed = 11;
      domains = 1;
    }
  in
  let r = Control_plane.run cfg in
  let c = r.Control_plane.churn in
  Alcotest.(check bool) "hypervisors bear the load" true
    (c.Churn.elmo_hypervisor.Churn.mean > c.Churn.elmo_leaf.Churn.mean);
  Alcotest.(check (float 1e-9)) "no Elmo core updates" 0.0 c.Churn.elmo_core.Churn.max;
  Alcotest.(check bool) "Li needs core updates" true (c.Churn.li_core.Churn.max > 0.0);
  Alcotest.(check bool) "Li spine load exceeds Elmo's" true
    (c.Churn.li_spine.Churn.mean > c.Churn.elmo_spine.Churn.mean);
  Alcotest.(check bool) "core failures affect more groups than spine" true
    (r.Control_plane.core_failures.Churn.affected_fraction_mean
    >= r.Control_plane.spine_failures.Churn.affected_fraction_mean *. 0.5)

let test_ablation_ladder () =
  let steps = Ablation.run () in
  Alcotest.(check int) "five steps" 5 (List.length steps);
  match steps with
  | [ d1; d2; d3; d4; d5 ] ->
      Alcotest.(check bool) "D2 shrinks D1" true (d2.Ablation.header_bits < d1.Ablation.header_bits);
      Alcotest.(check bool) "D3 shrinks D2" true (d3.Ablation.header_bits < d2.Ablation.header_bits);
      Alcotest.(check bool) "D4 uses the default rule" true d4.Ablation.default_used;
      Alcotest.(check bool) "D5 replaces default with s-rules" true
        ((not d5.Ablation.default_used) && d5.Ablation.srules > 0)
  | _ -> Alcotest.fail "unexpected ladder"

let test_fig7_shapes () =
  let topo = Topology.facebook_fabric () in
  let points = Fig7.run ~iterations:200 topo [ 0; 15; 30 ] in
  match points with
  | [ p0; _; p30 ] ->
      Alcotest.(check bool) "header grows" true (p30.Fig7.header_bytes > p0.Fig7.header_bytes);
      Alcotest.(check bool) "per-rule path slower at 30 rules" true
        (p30.Fig7.per_rule_mpps < p30.Fig7.single_mpps);
      (* The headline claim: the single-write path's pps degrades far less
         than the per-rule path's across the sweep. *)
      let degradation single = single p0 /. single p30 in
      Alcotest.(check bool) "single-write degrades less" true
        (degradation (fun p -> p.Fig7.single_mpps)
        < degradation (fun p -> p.Fig7.per_rule_mpps))
  | _ -> Alcotest.fail "expected three points"

let test_fig7_header_construction () =
  let topo = Topology.facebook_fabric () in
  let h = Fig7.header_with_rules topo 7 in
  Alcotest.(check int) "rule count" 7 (List.length h.Prule.downstream.Prule.d_leaf);
  (* Must be serializable. *)
  Alcotest.(check bool) "roundtrips" true
    (Header_codec.decode topo (Header_codec.encode topo h) = h)

let test_comparison_rows () =
  let rows = Comparison.rows ~table_capacity:5_000 ~header_budget:325 in
  Alcotest.(check int) "seven schemes" 7 (List.length rows);
  let find name = List.find (fun r -> r.Comparison.scheme = name) rows in
  Alcotest.(check string) "IP multicast capped by table" "5K"
    (find "IP Multicast").Comparison.groups;
  Alcotest.(check string) "Elmo unbounded" "1M+" (find "Elmo").Comparison.groups;
  Alcotest.(check bool) "Elmo line rate, no unorthodox switches" true
    (let e = find "Elmo" in
     e.Comparison.line_rate && not e.Comparison.unorthodox_switch);
  Alcotest.(check bool) "BIER network-size limited" true
    ((find "BIER [117]").Comparison.network_size_limit <> "none")

let tests =
  [
    Alcotest.test_case "scalability shapes" `Slow test_scalability_shapes;
    Alcotest.test_case "scalability deterministic" `Slow test_scalability_deterministic;
    Alcotest.test_case "P=1 disperses" `Slow test_p1_disperses;
    Alcotest.test_case "control-plane shapes" `Slow test_control_plane_shapes;
    Alcotest.test_case "ablation ladder" `Quick test_ablation_ladder;
    Alcotest.test_case "fig7 shapes" `Slow test_fig7_shapes;
    Alcotest.test_case "fig7 header construction" `Quick test_fig7_header_construction;
    Alcotest.test_case "comparison rows" `Quick test_comparison_rows;
  ]

let test_bisection_shapes () =
  match Bisection.run ~groups:2_000 () with
  | [ elmo; pinned ] ->
      Alcotest.(check int) "same flows measured" elmo.Bisection.flows
        pinned.Bisection.flows;
      Alcotest.(check bool) "flows exist" true (elmo.Bisection.flows > 0);
      Alcotest.(check bool) "per-flow ECMP spreads better than pinned trees"
        true
        (elmo.Bisection.link_load.Stats.stddev
        < pinned.Bisection.link_load.Stats.stddev);
      Alcotest.(check bool) "same total load" true
        (abs_float
           (elmo.Bisection.link_load.Stats.mean
           -. pinned.Bisection.link_load.Stats.mean)
        < 1e-9)
  | _ -> Alcotest.fail "expected two schemes"

let tests =
  tests @ [ Alcotest.test_case "bisection shapes" `Slow test_bisection_shapes ]

let test_strawman_appendix_numbers () =
  (* The appendix: ten 11-bit rules need three TCAM blocks and waste 99.5%
     of the 2,000 provisioned entries. *)
  let c = Strawman.appendix_example () in
  Alcotest.(check int) "three TCAM blocks" 3 c.Strawman.tcam_blocks;
  Alcotest.(check int) "ten entries used" 10 c.Strawman.tcam_entries_used;
  Alcotest.(check (float 0.01)) "99.5% wasted" 99.5 c.Strawman.waste_percent;
  Alcotest.(check int) "one stage per rule without TCAM" 10
    c.Strawman.sram_stages_needed;
  (* A real leaf section would need more stages than the chip has. *)
  let fabric = Topology.facebook_fabric () in
  let full = Strawman.leaf_layer_cost fabric Params.default in
  Alcotest.(check bool) "leaf section exceeds the 16-stage ingress" true
    (full.Strawman.sram_stages_needed > Strawman.rmt.Strawman.stages)

let tests =
  tests
  @ [ Alcotest.test_case "strawman appendix numbers" `Quick
        test_strawman_appendix_numbers ]
