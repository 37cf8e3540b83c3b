(* Cross-validation of the analytic traffic model (Traffic) against the
   operational packet-level data plane (Fabric): for arbitrary groups,
   parameters and senders, both must agree on transmissions and header
   bytes, and delivery must be exactly-once to every member. *)

let topo = Topology.running_example ()
let fabric_topo = Topology.facebook_fabric ()
let two_tier = Topology.leaf_spine ~leaves:8 ~spines:4 ~hosts_per_leaf:8

let setup t ?(params = Params.default) ?(fmax = params.Params.fmax) members =
  let tree = Tree.of_members t members in
  let srules = Srule_state.create t ~fmax in
  let enc = Encoding.encode params srules tree in
  let fabric = Fabric.create t in
  Fabric.install_encoding fabric ~group:1 enc;
  (tree, enc, fabric)

let run_both t ?params ?fmax members sender =
  let params = Option.value ~default:Params.default params in
  let tree, enc, fabric = setup t ~params ?fmax members in
  let header = Encoding.header_for_sender enc ~sender in
  let report = Fabric.inject fabric ~sender ~group:1 ~header ~payload:100 in
  let analytic = Traffic.measure enc ~sender in
  (tree, enc, report, analytic)

let check_agreement name (tree, _enc, report, analytic) sender =
  Alcotest.(check int) (name ^ ": transmissions agree")
    report.Fabric.transmissions analytic.Traffic.transmissions;
  Alcotest.(check int) (name ^ ": header bytes agree")
    report.Fabric.header_bytes analytic.Traffic.header_bytes;
  Alcotest.(check bool) (name ^ ": delivery correct") true
    (Fabric.deliveries_correct report ~tree ~sender);
  let delivered_ops =
    List.fold_left (fun acc (_, n) -> acc + n) 0 report.Fabric.delivered
  in
  Alcotest.(check int) (name ^ ": delivered+spurious consistent")
    delivered_ops
    (analytic.Traffic.delivered_hosts + analytic.Traffic.spurious_hosts);
  Alcotest.(check int) (name ^ ": members reached")
    (Tree.member_count tree - if Tree.mem_host tree sender then 1 else 0)
    analytic.Traffic.delivered_hosts

let h = topo.Topology.hosts_per_leaf
let fig3_members = [ 0; 1; (5 * h) + 2; (6 * h) + 4; (6 * h) + 5; (7 * h) + 7 ]

let test_fig3_all_senders () =
  List.iter
    (fun sender ->
      let r = run_both topo fig3_members sender in
      check_agreement (Printf.sprintf "fig3 sender %d" sender) r sender)
    fig3_members

let test_single_leaf () =
  let r = run_both topo [ 0; 1; 2 ] 0 in
  let _, _, report, analytic = r in
  check_agreement "single leaf" r 0;
  Alcotest.(check int) "ideal achieved" analytic.Traffic.ideal_transmissions
    report.Fabric.transmissions

let test_with_srules () =
  (* Force s-rules: hmax 1 per layer with room in the tables. *)
  let params = Params.create ~hmax_leaf:1 ~hmax_spine:1 ~header_budget:None () in
  List.iter
    (fun sender ->
      let r = run_both topo ~params ~fmax:100 fig3_members sender in
      let _, enc, _, analytic = r in
      Alcotest.(check bool) "uses s-rules" true (Encoding.srule_entries enc > 0);
      check_agreement "srules" r sender;
      (* s-rules are exact, so traffic equals ideal. *)
      Alcotest.(check int) "no spurious" 0 analytic.Traffic.spurious_hosts)
    fig3_members

let test_with_default_rules () =
  (* No s-rule space: leftovers fall to defaults, creating spurious traffic
     but still reaching every member. *)
  let params = Params.create ~hmax_leaf:1 ~hmax_spine:1 ~header_budget:None () in
  List.iter
    (fun sender ->
      let r = run_both topo ~params ~fmax:0 fig3_members sender in
      let _, enc, _, _ = r in
      Alcotest.(check bool) "uses default" true (Encoding.uses_default enc);
      check_agreement "defaults" r sender)
    fig3_members

let test_with_sharing () =
  let params = Params.create ~r:4 ~hmax_leaf:2 ~hmax_spine:2 ~header_budget:None () in
  List.iter
    (fun sender ->
      let r = run_both topo ~params fig3_members sender in
      check_agreement "sharing" r sender)
    fig3_members

let test_two_tier () =
  let members = [ 0; 9; 17; 25; 33 ] in
  List.iter
    (fun sender ->
      let r = run_both two_tier members sender in
      check_agreement "two-tier" r sender)
    members

let test_failed_spine_loses_packets () =
  let tree, enc, fabric = setup topo fig3_members in
  let header = Encoding.header_for_sender enc ~sender:0 in
  (* Fail the spine this flow hashes onto. *)
  let hash = Ecmp.flow_hash ~group:1 ~sender:0 in
  let plane = Ecmp.spine_choice topo ~hash in
  Fabric.fail_spine fabric plane;
  (* pod 0 spines are 0..spp-1 *)
  let report = Fabric.inject fabric ~sender:0 ~group:1 ~header ~payload:100 in
  Alcotest.(check int) "one copy lost at the spine" 1 report.Fabric.lost;
  Alcotest.(check bool) "receivers missing" false
    (Fabric.deliveries_correct report ~tree ~sender:0);
  Fabric.recover_spine fabric plane;
  let report = Fabric.inject fabric ~sender:0 ~group:1 ~header ~payload:100 in
  Alcotest.(check bool) "recovered" true (Fabric.deliveries_correct report ~tree ~sender:0)

let test_explicit_upstream_ports () =
  (* Multipath off, explicit spine/core ports: delivery still works. *)
  let tree, enc, fabric = setup topo fig3_members in
  let base = Encoding.header_for_sender enc ~sender:0 in
  let up_leaf = Bitmap.create (Topology.leaf_upstream_width topo) in
  Bitmap.set up_leaf 1;
  let up_spine = Bitmap.create (Topology.spine_upstream_width topo) in
  Bitmap.set up_spine 0;
  let header =
    {
      base with
      Prule.u_leaf = { base.Prule.u_leaf with Prule.multipath = false; up = up_leaf };
      u_spine =
        Option.map
          (fun u -> { u with Prule.multipath = false; up = up_spine })
          base.Prule.u_spine;
    }
  in
  let report = Fabric.inject fabric ~sender:0 ~group:1 ~header ~payload:100 in
  Alcotest.(check bool) "explicit path delivers" true
    (Fabric.deliveries_correct report ~tree ~sender:0)

let test_no_sender_rule_no_delivery () =
  (* A leaf with neither p-rule, s-rule nor default drops: inject a header
     whose d_leaf section is empty. *)
  let fabric = Fabric.create topo in
  let header =
    {
      Prule.u_leaf =
        {
          Prule.down = Bitmap.create (Topology.leaf_downstream_width topo);
          up = Bitmap.create (Topology.leaf_upstream_width topo);
          multipath = true;
        };
      u_spine =
        Some
          {
            Prule.down = Bitmap.create (Topology.spine_downstream_width topo);
            up = Bitmap.create (Topology.spine_upstream_width topo);
            multipath = true;
          };
      core = Some (Bitmap.of_list (Topology.core_downstream_width topo) [ 2 ]);
      downstream =
        Prule.down topo ~d_spine:[] ~d_spine_default:None ~d_leaf:[]
          ~d_leaf_default:None;
    }
  in
  let report = Fabric.inject fabric ~sender:0 ~group:9 ~header ~payload:100 in
  Alcotest.(check (list (pair int int))) "nothing delivered" [] report.Fabric.delivered

let test_group_table_isolation () =
  (* s-rules for one group must not leak into another. *)
  let _, enc, fabric = setup topo ~params:(Params.create ~hmax_leaf:1 ~hmax_spine:1 ~header_budget:None ()) ~fmax:100 fig3_members in
  ignore enc;
  Alcotest.(check bool) "tables populated" true (Fabric.leaf_table_size fabric 5 + Fabric.leaf_table_size fabric 6 + Fabric.leaf_table_size fabric 7 > 0);
  Fabric.remove_encoding fabric ~group:1 enc;
  List.iter
    (fun l ->
      Alcotest.(check int) "cleared" 0 (Fabric.leaf_table_size fabric l))
    [ 0; 5; 6; 7 ]

(* The load-bearing property: analytic and operational models agree on
   random workloads across parameter space, on the full fabric. *)
let arb_scenario =
  QCheck.make
    ~print:(fun (members, r, hmax_leaf, hmax_spine, fmax, sender_idx) ->
      Printf.sprintf "members=[%s] r=%d hl=%d hs=%d fmax=%d sender=%d"
        (String.concat "," (List.map string_of_int members))
        r hmax_leaf hmax_spine fmax sender_idx)
    QCheck.Gen.(
      list_size (int_range 1 50) (int_range 0 (Topology.num_hosts fabric_topo - 1))
      >>= fun members ->
      int_range 0 12 >>= fun r ->
      int_range 1 8 >>= fun hmax_leaf ->
      int_range 1 3 >>= fun hmax_spine ->
      oneofl [ 0; 1; 100 ] >>= fun fmax ->
      int_range 0 (List.length members - 1) >>= fun sender_idx ->
      return (members, r, hmax_leaf, hmax_spine, fmax, sender_idx))

let prop_analytic_equals_operational =
  QCheck.Test.make ~name:"analytic model == packet-level fabric" ~count:150
    arb_scenario (fun (members, r, hmax_leaf, hmax_spine, fmax, sender_idx) ->
      let sender = List.nth members sender_idx in
      let params = Params.create ~r ~hmax_leaf ~hmax_spine ~header_budget:None () in
      let tree, enc, fabric = setup fabric_topo ~params ~fmax members in
      let header = Encoding.header_for_sender enc ~sender in
      let report = Fabric.inject fabric ~sender ~group:1 ~header ~payload:100 in
      let analytic = Traffic.measure enc ~sender in
      report.Fabric.transmissions = analytic.Traffic.transmissions
      && report.Fabric.header_bytes = analytic.Traffic.header_bytes
      && Fabric.deliveries_correct report ~tree ~sender
      && analytic.Traffic.delivered_hosts
         = Tree.member_count tree - (if Tree.mem_host tree sender then 1 else 0))

let prop_overhead_nonnegative =
  QCheck.Test.make ~name:"actual transmissions >= ideal" ~count:150 arb_scenario
    (fun (members, r, hmax_leaf, hmax_spine, fmax, sender_idx) ->
      let sender = List.nth members sender_idx in
      let params = Params.create ~r ~hmax_leaf ~hmax_spine ~header_budget:None () in
      let _, enc, _ = setup fabric_topo ~params ~fmax members in
      let c = Traffic.measure enc ~sender in
      c.Traffic.transmissions >= c.Traffic.ideal_transmissions
      && Traffic.overhead_ratio c ~payload:1500 >= 0.0)

let tests =
  [
    Alcotest.test_case "fig3: all senders" `Quick test_fig3_all_senders;
    Alcotest.test_case "single leaf = ideal" `Quick test_single_leaf;
    Alcotest.test_case "with s-rules (exact)" `Quick test_with_srules;
    Alcotest.test_case "with default rules" `Quick test_with_default_rules;
    Alcotest.test_case "with sharing" `Quick test_with_sharing;
    Alcotest.test_case "two-tier topology" `Quick test_two_tier;
    Alcotest.test_case "failed spine loses packets" `Quick test_failed_spine_loses_packets;
    Alcotest.test_case "explicit upstream ports" `Quick test_explicit_upstream_ports;
    Alcotest.test_case "no rules => drop" `Quick test_no_sender_rule_no_delivery;
    Alcotest.test_case "group table isolation" `Quick test_group_table_isolation;
    QCheck_alcotest.to_alcotest prop_analytic_equals_operational;
    QCheck_alcotest.to_alcotest prop_overhead_nonnegative;
  ]

let test_overhead_ratio_accounting () =
  (* Hand-built counts: 10 transmissions (ideal 10), 200 header bytes. *)
  let c =
    {
      Traffic.transmissions = 10;
      ideal_transmissions = 10;
      header_bytes = 200;
      delivered_hosts = 5;
      spurious_hosts = 0;
    }
  in
  (* No extra transmissions: overhead is purely header bytes over the
     encapsulated packet volume. *)
  Alcotest.(check (float 1e-9)) "header-only overhead"
    (200.0 /. float_of_int (10 * (64 + Traffic.vxlan_encap_bytes)))
    (Traffic.overhead_ratio c ~payload:64);
  Alcotest.(check (float 1e-9)) "encap can be disabled"
    (200.0 /. 640.0)
    (Traffic.overhead_ratio ~encap:0 c ~payload:64);
  (* Extra transmissions add payload-proportional overhead. *)
  let c2 = { c with Traffic.transmissions = 12; header_bytes = 0 } in
  Alcotest.(check (float 1e-9)) "transmission overhead" 0.2
    (Traffic.overhead_ratio c2 ~payload:1500);
  Alcotest.check_raises "bad payload"
    (Invalid_argument "Traffic.overhead_ratio: payload") (fun () ->
      ignore (Traffic.overhead_ratio c ~payload:0))

let tests =
  tests
  @ [ Alcotest.test_case "overhead ratio accounting" `Quick
        test_overhead_ratio_accounting ]

let test_trace_matches_report () =
  let tree, _, report, _ = run_both topo fig3_members 0 in
  Alcotest.(check int) "one hop per transmission" report.Fabric.transmissions
    (List.length report.Fabric.trace);
  (match report.Fabric.trace with
  | first :: _ ->
      Alcotest.(check bool) "starts at the sender's hypervisor" true
        (first.Fabric.hop_from = Fabric.Host_node 0
        && first.Fabric.hop_to = Fabric.Leaf_node 0)
  | [] -> Alcotest.fail "empty trace");
  (* Host-bound hops carry no Elmo header (stripped at the leaf egress) and
     together are exactly the delivered set. *)
  let host_hops =
    List.filter_map
      (fun h ->
        match h.Fabric.hop_to with
        | Fabric.Host_node host ->
            Alcotest.(check int) "no header toward hosts" 0 h.Fabric.hop_header_bytes;
            Some host
        | Fabric.Leaf_node _ | Fabric.Spine_node _ | Fabric.Core_node _ -> None)
      report.Fabric.trace
    |> List.sort compare
  in
  Alcotest.(check (list int)) "host hops = deliveries"
    (List.map fst report.Fabric.delivered)
    host_hops;
  Alcotest.(check bool) "header shrinks along any root-to-host path" true
    (Fabric.deliveries_correct report ~tree ~sender:0)

let test_trace_header_monotone () =
  (* Along the trace, a switch never emits a bigger header than it received
     on the upstream path (popping only shrinks). The first hop carries the
     largest header. *)
  let _, _, report, _ = run_both topo fig3_members 0 in
  match report.Fabric.trace with
  | first :: rest ->
      List.iter
        (fun h ->
          Alcotest.(check bool) "no hop exceeds the initial header" true
            (h.Fabric.hop_header_bytes <= first.Fabric.hop_header_bytes))
        rest
  | [] -> Alcotest.fail "empty trace"

let tests =
  tests
  @ [
      Alcotest.test_case "trace matches report" `Quick test_trace_matches_report;
      Alcotest.test_case "trace header monotone" `Quick test_trace_header_monotone;
    ]

(* Golden digest over [Fabric.inject]: seeded random headers (from the codec
   property generator), senders, s-rules, failed spines/cores/links and
   legacy switches, each packet's full report hashed. The digest was
   recorded against the per-switch re-encoding forwarding loop; any change
   to forwarding, drops, byte accounting, trace order or telemetry shows
   up here as a different hash. *)
let golden_case rand buf i =
  let open QCheck.Gen in
  let topos = Test_codec.golden_topos in
  let t = topos.(i mod Array.length topos) in
  let pick n = int_range 0 (n - 1) rand in
  let header = Test_codec.gen_header t rand in
  let sender = pick (Topology.num_hosts t) in
  let group = 1 + pick 4 in
  let fabric = Fabric.create t in
  let random_bitmap width =
    Bitmap.of_list width (list_size (int_range 0 (min width 6)) (int_range 0 (width - 1)) rand)
  in
  for _ = 1 to pick 4 do
    Fabric.install_leaf_srule fabric ~leaf:(pick (Topology.num_leaves t)) ~group
      (random_bitmap (Topology.leaf_downstream_width t))
  done;
  for _ = 1 to pick 3 do
    Fabric.install_pod_srule fabric ~pod:(pick t.Topology.pods) ~group
      (random_bitmap (Topology.spine_downstream_width t))
  done;
  let faults n f = for _ = 1 to pick (n + 1) do f () done in
  faults 2 (fun () -> Fabric.fail_spine fabric (pick (Topology.num_spines t)));
  if Topology.num_cores t > 0 then
    faults 2 (fun () -> Fabric.fail_core fabric (pick (Topology.num_cores t)));
  faults 3 (fun () ->
      Fabric.fail_link fabric ~leaf:(pick (Topology.num_leaves t))
        ~plane:(pick t.Topology.spines_per_pod));
  faults 2 (fun () -> Fabric.set_leaf_legacy fabric (pick (Topology.num_leaves t)) true);
  faults 1 (fun () -> Fabric.set_spine_legacy fabric (pick (Topology.num_spines t)) true);
  let tel_hops = ref 0 and tel_bytes = ref 0 in
  if bool rand then
    Fabric.set_telemetry fabric
      (Some
         {
           Fabric.tel_hop = (fun ~payload:_ _ -> incr tel_hops);
           tel_packet = (fun ~group:_ ~sender:_ ~bytes -> tel_bytes := !tel_bytes + bytes);
         });
  let payload = 64 + pick 1500 in
  let r = Fabric.inject fabric ~sender ~group ~header ~payload in
  let pr fmt = Printf.bprintf buf fmt in
  pr "#%d d=" i;
  List.iter (fun (h, n) -> pr "%d:%d," h n) r.Fabric.delivered;
  pr " tx=%d hb=%d lost=%d tel=%d/%d tr=" r.Fabric.transmissions r.Fabric.header_bytes
    r.Fabric.lost !tel_hops !tel_bytes;
  List.iter
    (fun h ->
      Printf.bprintf buf "%s>%s:%d;"
        (Format.asprintf "%a" Fabric.pp_node h.Fabric.hop_from)
        (Format.asprintf "%a" Fabric.pp_node h.Fabric.hop_to)
        h.Fabric.hop_header_bytes)
    r.Fabric.trace;
  pr "\n";
  (* A hypervisor keeps only the header's wire: its send is the same
     packet, and its per-rule parts, rebuilt from the wire, are the
     header's. *)
  let hv = Hypervisor.create fabric ~host:sender in
  Hypervisor.install_sender hv ~group header;
  if Hypervisor.send hv ~group ~payload <> Some r then
    Alcotest.failf "#%d: Hypervisor.send differs from Fabric.inject" i;
  let data = Bytes.of_string "payload" in
  let parts = Bytes.concat Bytes.empty (Header_codec.encode_parts t header) in
  if Hypervisor.encap_per_rule hv ~group ~payload:data <> Some (Bytes.cat parts data) then
    Alcotest.failf "#%d: per-rule parts differ from the header's" i

let golden_inject_digest = "f12b5e415feca2001475317d37266719"

let test_inject_golden () =
  let rand = Random.State.make [| 2019 |] in
  let buf = Buffer.create (1 lsl 16) in
  for i = 0 to 499 do
    golden_case rand buf i
  done;
  Alcotest.(check string) "inject report digest" golden_inject_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let tests =
  tests @ [ Alcotest.test_case "inject golden digest" `Quick test_inject_golden ]
