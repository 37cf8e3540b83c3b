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

(* The fig3 packet from host 0: its report and its trace. *)
let fig3_traced () =
  let tree, enc, fabric = setup topo fig3_members in
  let header = Encoding.header_for_sender enc ~sender:0 in
  let report = Fabric.inject fabric ~sender:0 ~group:1 ~header ~payload:100 in
  (tree, report, Fabric.trace fabric ~sender:0 ~group:1 ~header)

let test_trace_matches_report () =
  let tree, report, hops = fig3_traced () in
  Alcotest.(check int) "one hop per transmission" report.Fabric.transmissions
    (List.length hops);
  (match hops with
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
      hops
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
  let _, _, hops = fig3_traced () in
  match hops with
  | first :: rest ->
      List.iter
        (fun h ->
          Alcotest.(check bool) "no hop exceeds the initial header" true
            (h.Fabric.hop_header_bytes <= first.Fabric.hop_header_bytes))
        rest
  | [] -> Alcotest.fail "empty trace"

(* A trace is an observer, not a packet: it fires neither hook, and its
   host-bound hops are [inject]'s deliveries, copies included (default
   p-rules, fmax 0, send spurious and repeated copies). *)
let test_trace_fires_no_hook () =
  let params = Params.create ~hmax_leaf:1 ~hmax_spine:1 ~header_budget:None () in
  List.iter
    (fun sender ->
      let _, enc, fabric = setup topo ~params ~fmax:0 fig3_members in
      let header = Encoding.header_for_sender enc ~sender in
      let fired = ref 0 in
      Fabric.set_telemetry fabric
        (Some
           {
             Fabric.tel_hop = (fun ~payload:_ _ -> incr fired);
             tel_packet = (fun ~group:_ ~sender:_ ~bytes:_ -> incr fired);
           });
      let hops = Fabric.trace fabric ~sender ~group:1 ~header in
      Alcotest.(check int) "trace fires no hook" 0 !fired;
      let report = Fabric.inject fabric ~sender ~group:1 ~header ~payload:100 in
      Alcotest.(check int) "inject fires both hooks"
        (report.Fabric.transmissions + 1) !fired;
      let host_hops =
        List.filter_map
          (fun h ->
            match h.Fabric.hop_to with
            | Fabric.Host_node host -> Some host
            | Fabric.Leaf_node _ | Fabric.Spine_node _ | Fabric.Core_node _ -> None)
          hops
        |> List.sort compare
      in
      Alcotest.(check (list int)) "host-bound hops = delivered"
        (List.concat_map (fun (h, n) -> List.init n (fun _ -> h)) report.Fabric.delivered)
        host_hops)
    fig3_members

(* Hops are built only when observed: tracing the packet allocates at least
   a hop's record and two nodes' worth more per transmission than sending
   it with no hook attached. *)
let test_hops_only_when_observed () =
  let _, enc, fabric = setup topo fig3_members in
  let header = Encoding.header_for_sender enc ~sender:0 in
  let wire = Header_codec.to_wire topo header in
  let words f = (Allocs.probe ~warmup:8 ~events:256 (fun _ -> f ())).Allocs.per_event in
  let report = Fabric.inject_wire fabric ~sender:0 ~group:1 ~wire ~payload:100 in
  let sent =
    words (fun () -> ignore (Fabric.inject_wire fabric ~sender:0 ~group:1 ~wire ~payload:100))
  in
  let traced = words (fun () -> ignore (Fabric.trace fabric ~sender:0 ~group:1 ~header)) in
  let per_tx = (traced -. sent) /. float_of_int report.Fabric.transmissions in
  if per_tx < 7.0 then
    Alcotest.failf "trace %.0f words, inject_wire %.0f: %.1f per transmission < 7" traced
      sent per_tx

(* [deliveries_correct] merges two sorted lists; it must agree with one
   association lookup per member, on reports that miss members, repeat
   copies and reach non-members. *)
let prop_deliveries_correct_reference =
  let hosts = Topology.num_hosts topo in
  QCheck.Test.make ~name:"deliveries_correct = per-member lookup" ~count:500
    QCheck.(
      triple
        (list_of_size Gen.(int_range 1 12) (int_range 0 (hosts - 1)))
        (int_range 0 (hosts - 1))
        (list_of_size Gen.(int_range 0 16) (pair (int_range 0 (hosts - 1)) (int_range 1 2))))
    (fun (members, sender, copies) ->
      let tree = Tree.of_members topo members in
      let delivered = List.sort_uniq (fun (a, _) (b, _) -> compare a b) copies in
      let report = { Fabric.delivered; transmissions = 0; header_bytes = 0; lost = 0 } in
      let reference =
        List.for_all
          (fun h -> h = sender || List.assoc_opt h delivered = Some 1)
          (Tree.member_list tree)
      in
      Fabric.deliveries_correct report ~tree ~sender = reference)

let tests =
  tests
  @ [
      QCheck_alcotest.to_alcotest prop_deliveries_correct_reference;
      Alcotest.test_case "trace matches report" `Quick test_trace_matches_report;
      Alcotest.test_case "trace header monotone" `Quick test_trace_header_monotone;
      Alcotest.test_case "trace fires no hook" `Quick test_trace_fires_no_hook;
      Alcotest.test_case "hops built only when observed" `Quick
        test_hops_only_when_observed;
    ]

(* Golden digest over [Fabric.inject]: seeded random headers (from the codec
   property generator), senders, s-rules, failed spines/cores/links and
   legacy switches, each packet's full report and its [Fabric.trace]
   hashed. The digest was recorded against the per-switch re-encoding
   forwarding loop, when the report still carried the trace; any change to
   forwarding, drops, byte accounting, trace order or telemetry shows up
   here as a different hash. *)
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
    (Fabric.trace fabric ~sender ~group ~header);
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

(* {1 The walk against a parser oracle}

   A scenario is a golden-generator header, a sender, group tables and
   failures, recorded here as well as installed in a fabric. The reference
   walk forwards on [Header_codec.decode]'s rules, as the fabric did before
   it read fields in place: each switch takes the first decoded rule naming
   it, then its group table, then the default; a hop carries the header
   bits [Prule.remaining_bits_after] its layer, rounded up. *)

type scenario = {
  sc_topo : Topology.t;
  sc_header : Prule.header;
  sc_sender : int;
  sc_group : int;
  sc_leaf_srules : (int * Bitmap.t) list;  (* one entry per leaf *)
  sc_pod_srules : (int * Bitmap.t) list;  (* one entry per pod *)
  sc_failed_spines : int list;
  sc_failed_cores : int list;
  sc_failed_links : (int * int) list;  (* (leaf, plane) *)
  sc_legacy_leaves : int list;
  sc_legacy_spines : int list;
}

(* The last entry per key, as [Hashtbl.replace] would keep it. *)
let last_per_key entries =
  List.fold_left (fun acc (k, v) -> (k, v) :: List.remove_assoc k acc) [] entries

let gen_scenario =
  let open QCheck.Gen in
  int_range 0 (Array.length Test_codec.golden_topos - 1) >>= fun ti ->
  let t = Test_codec.golden_topos.(ti) in
  let pick n = int_range 0 (n - 1) in
  let bitmap width =
    list_size (int_range 0 (min width 6)) (int_range 0 (width - 1)) >|= Bitmap.of_list width
  in
  let some n g = int_range 0 n >>= fun k -> list_repeat k g in
  Test_codec.gen_header t >>= fun header ->
  pick (Topology.num_hosts t) >>= fun sender ->
  int_range 1 4 >>= fun group ->
  some 4 (pair (pick (Topology.num_leaves t)) (bitmap (Topology.leaf_downstream_width t)))
  >>= fun leaf_srules ->
  some 3 (pair (pick t.Topology.pods) (bitmap (Topology.spine_downstream_width t)))
  >>= fun pod_srules ->
  some 2 (pick (Topology.num_spines t)) >>= fun failed_spines ->
  (if Topology.num_cores t > 0 then some 2 (pick (Topology.num_cores t)) else return [])
  >>= fun failed_cores ->
  some 3 (pair (pick (Topology.num_leaves t)) (pick t.Topology.spines_per_pod))
  >>= fun failed_links ->
  some 2 (pick (Topology.num_leaves t)) >>= fun legacy_leaves ->
  some 1 (pick (Topology.num_spines t)) >>= fun legacy_spines ->
  return
    {
      sc_topo = t;
      sc_header = header;
      sc_sender = sender;
      sc_group = group;
      sc_leaf_srules = last_per_key leaf_srules;
      sc_pod_srules = last_per_key pod_srules;
      sc_failed_spines = failed_spines;
      sc_failed_cores = failed_cores;
      sc_failed_links = failed_links;
      sc_legacy_leaves = legacy_leaves;
      sc_legacy_spines = legacy_spines;
    }

(* The scenario with the sender's port cleared wherever a leaf could
   forward to it: its upstream leaf rule, every downstream leaf rule and
   default, and every leaf group-table entry. Nothing then names the
   sender. *)
let without_sender sc =
  let t = sc.sc_topo in
  let port = Topology.host_port_on_leaf t sc.sc_sender in
  let clear bm =
    let c = Bitmap.copy bm in
    Bitmap.clear c port;
    c
  in
  let h = sc.sc_header in
  let d = h.Prule.downstream in
  {
    sc with
    sc_header =
      {
        h with
        Prule.u_leaf = { h.Prule.u_leaf with Prule.down = clear h.Prule.u_leaf.Prule.down };
        downstream =
          Prule.down t ~d_spine:d.Prule.d_spine ~d_spine_default:d.Prule.d_spine_default
            ~d_leaf:(List.map (fun r -> { r with Prule.bitmap = clear r.Prule.bitmap }) d.Prule.d_leaf)
            ~d_leaf_default:(Option.map clear d.Prule.d_leaf_default);
      };
    sc_leaf_srules = List.map (fun (l, bm) -> (l, clear bm)) sc.sc_leaf_srules;
  }

let fabric_of sc =
  let f = Fabric.create sc.sc_topo in
  let group = sc.sc_group in
  List.iter (fun (leaf, bm) -> Fabric.install_leaf_srule f ~leaf ~group bm) sc.sc_leaf_srules;
  List.iter (fun (pod, bm) -> Fabric.install_pod_srule f ~pod ~group bm) sc.sc_pod_srules;
  List.iter (Fabric.fail_spine f) sc.sc_failed_spines;
  List.iter (Fabric.fail_core f) sc.sc_failed_cores;
  List.iter (fun (leaf, plane) -> Fabric.fail_link f ~leaf ~plane) sc.sc_failed_links;
  List.iter (fun l -> Fabric.set_leaf_legacy f l true) sc.sc_legacy_leaves;
  List.iter (fun s -> Fabric.set_spine_legacy f s true) sc.sc_legacy_spines;
  f

let reference_walk sc =
  let t = sc.sc_topo in
  let bytes = Header_codec.encode t sc.sc_header in
  let h = Header_codec.decode t bytes in
  let d = h.Prule.downstream in
  let spp = t.Topology.spines_per_pod and cpp = t.Topology.cores_per_plane in
  let after layer = (Prule.remaining_bits_after t h layer + 7) / 8 in
  let tx = ref 0 and hb = ref 0 and lost = ref 0 and got = ref [] in
  let hop b =
    incr tx;
    hb := !hb + b
  in
  let lose () = incr lost in
  let ports bm f = List.iter f (Bitmap.to_list bm) in
  let hash = Ecmp.flow_hash ~group:sc.sc_group ~sender:sc.sc_sender in
  let link_ok leaf plane = not (List.mem (leaf, plane) sc.sc_failed_links) in
  let spine_up s = not (List.mem s sc.sc_failed_spines) in
  let downstream ~legacy ~table rules default id f =
    let from_table () = Option.iter (fun bm -> ports bm f) table in
    if legacy then from_table ()
    else
      match List.find_opt (fun (r : Prule.prule) -> List.mem id r.Prule.switches) rules with
      | Some r -> ports r.Prule.bitmap f
      | None ->
          if Option.is_some table then from_table ()
          else Option.iter (fun bm -> ports bm f) default
  in
  let deliver leaf port =
    hop 0;
    got := ((leaf * t.Topology.hosts_per_leaf) + port) :: !got
  in
  let at_leaf_down leaf =
    downstream
      ~legacy:(List.mem leaf sc.sc_legacy_leaves)
      ~table:(List.assoc_opt leaf sc.sc_leaf_srules)
      d.Prule.d_leaf d.Prule.d_leaf_default leaf (deliver leaf)
  in
  let spine_to_leaf s port =
    let leaf = (s / spp * t.Topology.leaves_per_pod) + port in
    hop (after `D_spine);
    if link_ok leaf (s mod spp) then at_leaf_down leaf else lose ()
  in
  let at_spine_down s =
    downstream
      ~legacy:(List.mem s sc.sc_legacy_spines)
      ~table:(List.assoc_opt (s / spp) sc.sc_pod_srules)
      d.Prule.d_spine d.Prule.d_spine_default (s / spp) (spine_to_leaf s)
  in
  let to_core c =
    hop (after `U_spine);
    if List.mem c sc.sc_failed_cores then lose ()
    else
      Option.iter
        (fun bm ->
          ports bm (fun p ->
              let s' = (p * spp) + (c / cpp) in
              hop (after `Core);
              if spine_up s' then at_spine_down s' else lose ()))
        h.Prule.core
  in
  let at_spine_up s =
    if not (spine_up s) then lose ()
    else
      Option.iter
        (fun (u : Prule.uprule) ->
          ports u.Prule.down (spine_to_leaf s);
          let plane = s mod spp in
          if u.Prule.multipath then begin
            if cpp > 0 then to_core (Ecmp.core_choice t ~hash ~plane)
          end
          else ports u.Prule.up (fun p -> to_core ((plane * cpp) + p)))
        h.Prule.u_spine
  in
  let sl = Topology.leaf_of_host t sc.sc_sender in
  let first = Topology.pod_of_leaf t sl * spp in
  let to_spine s =
    hop (after `U_leaf);
    if link_ok sl (s mod spp) then at_spine_up s else lose ()
  in
  hop (Bytes.length bytes);
  ports h.Prule.u_leaf.Prule.down (deliver sl);
  if h.Prule.u_leaf.Prule.multipath then to_spine (first + Ecmp.spine_choice t ~hash)
  else ports h.Prule.u_leaf.Prule.up (fun p -> to_spine (first + p));
  let rec count = function
    | [] -> []
    | x :: rest ->
        let same, others = List.partition (( = ) x) rest in
        (x, 1 + List.length same) :: count others
  in
  {
    Fabric.delivered = count (List.sort compare !got);
    transmissions = !tx;
    header_bytes = !hb;
    lost = !lost;
  }

let pp_report ppf (r : Fabric.report) =
  Format.fprintf ppf "delivered [%s] tx %d hb %d lost %d"
    (String.concat "; " (List.map (fun (h, n) -> Printf.sprintf "%d:%d" h n) r.Fabric.delivered))
    r.Fabric.transmissions r.Fabric.header_bytes r.Fabric.lost

let check_against_reference sc =
  let fabric = fabric_of sc in
  let wire = Header_codec.to_wire sc.sc_topo sc.sc_header in
  let report =
    Fabric.inject_wire fabric ~sender:sc.sc_sender ~group:sc.sc_group ~wire ~payload:100
  in
  let reference = reference_walk sc in
  if report <> reference then
    QCheck.Test.fail_reportf "inject_wire: %a@.reference: %a" pp_report report pp_report
      reference;
  report

let prop_walk_reference =
  QCheck.Test.make ~name:"inject_wire = walk over the decoded rules" ~count:500
    (QCheck.make
       ~print:(fun sc ->
         Format.asprintf "sender %d group %d@.%a" sc.sc_sender sc.sc_group
           (Prule.pp sc.sc_topo) sc.sc_header)
       gen_scenario)
    (fun sc ->
      ignore (check_against_reference sc : Fabric.report);
      let report = check_against_reference (without_sender sc) in
      if List.mem_assoc sc.sc_sender report.Fabric.delivered then
        QCheck.Test.fail_reportf "the sender %d is delivered to" sc.sc_sender;
      true)

(* What a packet allocates is its report: a record, and a cons cell and
   a pair per distinct delivered host. At most 6 words per host plus a
   constant, on the running example, on the Facebook fabric and on a
   240-leaf fabric with a three-member group. [Allocs.probe] counts minor
   words, and an array over 256 words (one per leaf of the Facebook
   fabric) goes straight to the major heap, out of its sight: the 240-leaf
   case is the one a per-packet array sized by the fabric fails. *)
let test_inject_allocs () =
  let spread t n =
    let rand = Random.State.make [| 34 |] in
    List.sort_uniq compare
      (List.init n (fun _ -> Random.State.int rand (Topology.num_hosts t)))
  in
  List.iter
    (fun (name, t, members) ->
      let sender = List.hd members in
      let _, enc, fabric = setup t members in
      let wire = Header_codec.to_wire t (Encoding.header_for_sender enc ~sender) in
      let send () = Fabric.inject_wire fabric ~sender ~group:1 ~wire ~payload:100 in
      let hosts = List.length (send ()).Fabric.delivered in
      let words =
        (Allocs.probe ~warmup:8 ~events:256 (fun _ -> ignore (send () : Fabric.report)))
          .Allocs.per_event
      in
      let bound = (6.0 *. float_of_int hosts) +. 32.0 in
      if hosts = 0 || words > bound then
        Alcotest.failf "%s: %.1f words per packet for %d hosts (bound %.0f)" name words hosts
          bound)
    [
      ("running example", topo, fig3_members);
      ("facebook fabric", fabric_topo, spread fabric_topo 400);
      (let t =
         Topology.create ~pods:24 ~leaves_per_pod:10 ~spines_per_pod:2 ~hosts_per_leaf:8
           ~cores_per_plane:2
       in
       ("240-leaf fabric", t, [ 0; 85; 1900 ]));
    ]

let tests =
  tests
  @ [
      QCheck_alcotest.to_alcotest prop_walk_reference;
      Alcotest.test_case "inject allocates its report" `Quick test_inject_allocs;
    ]
