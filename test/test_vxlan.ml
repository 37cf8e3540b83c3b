let sample =
  {
    Vxlan.src_mac = 0x020000000123;
    dst_mac = 0x01005E0000AA;
    src_ip = 0x0A000001l;
    dst_ip = 0xE00000FFl;
    src_port = 50000;
    vni = 0xABCDE;
  }

let test_overhead_constant () =
  Alcotest.(check int) "matches the traffic model's constant"
    Traffic.vxlan_encap_bytes Vxlan.overhead_bytes;
  Alcotest.(check int) "50 bytes" 50 Vxlan.overhead_bytes

let test_roundtrip () =
  let inner = Bytes.of_string "elmo header + payload" in
  let packet = Vxlan.encode sample ~inner in
  Alcotest.(check int) "size" (50 + Bytes.length inner) (Bytes.length packet);
  match Vxlan.decode packet with
  | Ok (t, inner') ->
      Alcotest.(check bool) "outer fields" true (t = sample);
      Alcotest.(check bytes) "inner preserved" inner inner'
  | Error e -> Alcotest.fail e

let test_empty_inner () =
  match Vxlan.decode (Vxlan.encode sample ~inner:Bytes.empty) with
  | Ok (t, inner) ->
      Alcotest.(check int) "vni" sample.Vxlan.vni t.Vxlan.vni;
      Alcotest.(check int) "empty inner" 0 (Bytes.length inner)
  | Error e -> Alcotest.fail e

let test_checksum_detects_corruption () =
  let packet = Vxlan.encode sample ~inner:(Bytes.of_string "x") in
  (* Flip a bit in the IP destination address. *)
  Bytes.set packet 31 (Char.chr (Char.code (Bytes.get packet 31) lxor 1));
  match Vxlan.decode packet with
  | Error "bad IPv4 header checksum" -> ()
  | Error e -> Alcotest.fail ("unexpected error: " ^ e)
  | Ok _ -> Alcotest.fail "corruption not detected"

let test_rejects_non_vxlan () =
  Alcotest.(check bool) "short packet" true
    (Vxlan.decode (Bytes.make 10 'x') = Error "packet shorter than outer stack");
  let packet = Vxlan.encode sample ~inner:Bytes.empty in
  let bad_ethertype = Bytes.copy packet in
  Bytes.set bad_ethertype 12 '\x86';
  Alcotest.(check bool) "wrong ethertype" true
    (Vxlan.decode bad_ethertype = Error "not IPv4")

let test_encode_validation () =
  Alcotest.check_raises "vni too large"
    (Invalid_argument "Vxlan.encode: vni out of range") (fun () ->
      ignore (Vxlan.encode { sample with Vxlan.vni = 1 lsl 24 } ~inner:Bytes.empty))

let test_hypervisor_vxlan_path () =
  let topo = Topology.running_example () in
  let fabric = Fabric.create topo in
  let tree = Tree.of_members topo [ 0; 9; 42 ] in
  let srules = Srule_state.create topo ~fmax:10 in
  let enc = Encoding.encode Params.default srules tree in
  let sender_hv = Hypervisor.create fabric ~host:0 in
  Hypervisor.install_sender sender_hv ~group:33
    (Encoding.header_for_sender enc ~sender:0);
  (* Loopback: the sending host is also a receiver with two member VMs. *)
  Hypervisor.install_receiver sender_hv ~group:33 ~vms:2;
  let payload = Bytes.of_string "hello-multicast" in
  match Hypervisor.encap_vxlan sender_hv ~group:33 ~payload with
  | None -> Alcotest.fail "expected a packet"
  | Some packet -> (
      Alcotest.(check bool) "carries the full outer stack" true
        (Bytes.length packet > 50 + Bytes.length payload);
      match Hypervisor.decap_vxlan sender_hv packet with
      | Some (group, vms, payload') ->
          Alcotest.(check int) "group from VNI" 33 group;
          Alcotest.(check int) "local fan-out" 2 vms;
          Alcotest.(check bytes) "payload back" payload payload'
      | None -> Alcotest.fail "expected decap to succeed")

let test_decap_discards_unknown_group () =
  let topo = Topology.running_example () in
  let fabric = Fabric.create topo in
  let hv = Hypervisor.create fabric ~host:5 in
  let packet = Vxlan.encode sample ~inner:(Bytes.of_string "zz") in
  Alcotest.(check bool) "no receiver rule -> discard" true
    (Hypervisor.decap_vxlan hv packet = None)

(* The receiver strips the header the packet carries, whatever rules it
   holds itself: none at all, or a sender rule for the same group whose
   header has a different size (no upstream spine rule: a single-leaf
   view of the group). A packet cut inside the header is discarded. *)
let test_decap_strips_carried_header () =
  let topo = Topology.running_example () in
  let fabric = Fabric.create topo in
  let encode members =
    let srules = Srule_state.create topo ~fmax:10 in
    Encoding.encode Params.default srules (Tree.of_members topo members)
  in
  let header = Encoding.header_for_sender (encode [ 0; 9; 42 ]) ~sender:0 in
  let sender = Hypervisor.create fabric ~host:0 in
  Hypervisor.install_sender sender ~group:33 header;
  let plain = Hypervisor.create fabric ~host:42 in
  Hypervisor.install_receiver plain ~group:33 ~vms:1;
  let other_size = Hypervisor.create fabric ~host:9 in
  Hypervisor.install_receiver other_size ~group:33 ~vms:3;
  let own = Encoding.header_for_sender (encode [ 8; 9 ]) ~sender:9 in
  Hypervisor.install_sender other_size ~group:33 own;
  Alcotest.(check bool) "receiver's own header has another size" true
    (Header_codec.encoded_size topo own <> Header_codec.encoded_size topo header
    && own.Prule.u_spine = None && header.Prule.u_spine <> None);
  let payload = Bytes.of_string "payload across leaves" in
  let packet = Option.get (Hypervisor.encap_vxlan sender ~group:33 ~payload) in
  List.iter
    (fun (name, hv, vms) ->
      match Hypervisor.decap_vxlan hv packet with
      | Some (group, vms', payload') ->
          Alcotest.(check int) (name ^ ": group") 33 group;
          Alcotest.(check int) (name ^ ": fan-out") vms vms';
          Alcotest.(check bytes) (name ^ ": payload") payload payload'
      | None -> Alcotest.failf "%s: expected decap to succeed" name)
    [ ("no sender rule", plain, 1); ("own header of another size", other_size, 3) ];
  let cut = Vxlan.encode { sample with Vxlan.vni = 33 } ~inner:(Bytes.make 1 '\255') in
  Alcotest.(check bool) "header cut short -> discard" true
    (Hypervisor.decap_vxlan plain cut = None)

let prop_roundtrip =
  QCheck.Test.make ~name:"vxlan roundtrips arbitrary fields and payloads" ~count:300
    QCheck.(
      quad (int_bound Vxlan.max_vni) (int_bound 0xFFFF)
        (string_of_size Gen.(int_range 0 100))
        (pair (int_bound 0xFFFFFF) (int_bound 0xFFFFFF)))
    (fun (vni, src_port, payload, (ip_a, ip_b)) ->
      let t =
        {
          Vxlan.src_mac = 0x020000000000 lor ip_a;
          dst_mac = 0x01005E000000 lor ip_b;
          src_ip = Int32.of_int ip_a;
          dst_ip = Int32.of_int ip_b;
          src_port;
          vni;
        }
      in
      let inner = Bytes.of_string payload in
      match Vxlan.decode (Vxlan.encode t ~inner) with
      | Ok (t', inner') -> t' = t && Bytes.equal inner inner'
      | Error _ -> false)

let tests =
  [
    Alcotest.test_case "overhead constant" `Quick test_overhead_constant;
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "empty inner" `Quick test_empty_inner;
    Alcotest.test_case "checksum detects corruption" `Quick
      test_checksum_detects_corruption;
    Alcotest.test_case "rejects non-vxlan" `Quick test_rejects_non_vxlan;
    Alcotest.test_case "encode validation" `Quick test_encode_validation;
    Alcotest.test_case "hypervisor vxlan path" `Quick test_hypervisor_vxlan_path;
    Alcotest.test_case "decap discards unknown group" `Quick
      test_decap_discards_unknown_group;
    Alcotest.test_case "decap strips the carried header" `Quick
      test_decap_strips_carried_header;
    QCheck_alcotest.to_alcotest prop_roundtrip;
  ]
