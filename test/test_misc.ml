(* Coverage for small public utilities: pretty-printers, update-set algebra,
   the int-keyed list lookups, and multi-datacenter fan-out beyond two
   sites. *)

let topo = Topology.running_example ()

let test_update_algebra () =
  let a = { Controller.hypervisors = [ 3; 1 ]; leaves = [ 5 ]; pods = [ 0 ] } in
  let b = { Controller.hypervisors = [ 1; 2 ]; leaves = []; pods = [ 0; 2 ] } in
  let m = Controller.merge_updates a b in
  Alcotest.(check (list int)) "hypervisors merged sorted" [ 1; 2; 3 ]
    m.Controller.hypervisors;
  Alcotest.(check (list int)) "pods deduplicated" [ 0; 2 ] m.Controller.pods;
  let m0 = Controller.merge_updates Controller.no_updates a in
  Alcotest.(check (list int)) "identity" [ 1; 3 ] m0.Controller.hypervisors;
  (* A pod update touches every physical spine of the pod. *)
  Alcotest.(check int) "spine update count"
    (2 * topo.Topology.spines_per_pod)
    (Controller.spine_update_count topo m)

let test_pretty_printers () =
  let tree = Tree.of_members topo [ 0; 1; 42 ] in
  let srules = Srule_state.create topo ~fmax:10 in
  let enc = Encoding.encode Params.default srules tree in
  let header = Encoding.header_for_sender enc ~sender:0 in
  let rendered = Format.asprintf "%a" (Prule.pp topo) header in
  Alcotest.(check bool) "header pp shows sections" true
    (String.length rendered > 40
    && Astring.String.is_infix ~affix:"u-leaf" rendered
    && Astring.String.is_infix ~affix:"d-leaf" rendered);
  let topo_s = Format.asprintf "%a" Topology.pp topo in
  Alcotest.(check bool) "topology pp" true
    (Astring.String.is_infix ~affix:"hosts=64" topo_s);
  let params_s = Format.asprintf "%a" Params.pp Params.default in
  Alcotest.(check bool) "params pp shows budget" true
    (Astring.String.is_infix ~affix:"budget 325B" params_s);
  let fabric = Fabric.create topo in
  Fabric.install_encoding fabric ~group:1 enc;
  let hops = Fabric.trace fabric ~sender:0 ~group:1 ~header in
  let trace_s = Format.asprintf "%a" Fabric.pp_trace hops in
  Alcotest.(check bool) "trace pp" true
    (Astring.String.is_infix ~affix:"host 0 -> leaf 0" trace_s)

let test_multidc_three_sites () =
  let dcs = List.init 3 (fun _ -> Fabric.create topo) in
  let m = Multidc.create Params.default dcs in
  Multidc.add_group m ~group:5
    [ (0, 0); (0, 9); (1, 3); (1, 20); (2, 7); (2, 60) ];
  let report = Multidc.send m ~group:5 ~sender_dc:1 ~sender:3 in
  Alcotest.(check int) "two WAN unicasts" 2 report.Multidc.wan_unicasts;
  Alcotest.(check bool) "all nine... six members exactly once" true
    (Multidc.deliveries_correct m ~group:5 ~sender_dc:1 ~sender:3 report)

let test_tree_validate_and_ecmp_ranges () =
  Topology.validate topo;
  let fabric_topo = Topology.facebook_fabric () in
  for g = 0 to 50 do
    let hash = Ecmp.flow_hash ~group:g ~sender:(g * 31) in
    Alcotest.(check bool) "hash non-negative" true (hash >= 0);
    let plane = Ecmp.spine_choice fabric_topo ~hash in
    Alcotest.(check bool) "plane in range" true
      (plane >= 0 && plane < fabric_topo.Topology.spines_per_pod);
    let core = Ecmp.core_choice fabric_topo ~hash ~plane in
    Alcotest.(check bool) "core in its plane" true
      (core / fabric_topo.Topology.cores_per_plane = plane)
  done;
  let tt = Topology.leaf_spine ~leaves:4 ~spines:2 ~hosts_per_leaf:4 in
  Alcotest.check_raises "no cores on two-tier"
    (Invalid_argument "Ecmp.core_choice: two-tier topology has no cores")
    (fun () -> ignore (Ecmp.core_choice tt ~hash:7 ~plane:0))

(* End-to-end CLI smoke: `elmo-sim verify` exits 0 on a healthy controller
   and nonzero with a gid/switch/port counterexample under --corrupt. *)
let test_sim_verify_cli () =
  (* Resolve the CLI next to this test binary so the check is independent
     of the working directory (`dune runtest` vs `dune exec`). *)
  let exe =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      "../bin/elmo_sim.exe"
  in
  let read_all file =
    let ic = open_in file in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let run args =
    let out = Filename.temp_file "elmo_sim_verify" ".out" in
    let code =
      Sys.command
        (Printf.sprintf "%s verify --example --groups 8 %s > %s 2>&1"
           (Filename.quote exe) args (Filename.quote out))
    in
    let text = read_all out in
    Sys.remove out;
    (code, text)
  in
  let ok, ok_out = run "" in
  if ok <> 0 then Alcotest.failf "healthy verify exited %d:\n%s" ok ok_out;
  Alcotest.(check bool) "reports group count" true
    (Astring.String.is_infix ~affix:"ok: 8 groups" ok_out);
  let bad, bad_out = run "--corrupt" in
  Alcotest.(check int) "corrupted run exits 1" 1 bad;
  Alcotest.(check bool) "prints a gid/switch/port counterexample" true
    (Astring.String.is_infix ~affix:"counterexample: 0/leaf" bad_out)

(* [Int_list] is the stdlib's lookups at int keys. Keys and elements
   come from a range narrower than the lists are long, so lists repeat
   keys and probes miss about as often as they hit. *)
let prop_int_list_is_stdlib =
  let small = QCheck.int_range (-4) 8 in
  QCheck.Test.make ~name:"int helpers = stdlib" ~count:500
    QCheck.(pair small (list_of_size Gen.(int_range 0 12) (pair small small)))
    (fun (x, pairs) ->
      let keys = List.map fst pairs in
      let find f = match f x pairs with v -> Some v | exception Not_found -> None in
      Int_list.mem x keys = List.mem x keys
      && find Int_list.assoc = find List.assoc
      && Int_list.assoc_opt x pairs = List.assoc_opt x pairs
      && Int_list.mem_assoc x pairs = List.mem_assoc x pairs
      && Int_list.remove_assoc x pairs = List.remove_assoc x pairs)

(* [Int_array]'s binary searches against a scan, over any window of a
   sorted array with repeats, for values in and around it. *)
let prop_int_array_is_scan =
  QCheck.Test.make ~name:"int array searches = scan" ~count:500
    QCheck.(triple (list_of_size Gen.(int_range 0 12) (int_range 0 9)) (int_range (-1) 10) small_nat)
    (fun (l, x, cut) ->
      let a = Array.of_list (List.sort compare l) in
      let n = Array.length a in
      let lo = if n = 0 then 0 else cut mod (n + 1) in
      let hi = n - 1 in
      let window = List.filteri (fun i _ -> i >= lo) (Array.to_list a) in
      let rec first i = if i > hi || a.(i) >= x then i else first (i + 1) in
      Int_array.lower_bound a x ~lo ~hi = first lo
      &&
      match Int_array.search a x ~lo ~hi with
      | -1 -> not (List.mem x window)
      | i -> i >= lo && i <= hi && a.(i) = x)

(* [Pvec] against an array model: every version reads what a copy of the
   array would after the same writes, and a write leaves the versions
   before it as they were. Lengths reach three trie levels (over 1,024). *)
let prop_pvec_is_array =
  QCheck.Test.make ~name:"persistent vector = array copies" ~count:200
    QCheck.(
      pair (int_range 0 1100)
        (list_of_size Gen.(int_range 0 40) (pair small_nat small_nat)))
    (fun (n, writes) ->
      let model = Array.init n (fun i -> i) in
      let v = Pvec.of_array model in
      let versions, _ =
        List.fold_left
          (fun (acc, v) (i, x) ->
            if n = 0 then (acc, v)
            else
              let i = (i * 37) mod n in
              let prev = Array.copy (fst (List.hd acc)) in
              prev.(i) <- x;
              let v = Pvec.set v i x in
              ((prev, v) :: acc, v))
          ([ (Array.copy model, v) ], v)
          writes
      in
      let bad_index = try ignore (Pvec.get v n); false with Invalid_argument _ -> true in
      bad_index
      && List.for_all
           (fun (want, v) ->
             Pvec.length v = n
             && Pvec.to_array v = want
             && List.for_all (fun i -> Pvec.get v i = want.(i)) (List.init n Fun.id))
           versions)

let tests =
  [
    Alcotest.test_case "update-set algebra" `Quick test_update_algebra;
    Alcotest.test_case "pretty printers" `Quick test_pretty_printers;
    Alcotest.test_case "multi-DC with three sites" `Quick test_multidc_three_sites;
    Alcotest.test_case "validate and ECMP ranges" `Quick test_tree_validate_and_ecmp_ranges;
    Alcotest.test_case "elmo-sim verify CLI" `Quick test_sim_verify_cli;
    QCheck_alcotest.to_alcotest prop_int_list_is_stdlib;
    QCheck_alcotest.to_alcotest prop_int_array_is_scan;
    QCheck_alcotest.to_alcotest prop_pvec_is_array;
  ]
