(* PGM-style reliability layered over the simulated fabric (§7). *)

let topo = Topology.running_example ()
let h = topo.Topology.hosts_per_leaf
let members = [ 0; 1; (5 * h) + 2; (6 * h) + 4; (6 * h) + 5; (7 * h) + 7 ]

let session () =
  let tree = Tree.of_members topo members in
  let srules = Srule_state.create topo ~fmax:100 in
  let enc = Encoding.encode Params.default srules tree in
  let fabric = Fabric.create topo in
  Fabric.install_encoding fabric ~group:5 enc;
  (fabric, Reliable.create fabric ~group:5 ~sender:0 enc)

let test_lossless_stream () =
  let _, s = session () in
  for i = 0 to 9 do
    Alcotest.(check int) "sequence numbers increase" i (Reliable.broadcast s ~payload:64)
  done;
  Alcotest.(check bool) "complete without repair" true (Reliable.complete s);
  Alcotest.(check int) "no repairs needed" 0 (Reliable.repair_round s);
  List.iter
    (fun r -> Alcotest.(check int) "in-order prefix" 10 (Reliable.delivered_in_order s r))
    (Reliable.receivers s);
  let st = Reliable.stats s in
  Alcotest.(check int) "data sent" 10 st.Reliable.data_sent;
  Alcotest.(check int) "no naks" 0 st.Reliable.naks

let failing_spine ~group ~sender =
  let hash = Ecmp.flow_hash ~group ~sender in
  let plane = Ecmp.spine_choice topo ~hash in
  (Topology.pod_of_host topo sender * topo.Topology.spines_per_pod) + plane

let test_recovery_after_failure () =
  let fabric, s = session () in
  ignore (Reliable.broadcast s ~payload:64);
  ignore (Reliable.broadcast s ~payload:64);
  (* Fail the spine this flow rides: packets 2-4 are lost beyond the local
     leaf. *)
  let victim = failing_spine ~group:5 ~sender:0 in
  Fabric.fail_spine fabric victim;
  for _ = 1 to 3 do
    ignore (Reliable.broadcast s ~payload:64)
  done;
  Alcotest.(check bool) "gaps while failed" false (Reliable.complete s);
  (* Repairs cannot succeed while the path is down (same ECMP choice). *)
  Alcotest.(check bool) "repair fails during outage" false
    (Reliable.repair_until_complete ~max_rounds:2 s);
  (* After recovery, NAK/retransmit completes the stream. *)
  Fabric.recover_spine fabric victim;
  Alcotest.(check bool) "repair succeeds after recovery" true
    (Reliable.repair_until_complete s);
  List.iter
    (fun r -> Alcotest.(check int) "full prefix" 5 (Reliable.delivered_in_order s r))
    (Reliable.receivers s);
  let st = Reliable.stats s in
  Alcotest.(check bool) "repairs happened" true (st.Reliable.repairs_sent > 0);
  Alcotest.(check bool) "naks recorded" true (st.Reliable.naks > 0)

let test_duplicates_discarded () =
  let _, s = session () in
  ignore (Reliable.broadcast s ~payload:64);
  (* A spurious repair of an already-delivered sequence is deduplicated. *)
  ignore (Reliable.repair_round s);
  let before = (Reliable.stats s).Reliable.duplicates_discarded in
  Alcotest.(check int) "no repairs when complete" 0 (Reliable.repair_round s);
  Alcotest.(check int) "dedup counter stable" before
    (Reliable.stats s).Reliable.duplicates_discarded;
  List.iter
    (fun r -> Alcotest.(check int) "exactly-once" 1 (Reliable.delivered_in_order s r))
    (Reliable.receivers s)

let test_in_order_prefix_semantics () =
  let fabric, s = session () in
  let victim = failing_spine ~group:5 ~sender:0 in
  ignore (Reliable.broadcast s ~payload:64);
  Fabric.fail_spine fabric victim;
  ignore (Reliable.broadcast s ~payload:64);
  Fabric.recover_spine fabric victim;
  ignore (Reliable.broadcast s ~payload:64);
  (* Remote receivers hold 0 and 2 but not 1: the application prefix stops
     at 1 until repair. *)
  let remote = (5 * h) + 2 in
  Alcotest.(check int) "prefix blocked by gap" 1 (Reliable.delivered_in_order s remote);
  Alcotest.(check bool) "repair completes" true (Reliable.repair_until_complete s);
  Alcotest.(check int) "prefix resumes" 3 (Reliable.delivered_in_order s remote)

(* The same session, expressed symbolically over a hand-built view (no
   controller involved): healthy, the per-sender predicate subsumes every
   receiver endpoint; with the flow's spine down it must not — the witness
   names exactly the first remote receiver the repair protocol will have to
   fill in — and after recovery the predicate is pointer-identical to the
   healthy one again. *)
let view ?spine_ok () =
  let tree = Tree.of_members topo members in
  let srules = Srule_state.create topo ~fmax:100 in
  let enc = Encoding.encode Params.default srules tree in
  let g =
    {
      Installed_config.gid = 5;
      receivers = Array.of_list members;
      senders = [| 0 |];
      enc = Some enc;
      overrides = [];
    }
  in
  Installed_config.make ?spine_ok topo Params.default [ g ]

let test_symbolic_coverage_mirrors_outage () =
  let ctx = Pred.create_ctx () in
  let healthy = view () in
  let need = Verify.receiver_endpoints ctx healthy ~group:5 ~sender:0 in
  let healthy_pred =
    match Verify.compile_sender ctx healthy ~group:5 ~sender:0 with
    | None -> Alcotest.fail "healthy session must have a multicast path"
    | Some d -> d
  in
  Alcotest.(check bool) "healthy: covers every receiver" true
    (Verify.subsumes ~big:healthy_pred ~small:need);
  Alcotest.(check bool) "healthy: compile matches intent" true
    (Verify.equiv
       (Verify.compile ctx healthy ~group:5)
       (Verify.intent ctx healthy ~group:5));
  (* Fail the spine this flow rides — the view's health, not the fabric's. *)
  let victim = failing_spine ~group:5 ~sender:0 in
  let spine_ok = Array.make (Topology.num_spines topo) true in
  spine_ok.(victim) <- false;
  let failed = view ~spine_ok () in
  (match Verify.compile_sender ctx failed ~group:5 ~sender:0 with
  | None -> Alcotest.fail "outage is a lossy path, not a unicast degrade"
  | Some d -> (
      match Verify.check_subsumes ~group:5 ~big:d ~small:need with
      | Ok () -> Alcotest.fail "a dead spine must lose the remote receivers"
      | Error w ->
          (* first receiver beyond the sender's leaf, in canonical order *)
          Alcotest.(check string) "outage witness" "5/leaf5/2"
            (Format.asprintf "%a" Verify.pp_witness w)));
  (* Recovery: a fresh all-healthy view compiles to the same predicate —
     pointer-identical, since both live in one universe. *)
  let recovered = view () in
  match Verify.compile_sender ctx recovered ~group:5 ~sender:0 with
  | None -> Alcotest.fail "recovered session must have a multicast path"
  | Some d ->
      Alcotest.(check bool) "recovered == healthy (hash-consed)" true
        (Verify.equiv healthy_pred d)

let test_non_receiver_raises () =
  let _, s = session () in
  Alcotest.check_raises "sender is not a receiver" Not_found (fun () ->
      ignore (Reliable.delivered_in_order s 0));
  Alcotest.check_raises "outsider" Not_found (fun () ->
      ignore (Reliable.delivered_in_order s 3))

let tests =
  [
    Alcotest.test_case "lossless stream" `Quick test_lossless_stream;
    Alcotest.test_case "recovery after failure" `Quick test_recovery_after_failure;
    Alcotest.test_case "duplicates discarded" `Quick test_duplicates_discarded;
    Alcotest.test_case "in-order prefix" `Quick test_in_order_prefix_semantics;
    Alcotest.test_case "symbolic coverage mirrors the outage" `Quick
      test_symbolic_coverage_mirrors_outage;
    Alcotest.test_case "non-receiver raises" `Quick test_non_receiver_raises;
  ]
