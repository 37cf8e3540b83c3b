let topo = Topology.running_example ()
let h = topo.Topology.hosts_per_leaf

let make ?fabric () =
  match fabric with
  | None -> (Controller.create topo Params.default, Fabric.create topo)
  | Some fabric ->
      let hooks = Fabric.controller_hooks fabric in
      (Controller.create ~fabric_hooks:hooks topo Params.default, fabric)

let members_both hosts = List.map (fun x -> (x, Controller.Both)) hosts

let fig3_hosts = [ 0; 1; (5 * h) + 2; (6 * h) + 4; (6 * h) + 5; (7 * h) + 7 ]

let send_ok ctrl fabric ~group ~sender =
  match Controller.header ctrl ~group ~sender with
  | None -> false
  | Some header ->
      let enc = Option.get (Controller.encoding ctrl ~group) in
      let report = Fabric.inject fabric ~sender ~group ~header ~payload:64 in
      Fabric.deliveries_correct report ~tree:enc.Encoding.tree ~sender
      && report.Fabric.lost = 0

let test_add_group_basic () =
  let ctrl, fabric = make () in
  let u = Controller.add_group ctrl ~group:1 (members_both fig3_hosts) in
  Alcotest.(check (list int)) "all member hypervisors touched"
    (List.sort compare fig3_hosts) u.Controller.hypervisors;
  Alcotest.(check int) "one group" 1 (Controller.group_count ctrl);
  Alcotest.(check bool) "delivers" true (send_ok ctrl fabric ~group:1 ~sender:0)

let test_add_duplicate_group () =
  let ctrl, _ = make () in
  ignore (Controller.add_group ctrl ~group:1 (members_both [ 0; 1 ]));
  Alcotest.check_raises "duplicate group"
    (Invalid_argument "Controller.add_group: group exists") (fun () ->
      ignore (Controller.add_group ctrl ~group:1 (members_both [ 2 ])));
  Alcotest.check_raises "duplicate host"
    (Invalid_argument "Controller.add_group: duplicate member host") (fun () ->
      ignore (Controller.add_group ctrl ~group:2 (members_both [ 3; 3 ])))

let test_sender_only_group_has_no_tree () =
  let ctrl, _ = make () in
  ignore (Controller.add_group ctrl ~group:1 [ (0, Controller.Sender) ]);
  Alcotest.(check bool) "no encoding" true (Controller.encoding ctrl ~group:1 = None);
  Alcotest.(check bool) "no header (degrade to unicast)" true
    (Controller.header ctrl ~group:1 ~sender:0 = None)

let test_sender_join_touches_only_itself () =
  let ctrl, _ = make () in
  ignore (Controller.add_group ctrl ~group:1 (members_both fig3_hosts));
  let before = Option.get (Controller.encoding ctrl ~group:1) in
  let u = Controller.join ctrl ~group:1 ~host:3 ~role:Controller.Sender in
  Alcotest.(check (list int)) "only the new sender" [ 3 ] u.Controller.hypervisors;
  Alcotest.(check (list int)) "no leaf updates" [] u.Controller.leaves;
  Alcotest.(check (list int)) "no pod updates" [] u.Controller.pods;
  let after = Option.get (Controller.encoding ctrl ~group:1) in
  Alcotest.(check bool) "encoding untouched" true (before == after)

let test_receiver_join_updates_senders () =
  let ctrl, fabric = make () in
  ignore (Controller.add_group ctrl ~group:1 (members_both fig3_hosts));
  (* Join a receiver on a brand-new leaf (L2, pod 1): the tree's pod set
     changes, so every sender's core rule changes. *)
  let newcomer = (2 * h) + 3 in
  let u = Controller.join ctrl ~group:1 ~host:newcomer ~role:Controller.Receiver in
  Alcotest.(check (list int)) "all senders + newcomer"
    (List.sort compare (newcomer :: fig3_hosts))
    u.Controller.hypervisors;
  Alcotest.(check bool) "still delivers" true (send_ok ctrl fabric ~group:1 ~sender:0);
  let enc = Option.get (Controller.encoding ctrl ~group:1) in
  Alcotest.(check bool) "newcomer in tree" true
    (Tree.mem_host enc.Encoding.tree newcomer)

let test_local_join_updates_colocated_senders_only () =
  (* Two senders in different pods; a receiver joins under the first
     sender's leaf. The downstream leaf rules change (common part), so both
     senders update — but if the common part is unchanged the update set is
     local. We test the tree-locality path via a sender-only host. *)
  let ctrl, _ = make () in
  ignore
    (Controller.add_group ctrl ~group:1
       [ (0, Controller.Both); ((5 * h) + 2, Controller.Both); (1, Controller.Receiver) ]);
  let u = Controller.leave ctrl ~group:1 ~host:1 in
  (* Host 1's departure changes L0's bitmap: common d-leaf section changes,
     so both senders are updated, plus the leaver. *)
  Alcotest.(check (list int)) "both senders and leaver"
    (List.sort compare [ 0; 1; (5 * h) + 2 ])
    u.Controller.hypervisors

let test_leave_to_empty_group () =
  let ctrl, _ = make () in
  ignore (Controller.add_group ctrl ~group:1 (members_both [ 0; 1 ]));
  ignore (Controller.leave ctrl ~group:1 ~host:0);
  ignore (Controller.leave ctrl ~group:1 ~host:1);
  Alcotest.(check bool) "no encoding left" true (Controller.encoding ctrl ~group:1 = None);
  Alcotest.(check bool) "no members" true (Controller.members ctrl ~group:1 = [])

let test_leave_nonmember_raises () =
  let ctrl, _ = make () in
  ignore (Controller.add_group ctrl ~group:1 (members_both [ 0; 1 ]));
  Alcotest.check_raises "not a member" Not_found (fun () ->
      ignore (Controller.leave ctrl ~group:1 ~host:9));
  Alcotest.check_raises "unknown group" Not_found (fun () ->
      ignore (Controller.join ctrl ~group:99 ~host:0 ~role:Controller.Both))

let test_remove_group_releases_srules () =
  let params = Params.create ~hmax_leaf:1 ~hmax_spine:1 ~header_budget:None () in
  let ctrl = Controller.create topo params in
  ignore (Controller.add_group ctrl ~group:1 (members_both fig3_hosts));
  let st = Controller.srule_state ctrl in
  Alcotest.(check bool) "s-rules reserved" true (Srule_state.total_srules st > 0);
  let u = Controller.remove_group ctrl ~group:1 in
  Alcotest.(check bool) "leaf updates reported" true (u.Controller.leaves <> []);
  Alcotest.(check int) "all released" 0 (Srule_state.total_srules st);
  Alcotest.(check int) "gone" 0 (Controller.group_count ctrl)

let test_fabric_hooks_mirror_srules () =
  let params = Params.create ~hmax_leaf:1 ~hmax_spine:1 ~header_budget:None () in
  let fabric = Fabric.create topo in
  let hooks = Fabric.controller_hooks fabric in
  let ctrl = Controller.create ~fabric_hooks:hooks topo params in
  ignore (Controller.add_group ctrl ~group:1 (members_both fig3_hosts));
  Alcotest.(check bool) "delivers via s-rules" true
    (send_ok ctrl fabric ~group:1 ~sender:0);
  ignore (Controller.remove_group ctrl ~group:1);
  List.iter
    (fun l -> Alcotest.(check int) "fabric table cleared" 0 (Fabric.leaf_table_size fabric l))
    [ 0; 5; 6; 7 ]

(* {1 Failures} *)

let failing_spine_for ctrl fabric ~group ~sender =
  ignore ctrl;
  ignore fabric;
  let hash = Ecmp.flow_hash ~group ~sender in
  let plane = Ecmp.spine_choice topo ~hash in
  let pod = Topology.pod_of_host topo sender in
  (pod * topo.Topology.spines_per_pod) + plane

let test_spine_failure_and_recovery () =
  let fabric = Fabric.create topo in
  let ctrl, fabric = make ~fabric () in
  ignore (Controller.add_group ctrl ~group:1 (members_both fig3_hosts));
  let victim = failing_spine_for ctrl fabric ~group:1 ~sender:0 in
  Fabric.fail_spine fabric victim;
  (* Without controller action the flow loses packets. *)
  Alcotest.(check bool) "broken before controller" false
    (send_ok ctrl fabric ~group:1 ~sender:0);
  let report = Controller.fail_spine ctrl victim in
  Alcotest.(check bool) "some group affected" true (report.Controller.affected_groups >= 1);
  Alcotest.(check bool) "delivers after override" true
    (send_ok ctrl fabric ~group:1 ~sender:0);
  (* The override disabled multipath for the impacted sender. *)
  let hd = Option.get (Controller.header ctrl ~group:1 ~sender:0) in
  Alcotest.(check bool) "multipath off" false hd.Prule.u_leaf.Prule.multipath;
  Fabric.recover_spine fabric victim;
  let report = Controller.recover_spine ctrl victim in
  Alcotest.(check bool) "recovery touches the same group" true
    (report.Controller.affected_groups >= 1);
  let hd = Option.get (Controller.header ctrl ~group:1 ~sender:0) in
  Alcotest.(check bool) "multipath restored" true hd.Prule.u_leaf.Prule.multipath;
  Alcotest.(check bool) "still delivers" true (send_ok ctrl fabric ~group:1 ~sender:0)

let test_core_failure_and_recovery () =
  let fabric = Fabric.create topo in
  let ctrl, fabric = make ~fabric () in
  ignore (Controller.add_group ctrl ~group:1 (members_both fig3_hosts));
  let hash = Ecmp.flow_hash ~group:1 ~sender:0 in
  let plane = Ecmp.spine_choice topo ~hash in
  let victim_core = Ecmp.core_choice topo ~hash ~plane in
  Fabric.fail_core fabric victim_core;
  Alcotest.(check bool) "broken before controller" false
    (send_ok ctrl fabric ~group:1 ~sender:0);
  ignore (Controller.fail_core ctrl victim_core);
  Alcotest.(check bool) "delivers after override" true
    (send_ok ctrl fabric ~group:1 ~sender:0);
  Fabric.recover_core fabric victim_core;
  ignore (Controller.recover_core ctrl victim_core);
  Alcotest.(check bool) "delivers after recovery" true
    (send_ok ctrl fabric ~group:1 ~sender:0)

let test_unimpacted_flows_untouched () =
  let fabric = Fabric.create topo in
  let ctrl, fabric = make ~fabric () in
  ignore (Controller.add_group ctrl ~group:1 (members_both fig3_hosts));
  let victim = failing_spine_for ctrl fabric ~group:1 ~sender:0 in
  (* A spine in a pod with no senders of this flow's hash: pick the other
     spine of pod 0. *)
  let other = if victim mod 2 = 0 then victim + 1 else victim - 1 in
  Fabric.fail_spine fabric other;
  ignore (Controller.fail_spine ctrl other);
  let hd = Option.get (Controller.header ctrl ~group:1 ~sender:0) in
  Alcotest.(check bool) "sender 0's flow keeps multipath" true
    hd.Prule.u_leaf.Prule.multipath;
  Alcotest.(check bool) "still delivers" true (send_ok ctrl fabric ~group:1 ~sender:0)

let test_all_pod_spines_dead_degrades_to_unicast () =
  let fabric = Fabric.create topo in
  let ctrl, fabric = make ~fabric () in
  ignore (Controller.add_group ctrl ~group:1 (members_both fig3_hosts));
  (* A second group that avoids pod 0 entirely. *)
  let pod23 = [ (5 * h) + 2; (6 * h) + 4; (7 * h) + 7 ] in
  ignore (Controller.add_group ctrl ~group:2 (members_both pod23));
  List.iter
    (fun s ->
      Fabric.fail_spine fabric s;
      ignore (Controller.fail_spine ctrl s))
    (Topology.spines_of_pod topo 0);
  Alcotest.(check bool) "sender in pod 0 degrades to unicast" true
    (Controller.header ctrl ~group:1 ~sender:0 = None);
  (* Pod 0 is unreachable, so cross-pod senders of group 1 degrade too. *)
  Alcotest.(check bool) "pod-2 sender of group 1 degrades" true
    (Controller.header ctrl ~group:1 ~sender:((5 * h) + 2) = None);
  (* But the group that never touches pod 0 keeps working. *)
  Alcotest.(check bool) "pod-2/3 group unaffected" true
    (send_ok ctrl fabric ~group:2 ~sender:((5 * h) + 2))

let test_churn_under_failure_keeps_overrides_fresh () =
  let fabric = Fabric.create topo in
  let ctrl, fabric = make ~fabric () in
  ignore (Controller.add_group ctrl ~group:1 (members_both fig3_hosts));
  let victim = failing_spine_for ctrl fabric ~group:1 ~sender:0 in
  Fabric.fail_spine fabric victim;
  ignore (Controller.fail_spine ctrl victim);
  (* Membership changes during the failure: overrides must be recomputed
     and delivery must keep working. *)
  ignore (Controller.join ctrl ~group:1 ~host:((3 * h) + 1) ~role:Controller.Receiver);
  Alcotest.(check bool) "delivers to grown group under failure" true
    (send_ok ctrl fabric ~group:1 ~sender:0)

(* A sender that joins while a spine is down gets the header it would get
   had it been in the group when the spine failed, and its join reports
   it. *)
let test_sender_join_under_failure () =
  let members =
    List.map
      (fun x -> (x, Controller.Receiver))
      [ 0; h; 3 * h; (5 * h) + 1 ]
  in
  let sender = 1 in
  let header ctrl =
    Option.map (Header_codec.encode topo) (Controller.header ctrl ~group:1 ~sender)
  in
  let overridden = ref 0 in
  for spine = 0 to Topology.num_spines topo - 1 do
    let late = Controller.create topo Params.default in
    ignore (Controller.add_group late ~group:1 members);
    ignore (Controller.fail_spine late spine);
    let u = Controller.join late ~group:1 ~host:sender ~role:Controller.Sender in
    Alcotest.(check (list int)) "the join updates the sender" [ sender ]
      u.Controller.hypervisors;
    let early = Controller.create topo Params.default in
    ignore (Controller.fail_spine early spine);
    ignore
      (Controller.add_group early ~group:1 (members @ [ (sender, Controller.Sender) ]));
    Alcotest.(check (option bytes))
      (Printf.sprintf "spine %d down: the late sender's header" spine)
      (header early) (header late);
    let healthy = Controller.create topo Params.default in
    ignore
      (Controller.add_group healthy ~group:1 (members @ [ (sender, Controller.Sender) ]));
    if not (Option.equal Bytes.equal (header healthy) (header late)) then incr overridden
  done;
  Alcotest.(check bool) "some failure overrides the sender's path" true (!overridden > 0)

let tests =
  [
    Alcotest.test_case "add group" `Quick test_add_group_basic;
    Alcotest.test_case "duplicate add rejected" `Quick test_add_duplicate_group;
    Alcotest.test_case "sender-only group" `Quick test_sender_only_group_has_no_tree;
    Alcotest.test_case "sender join is local" `Quick test_sender_join_touches_only_itself;
    Alcotest.test_case "receiver join updates senders" `Quick
      test_receiver_join_updates_senders;
    Alcotest.test_case "leave updates senders" `Quick
      test_local_join_updates_colocated_senders_only;
    Alcotest.test_case "leave to empty group" `Quick test_leave_to_empty_group;
    Alcotest.test_case "leave non-member raises" `Quick test_leave_nonmember_raises;
    Alcotest.test_case "remove group releases s-rules" `Quick
      test_remove_group_releases_srules;
    Alcotest.test_case "fabric hooks mirror s-rules" `Quick test_fabric_hooks_mirror_srules;
    Alcotest.test_case "spine failure and recovery" `Quick test_spine_failure_and_recovery;
    Alcotest.test_case "core failure and recovery" `Quick test_core_failure_and_recovery;
    Alcotest.test_case "unimpacted flows untouched" `Quick test_unimpacted_flows_untouched;
    Alcotest.test_case "pod-wide spine failure degrades to unicast" `Quick
      test_all_pod_spines_dead_degrades_to_unicast;
    Alcotest.test_case "churn under failure" `Quick
      test_churn_under_failure_keeps_overrides_fresh;
    Alcotest.test_case "sender join under failure" `Quick test_sender_join_under_failure;
  ]

(* Model-based property: a random interleaving of join/leave operations
   against a plain membership map. After every operation the controller's
   member list matches the model, s-rule accounting matches the live
   encodings, and a packet from a random sender reaches every receiver. *)

let prop_random_operations =
  let gen =
    QCheck.Gen.(list_size (int_range 1 60) (pair (int_range 0 63) (int_range 0 5)))
  in
  let arb =
    QCheck.make
      ~print:(fun ops ->
        String.concat ";"
          (List.map (fun (h, k) -> Printf.sprintf "(%d,%d)" h k) ops))
      gen
  in
  QCheck.Test.make ~name:"random join/leave agrees with a model" ~count:60 arb
    (fun ops ->
      let fabric = Fabric.create topo in
      let ctrl, fabric = make ~fabric () in
      ignore (Controller.add_group ctrl ~group:1 []);
      let model = Hashtbl.create 16 in
      List.iter
        (fun (host, kind) ->
          match (Hashtbl.mem model host, kind) with
          | false, 0 ->
              ignore (Controller.join ctrl ~group:1 ~host ~role:Controller.Sender);
              Hashtbl.replace model host Controller.Sender
          | false, 1 ->
              ignore (Controller.join ctrl ~group:1 ~host ~role:Controller.Receiver);
              Hashtbl.replace model host Controller.Receiver
          | false, _ ->
              ignore (Controller.join ctrl ~group:1 ~host ~role:Controller.Both);
              Hashtbl.replace model host Controller.Both
          | true, (0 | 1 | 2) ->
              ignore (Controller.leave ctrl ~group:1 ~host);
              Hashtbl.remove model host
          | true, _ -> ())
        ops;
      let members = Controller.members ctrl ~group:1 in
      let model_ok =
        List.length members = Hashtbl.length model
        && List.for_all
             (fun (h, r) -> Hashtbl.find_opt model h = Some r)
             members
      in
      let receivers =
        List.filter_map
          (fun (h, r) ->
            match r with
            | Controller.Receiver | Controller.Both -> Some h
            | Controller.Sender -> None)
          members
      in
      let delivery_ok =
        match (Controller.encoding ctrl ~group:1, receivers) with
        | None, [] -> true
        | None, _ :: _ -> false
        | Some _, [] -> false
        | Some enc, sender :: _ -> (
            match Controller.header ctrl ~group:1 ~sender with
            | None -> false
            | Some header ->
                let report =
                  Fabric.inject fabric ~sender ~group:1 ~header ~payload:64
                in
                Fabric.deliveries_correct report ~tree:enc.Encoding.tree ~sender)
      in
      let srules_ok =
        let expected =
          match Controller.encoding ctrl ~group:1 with
          | Some enc -> Encoding.srule_entries enc
          | None -> 0
        in
        Srule_state.total_srules (Controller.srule_state ctrl) = expected
      in
      model_ok && delivery_ok && srules_ok)

let tests = tests @ [ QCheck_alcotest.to_alcotest prop_random_operations ]

(* {1 Link failures: where the set cover genuinely matters} *)

let link_setup () =
  let fabric = Fabric.create topo in
  let ctrl, fabric = make ~fabric () in
  ignore (Controller.add_group ctrl ~group:1 (members_both fig3_hosts));
  (ctrl, fabric)

let inject_current ctrl fabric ~group ~sender =
  match Controller.header ctrl ~group ~sender with
  | None -> None
  | Some header -> Some (Fabric.inject fabric ~sender ~group ~header ~payload:64)

let test_single_link_failure_single_plane () =
  let ctrl, fabric = link_setup () in
  (* Kill the link between L5 and its pod's plane-0 spine on both sides. *)
  Fabric.fail_link fabric ~leaf:5 ~plane:0;
  ignore (Controller.fail_link ctrl ~leaf:5 ~plane:0);
  (* Every sender must still reach every member exactly once: a single
     surviving plane (1) serves the whole tree. *)
  List.iter
    (fun sender ->
      match inject_current ctrl fabric ~group:1 ~sender with
      | None -> Alcotest.fail "unexpected unicast fallback"
      | Some report ->
          let enc = Option.get (Controller.encoding ctrl ~group:1) in
          Alcotest.(check bool)
            (Printf.sprintf "sender %d exactly-once" sender)
            true
            (Fabric.deliveries_correct report ~tree:enc.Encoding.tree ~sender
            && report.Fabric.lost = 0))
    fig3_hosts;
  (* Recovery restores multipath. *)
  Fabric.recover_link fabric ~leaf:5 ~plane:0;
  ignore (Controller.recover_link ctrl ~leaf:5 ~plane:0);
  let hd = Option.get (Controller.header ctrl ~group:1 ~sender:((5 * h) + 2)) in
  Alcotest.(check bool) "multipath restored" true hd.Prule.u_leaf.Prule.multipath

let test_disjoint_link_failures_need_set_cover () =
  let ctrl, fabric = link_setup () in
  (* L5 (pod 2) loses plane 0; L6 (pod 3) loses plane 1: no single plane
     serves both target pods from pod 0, so the controller must choose a
     multi-plane cover. *)
  List.iter
    (fun (leaf, plane) ->
      Fabric.fail_link fabric ~leaf ~plane;
      ignore (Controller.fail_link ctrl ~leaf ~plane))
    [ (5, 0); (6, 1) ];
  let hd = Option.get (Controller.header ctrl ~group:1 ~sender:0) in
  Alcotest.(check bool) "multipath disabled" false hd.Prule.u_leaf.Prule.multipath;
  Alcotest.(check int) "two upstream planes chosen" 2
    (Bitmap.popcount hd.Prule.u_leaf.Prule.up);
  match inject_current ctrl fabric ~group:1 ~sender:0 with
  | None -> Alcotest.fail "unexpected unicast fallback"
  | Some report ->
      (* Every member receives at least one copy; leaves reachable through
         both chosen planes may see duplicates, which the reliability layer
         deduplicates. *)
      List.iter
        (fun m ->
          if m <> 0 then
            Alcotest.(check bool)
              (Printf.sprintf "member %d reached" m)
              true
              (List.mem_assoc m report.Fabric.delivered))
        fig3_hosts;
      Alcotest.(check bool) "some copies died on the failed links" true
        (report.Fabric.lost > 0)

let test_leaf_isolated_degrades_to_unicast () =
  let ctrl, fabric = link_setup () in
  (* L5 loses both planes: pod 2's receiver is unreachable by any cover. *)
  List.iter
    (fun plane ->
      Fabric.fail_link fabric ~leaf:5 ~plane;
      ignore (Controller.fail_link ctrl ~leaf:5 ~plane))
    [ 0; 1 ];
  Alcotest.(check bool) "cross-pod sender degrades to unicast" true
    (Controller.header ctrl ~group:1 ~sender:0 = None)

let test_set_cover_duplicates_observable () =
  (* Leaves reachable through more than one chosen plane receive duplicate
     copies under a multi-plane cover — the price of union semantics, which
     the sequence-numbered transport above deduplicates. *)
  let ctrl, fabric = link_setup () in
  List.iter
    (fun (leaf, plane) ->
      Fabric.fail_link fabric ~leaf ~plane;
      ignore (Controller.fail_link ctrl ~leaf ~plane))
    [ (5, 0); (6, 1) ];
  match inject_current ctrl fabric ~group:1 ~sender:0 with
  | None -> Alcotest.fail "unexpected unicast fallback"
  | Some report ->
      let dup_hosts =
        List.filter (fun (_, copies) -> copies > 1) report.Fabric.delivered
      in
      Alcotest.(check bool) "duplicates do occur under multi-plane covers" true
        (dup_hosts <> [])

let test_link_fail_recover_idempotent () =
  let ctrl, fabric = link_setup () in
  let header () = Controller.header ctrl ~group:1 ~sender:0 in
  let baseline = header () in
  (* Double-fail is a no-op on top of a single fail... *)
  Fabric.fail_link fabric ~leaf:5 ~plane:0;
  ignore (Controller.fail_link ctrl ~leaf:5 ~plane:0);
  let failed_once = header () in
  Fabric.fail_link fabric ~leaf:5 ~plane:0;
  ignore (Controller.fail_link ctrl ~leaf:5 ~plane:0);
  Alcotest.(check bool) "double fail_link changes nothing" true
    (header () = failed_once);
  (* ...and so is double-recover: one recover restores the baseline header,
     a second leaves it untouched. *)
  Fabric.recover_link fabric ~leaf:5 ~plane:0;
  ignore (Controller.recover_link ctrl ~leaf:5 ~plane:0);
  Alcotest.(check bool) "recover restores the pre-failure header" true
    (header () = baseline);
  Fabric.recover_link fabric ~leaf:5 ~plane:0;
  ignore (Controller.recover_link ctrl ~leaf:5 ~plane:0);
  Alcotest.(check bool) "double recover_link changes nothing" true
    (header () = baseline);
  Alcotest.(check bool) "delivery intact after the fail/recover cycle" true
    (match inject_current ctrl fabric ~group:1 ~sender:0 with
    | None -> false
    | Some report ->
        List.for_all
          (fun m -> m = 0 || List.mem_assoc m report.Fabric.delivered)
          fig3_hosts)

let test_recover_link_reports_affected () =
  let ctrl, fabric = link_setup () in
  Fabric.fail_link fabric ~leaf:5 ~plane:0;
  let down = Controller.fail_link ctrl ~leaf:5 ~plane:0 in
  Fabric.recover_link fabric ~leaf:5 ~plane:0;
  let up = Controller.recover_link ctrl ~leaf:5 ~plane:0 in
  (* Recovery moves the same groups back onto the restored plane — it is a
     topology change with its own update fan-out, not a free undo. *)
  Alcotest.(check int) "recovery touches what the failure touched"
    down.Controller.affected_groups up.Controller.affected_groups

let tests =
  tests
  @ [
      Alcotest.test_case "link failure: single surviving plane" `Quick
        test_single_link_failure_single_plane;
      Alcotest.test_case "link failures: multi-plane set cover" `Quick
        test_disjoint_link_failures_need_set_cover;
      Alcotest.test_case "isolated leaf degrades to unicast" `Quick
        test_leaf_isolated_degrades_to_unicast;
      Alcotest.test_case "set-cover duplicates observable" `Quick
        test_set_cover_duplicates_observable;
      Alcotest.test_case "fail/recover link idempotency" `Quick
        test_link_fail_recover_idempotent;
      Alcotest.test_case "recover_link reports its fan-out" `Quick
        test_recover_link_reports_affected;
    ]

(* Metamorphic property: after ANY interleaving of switch/link failures,
   recoveries and membership changes (applied consistently to controller and
   fabric), every sender either degrades to unicast (header = None) or gets
   a header that reaches every receiver at least once. *)

type chaos_op =
  | Flip_spine of int
  | Flip_core of int
  | Flip_link of int * int
  | Flip_member of int

let gen_chaos =
  QCheck.Gen.(
    list_size (int_range 1 25)
      (oneof
         [
           map (fun s -> Flip_spine s) (int_range 0 7);
           map (fun c -> Flip_core c) (int_range 0 3);
           map2 (fun l p -> Flip_link (l, p)) (int_range 0 7) (int_range 0 1);
           map (fun v -> Flip_member v) (int_range 0 63);
         ]))

let arb_chaos =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Flip_spine s -> Printf.sprintf "S%d" s
             | Flip_core c -> Printf.sprintf "C%d" c
             | Flip_link (l, p) -> Printf.sprintf "L%d.%d" l p
             | Flip_member v -> Printf.sprintf "M%d" v)
           ops))
    gen_chaos

let prop_chaos_never_breaks_delivery =
  QCheck.Test.make ~name:"headers survive arbitrary failure/churn interleavings"
    ~count:80 arb_chaos (fun ops ->
      let fabric = Fabric.create topo in
      let ctrl, fabric = make ~fabric () in
      ignore (Controller.add_group ctrl ~group:1 (members_both fig3_hosts));
      let spine_state = Array.make 8 true in
      let core_state = Array.make 4 true in
      let link_state = Array.make_matrix 8 2 true in
      List.iter
        (function
          | Flip_spine s ->
              if spine_state.(s) then begin
                Fabric.fail_spine fabric s;
                ignore (Controller.fail_spine ctrl s)
              end
              else begin
                Fabric.recover_spine fabric s;
                ignore (Controller.recover_spine ctrl s)
              end;
              spine_state.(s) <- not spine_state.(s)
          | Flip_core c ->
              if core_state.(c) then begin
                Fabric.fail_core fabric c;
                ignore (Controller.fail_core ctrl c)
              end
              else begin
                Fabric.recover_core fabric c;
                ignore (Controller.recover_core ctrl c)
              end;
              core_state.(c) <- not core_state.(c)
          | Flip_link (l, p) ->
              if link_state.(l).(p) then begin
                Fabric.fail_link fabric ~leaf:l ~plane:p;
                ignore (Controller.fail_link ctrl ~leaf:l ~plane:p)
              end
              else begin
                Fabric.recover_link fabric ~leaf:l ~plane:p;
                ignore (Controller.recover_link ctrl ~leaf:l ~plane:p)
              end;
              link_state.(l).(p) <- not link_state.(l).(p)
          | Flip_member v -> (
              let members = Controller.members ctrl ~group:1 in
              match List.assoc_opt v members with
              | Some _ when List.length members > 1 ->
                  ignore (Controller.leave ctrl ~group:1 ~host:v)
              | Some _ -> ()
              | None ->
                  ignore (Controller.join ctrl ~group:1 ~host:v ~role:Controller.Both)))
        ops;
      (* Invariant check across every sender. *)
      match Controller.encoding ctrl ~group:1 with
      | None -> true
      | Some enc ->
          let tree = enc.Encoding.tree in
          List.for_all
            (fun (sender, role) ->
              match role with
              | Controller.Receiver -> true
              | Controller.Sender | Controller.Both -> (
                  match Controller.header ctrl ~group:1 ~sender with
                  | None -> true (* explicit unicast degrade is fine *)
                  | Some header ->
                      let report =
                        Fabric.inject fabric ~sender ~group:1 ~header ~payload:64
                      in
                      Array.for_all
                        (fun m ->
                          m = sender || List.mem_assoc m report.Fabric.delivered)
                        (Tree.member_array tree)))
            (Controller.members ctrl ~group:1))

let tests = tests @ [ QCheck_alcotest.to_alcotest prop_chaos_never_breaks_delivery ]

(* {1 merge_updates / spine_update_count algebra} *)

let arb_updates =
  let gen =
    QCheck.Gen.(
      let ids = list_size (int_range 0 12) (int_range 0 15) in
      map3
        (fun h l p -> { Controller.hypervisors = h; leaves = l; pods = p })
        ids ids ids)
  in
  let print (u : Controller.updates) =
    let l ids = String.concat "," (List.map string_of_int ids) in
    Printf.sprintf "{hyp=[%s] leaves=[%s] pods=[%s]}" (l u.Controller.hypervisors)
      (l u.Controller.leaves) (l u.Controller.pods)
  in
  QCheck.make ~print gen

let normalized (u : Controller.updates) =
  Controller.merge_updates u Controller.no_updates

let sorted_dedup l = List.sort_uniq compare l

let prop_merge_normalizes =
  QCheck.Test.make ~name:"merge_updates sorts and deduplicates" ~count:200
    arb_updates (fun u ->
      let m = Controller.merge_updates u u in
      m.Controller.hypervisors = sorted_dedup u.Controller.hypervisors
      && m.Controller.leaves = sorted_dedup u.Controller.leaves
      && m.Controller.pods = sorted_dedup u.Controller.pods
      && m = normalized u)

let prop_merge_commutative =
  QCheck.Test.make ~name:"merge_updates is commutative" ~count:200
    (QCheck.pair arb_updates arb_updates) (fun (a, b) ->
      Controller.merge_updates a b = Controller.merge_updates b a)

let prop_merge_associative_idempotent =
  QCheck.Test.make ~name:"merge_updates is associative and idempotent"
    ~count:200
    (QCheck.triple arb_updates arb_updates arb_updates) (fun (a, b, c) ->
      let ( <+> ) = Controller.merge_updates in
      (a <+> (b <+> c)) = ((a <+> b) <+> c)
      && (let m = a <+> b in
          (m <+> m) = m))

let prop_spine_update_count =
  QCheck.Test.make
    ~name:"spine_update_count = distinct pods x physical spines per pod"
    ~count:200 (QCheck.pair arb_updates arb_updates) (fun (a, b) ->
      let m = Controller.merge_updates a b in
      Controller.spine_update_count topo m
      = List.length (sorted_dedup (a.Controller.pods @ b.Controller.pods))
        * topo.Topology.spines_per_pod
      && Controller.spine_update_count topo m
         <= Controller.spine_update_count topo (normalized a)
            + Controller.spine_update_count topo (normalized b))

let tests =
  tests
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_merge_normalizes;
        prop_merge_commutative;
        prop_merge_associative_idempotent;
        prop_spine_update_count;
      ]
