(* Failure handling (§3.3, §5.1.3b): a spine switch dies, packets that ECMP
   onto it are lost, and the controller restores delivery by disabling
   multipath and pinning explicit upstream ports (greedy set cover) — an
   update that touches only the sender hypervisors, never the network
   switches.

   Run with: dune exec examples/failover.exe *)

let () =
  let topo = Topology.running_example () in
  let fabric = Fabric.create topo in
  let hooks = Fabric.controller_hooks fabric in
  let ctrl = Controller.create ~fabric_hooks:hooks topo Params.default in

  (* A cross-pod group: sender in pod 0, receivers in pods 0, 2 and 3. *)
  let h = topo.Topology.hosts_per_leaf in
  let sender = 0 in
  let members =
    [
      (sender, Controller.Both);
      (1, Controller.Receiver);
      ((5 * h) + 2, Controller.Receiver);
      ((6 * h) + 4, Controller.Receiver);
      ((7 * h) + 7, Controller.Receiver);
    ]
  in
  let group = 7 in
  ignore (Controller.add_group ctrl ~group members);
  let tree =
    match Controller.encoding ctrl ~group with
    | Some e -> e.Encoding.tree
    | None -> assert false
  in

  (* Whether every member got the packet (a unicast fallback counts). *)
  let send label =
    match Controller.header ctrl ~group ~sender with
    | None ->
        Format.printf "%-28s degraded to unicast@." label;
        true
    | Some header ->
        let r = Fabric.inject fabric ~sender ~group ~header ~payload:64 in
        let ok = Fabric.deliveries_correct r ~tree ~sender in
        Format.printf "%-28s delivered=%d/%d lost-copies=%d %s@." label
          (List.length r.Fabric.delivered)
          (Tree.member_count tree - 1)
          r.Fabric.lost
          (if ok then "(all members ok)" else "(MISSING receivers)");
        ok
  in

  assert (send "healthy fabric:");

  (* Fail the spine the sender's flow hashes onto. We find it by failing
     each spine of pod 0 in the fabric only and seeing which loses
     traffic. *)
  let victim =
    let rec find = function
      | [] -> List.hd (Topology.spines_of_pod topo 0)
      | s :: rest ->
          Fabric.fail_spine fabric s;
          let header = Option.get (Controller.header ctrl ~group ~sender) in
          let r = Fabric.inject fabric ~sender ~group ~header ~payload:64 in
          Fabric.recover_spine fabric s;
          if r.Fabric.lost > 0 then s else find rest
    in
    find (Topology.spines_of_pod topo 0)
  in
  Format.printf "@.failing spine %d (the one this flow ECMPs onto)...@." victim;
  Fabric.fail_spine fabric victim;
  assert (not (send "before controller reacts:"));

  let report = Controller.fail_spine ctrl victim in
  Format.printf
    "controller recomputed %d group(s), updating %d sender hypervisor(s)@."
    report.Controller.affected_groups report.Controller.hypervisors_updated;
  assert (send "after upstream override:");

  Format.printf "@.recovering spine %d...@." victim;
  Fabric.recover_spine fabric victim;
  ignore (Controller.recover_spine ctrl victim);
  assert (send "after recovery:")
