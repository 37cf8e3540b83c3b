module Obs = Elmo_obs.Obs

type reconcile = {
  sites_checked : int;
  reinstalled : int;
  orphans_removed : int;
  stale_kept : int;
  refused : int;
}

type outcome = {
  replica : Replica.t;
  loaded : Wire.loaded;
  epoch : int;
  reconcile : reconcile;
  blackholes : Verify.witness list;
}

(* Read back every s-rule site the recovered state expects; reinstall what
   diverged, remove what nothing explains. Stale-marked sites are the one
   asymmetry: the verifier compensates for them assuming {e presence}, so
   the sweep may reinstall over one but must never remove it. *)
let reconcile_sweep fabric (hooks : Controller.fabric_hooks)
    (cfg : Installed_config.t) =
  let topo = cfg.Installed_config.topo in
  let checked = ref 0
  and reinstalled = ref 0
  and orphans = ref 0
  and stale_kept = ref 0
  and refused = ref 0 in
  let count = function
    | Ok () -> incr reinstalled
    | Error (_ : Controller.install_error) -> incr refused
  in
  let expected = Hashtbl.create 256 in
  let stride =
    (2 * max (Topology.num_leaves topo) topo.Topology.pods) + 2
  in
  let key group site = (group * stride) + Srule_state.site_key site in
  Array.iter
    (fun (gv : Installed_config.group_view) ->
      match gv.Installed_config.enc with
      | None -> ()
      | Some enc ->
          List.iter
            (fun (leaf, bm) ->
              incr checked;
              Hashtbl.replace expected (key gv.gid (Srule_state.Leaf leaf)) ();
              match Fabric.leaf_srule fabric ~leaf ~group:gv.gid with
              | Some actual when Bitmap.equal actual bm -> ()
              | _ ->
                  count
                    (hooks.Controller.install_leaf ~leaf ~group:gv.gid bm))
            enc.Encoding.d_leaf.Clustering.srules;
          List.iter
            (fun (pod, bm) ->
              incr checked;
              Hashtbl.replace expected (key gv.gid (Srule_state.Pod pod)) ();
              match Fabric.pod_srule fabric ~pod ~group:gv.gid with
              | Some actual when Bitmap.equal actual bm -> ()
              | _ ->
                  count
                    (hooks.Controller.install_pod ~pod ~group:gv.gid bm))
            enc.Encoding.d_spine.Clustering.srules)
    (Installed_config.groups cfg);
  Array.iter
    (fun (group, site) ->
      Hashtbl.replace expected (key group site) ();
      let present =
        match site with
        | Srule_state.Leaf leaf ->
            Option.is_some (Fabric.leaf_srule fabric ~leaf ~group)
        | Srule_state.Pod pod ->
            Option.is_some (Fabric.pod_srule fabric ~pod ~group)
      in
      if present then incr stale_kept)
    cfg.Installed_config.stale_sites;
  let sweep_orphan site remove group =
    if not (Hashtbl.mem expected (key group site)) then
      match remove () with
      | Ok () -> incr orphans
      | Error (_ : Controller.install_error) -> incr refused
  in
  for leaf = 0 to Topology.num_leaves topo - 1 do
    List.iter
      (fun group ->
        sweep_orphan (Srule_state.Leaf leaf)
          (fun () -> hooks.Controller.remove_leaf ~leaf ~group)
          group)
      (Fabric.leaf_groups fabric leaf)
  done;
  for pod = 0 to topo.Topology.pods - 1 do
    List.iter
      (fun group ->
        sweep_orphan (Srule_state.Pod pod)
          (fun () -> hooks.Controller.remove_pod ~pod ~group)
          group)
      (Fabric.pod_groups fabric pod)
  done;
  {
    sites_checked = !checked;
    reinstalled = !reinstalled;
    orphans_removed = !orphans;
    stale_kept = !stale_kept;
    refused = !refused;
  }

let failover ?snapshot_every ?observer ~fabric data =
  Obs.with_span "supervisor.failover" @@ fun () ->
  match Wire.load data with
  | Error e -> Error e
  | Ok loaded -> (
      let epoch = loaded.Wire.l_epoch + 1 in
      (* Fence first: even if recovery fails below, the dead primary must
         not be able to mutate the fabric again. *)
      Fabric.set_fence fabric epoch;
      let hooks = Fabric.controller_hooks_at fabric ~epoch in
      match
        Replica.of_wire ?snapshot_every ~fabric_hooks:hooks ?observer ~epoch
          loaded
      with
      | Error e -> Error e
      | Ok replica ->
          (* One view serves the sweep and the proof: the sweep mutates
             the fabric, never the controller, and the proof's stamp check
             would refuse the view if it had. *)
          let cfg = Replica.installed_config replica in
          let reconcile =
            Obs.with_span "supervisor.reconcile" (fun () ->
                reconcile_sweep fabric hooks cfg)
          in
          Obs.observe "supervisor.reinstalled"
            (float_of_int reconcile.reinstalled);
          Obs.observe "supervisor.orphans_removed"
            (float_of_int reconcile.orphans_removed);
          let blackholes =
            Obs.with_span "supervisor.prove" (fun () ->
                Verify.sender_blackholes cfg)
          in
          Ok { replica; loaded; epoch; reconcile; blackholes })

let pp_reconcile ppf r =
  Format.fprintf ppf
    "%d sites checked, %d reinstalled, %d orphans removed, %d stale kept, %d \
     refused"
    r.sites_checked r.reinstalled r.orphans_removed r.stale_kept r.refused
