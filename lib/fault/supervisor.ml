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
  let key group site = Srule_state.group_site_key topo ~group site in
  Array.iter
    (fun (gv : Installed_config.group_view) ->
      let group = gv.gid in
      let check site bm () =
        incr checked;
        Hashtbl.replace expected (key group site) ();
        match Controller.read_site hooks ~group site with
        | Some actual when Bitmap.equal actual bm -> ()
        | _ -> count (Controller.install_site hooks ~group site bm)
      in
      Option.iter
        (fun enc -> Encoding.fold_srules check enc ())
        gv.Installed_config.enc)
    (Installed_config.groups cfg);
  Array.iter
    (fun (group, site) ->
      Hashtbl.replace expected (key group site) ();
      if Option.is_some (Controller.read_site hooks ~group site) then
        incr stale_kept)
    cfg.Installed_config.stale_sites;
  let sweep_orphans site groups =
    List.iter
      (fun group ->
        if not (Hashtbl.mem expected (key group site)) then
          match Controller.remove_site hooks ~group site with
          | Ok () -> incr orphans
          | Error (_ : Controller.install_error) -> incr refused)
      groups
  in
  for leaf = 0 to Topology.num_leaves topo - 1 do
    sweep_orphans (Srule_state.Leaf leaf) (Fabric.leaf_groups fabric leaf)
  done;
  for pod = 0 to topo.Topology.pods - 1 do
    sweep_orphans (Srule_state.Pod pod) (Fabric.pod_groups fabric pod)
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
