module Obs = Elmo_obs.Obs

type layer_load = { mean : float; max : float }

type result = {
  events : int;
  fast_path : int;
  reencoded : int;
  elmo_hypervisor : layer_load;
  elmo_leaf : layer_load;
  elmo_spine : layer_load;
  elmo_core : layer_load;
  li_leaf : layer_load;
  li_spine : layer_load;
  li_core : layer_load;
}

let random_role rng =
  match Rng.int rng 3 with
  | 0 -> Controller.Sender
  | 1 -> Controller.Receiver
  | _ -> Controller.Both

let setup_controller rng ctrl _placement groups =
  Obs.with_span "churn.setup"
    ~attrs:[ ("groups", Obs.Int (Array.length groups)) ]
  @@ fun () ->
  let batch =
    Array.to_list groups
    |> List.map (fun g ->
           ( g.Workload.group_id,
             Array.to_list g.Workload.member_hosts
             |> List.map (fun h -> (h, random_role rng)) ))
  in
  ignore (Controller.install_all ctrl batch)

(* Weighted choice by initial group size (events per group proportional to
   size, as in the paper). *)
let weighted_picker groups =
  let n = Array.length groups in
  let prefix = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    prefix.(i + 1) <- prefix.(i) + Array.length groups.(i).Workload.member_hosts
  done;
  let total = prefix.(n) in
  fun rng ->
    let x = Rng.int rng total in
    (* binary search for the segment containing x *)
    let lo = ref 0 and hi = ref n in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if prefix.(mid) <= x then lo := mid else hi := mid
    done;
    groups.(!lo)

let layer_load ~duration counts ~over =
  let rates =
    List.filter_map
      (fun i ->
        if over i then Some (float_of_int counts.(i) /. duration) else None)
      (List.init (Array.length counts) Fun.id)
  in
  match rates with
  | [] -> { mean = 0.0; max = 0.0 }
  | _ ->
      let arr = Array.of_list rates in
      {
        mean = Array.fold_left ( +. ) 0.0 arr /. float_of_int (Array.length arr);
        max = Array.fold_left Float.max 0.0 arr;
      }

let run rng ctrl placement groups ~events ~events_per_second ~li =
  Obs.with_span "churn.run" ~attrs:[ ("events", Obs.Int events) ]
  @@ fun () ->
  let topo = Controller.topology ctrl in
  let pick = weighted_picker groups in
  let hyp_counts = Array.make (Topology.num_hosts topo) 0 in
  let leaf_counts = Array.make (Topology.num_leaves topo) 0 in
  let spine_counts = Array.make (Topology.num_spines topo) 0 in
  let li_leaf = Array.make (Topology.num_leaves topo) 0 in
  let li_spine = Array.make (Topology.num_spines topo) 0 in
  let li_core = Array.make (max 1 (Topology.num_cores topo)) 0 in
  let tree_of group =
    Option.map (fun e -> e.Encoding.tree) (Controller.encoding ctrl ~group)
  in
  let performed = ref 0 in
  let stats0 = Controller.churn_stats ctrl in
  for _ = 1 to events do
    let g = pick rng in
    let group = g.Workload.group_id in
    let members = Controller.members ctrl ~group in
    let tenant = placement.Vm_placement.tenants.(g.Workload.tenant_id) in
    let vms = tenant.Vm_placement.vm_hosts in
    let member_set = Hashtbl.create (2 * List.length members) in
    List.iter (fun (h, _) -> Hashtbl.replace member_set h ()) members;
    (* Uniform non-member: rejection-sample the tenant's VMs, falling back
       to an explicit scan when the group covers most of the tenant. *)
    let pick_non_member () =
      let n = Array.length vms in
      if Hashtbl.length member_set >= n then None
      else begin
        let rec try_random attempts =
          if attempts = 0 then begin
            let rest =
              Array.to_list vms
              |> List.filter (fun h -> not (Hashtbl.mem member_set h))
            in
            Some (List.nth rest (Rng.int rng (List.length rest)))
          end
          else begin
            let h = vms.(Rng.int rng n) in
            if Hashtbl.mem member_set h then try_random (attempts - 1) else Some h
          end
        in
        try_random 30
      end
    in
    let want_join = List.is_empty members || Rng.bool rng in
    (* Deep-copy the snapshot: the incremental fast path mutates the live
       tree in place, so without a copy the baseline would diff the new
       membership against itself and under-count. *)
    let old_tree =
      match li with Some _ -> Option.map Tree.copy (tree_of group) | None -> None
    in
    let leave () =
      match members with
      | [] -> None
      | _ :: _ ->
          let host, _ = List.nth members (Rng.int rng (List.length members)) in
          Some (Controller.leave ctrl ~group ~host)
    in
    let updates =
      if want_join then
        match pick_non_member () with
        | Some host ->
            Some (Controller.join ctrl ~group ~host ~role:(random_role rng))
        | None -> leave ()
      else leave ()
    in
    match updates with
    | None -> ()
    | Some u ->
        incr performed;
        List.iter (fun h -> hyp_counts.(h) <- hyp_counts.(h) + 1) u.Controller.hypervisors;
        List.iter (fun l -> leaf_counts.(l) <- leaf_counts.(l) + 1) u.Controller.leaves;
        List.iter
          (fun p ->
            List.iter
              (fun s -> spine_counts.(s) <- spine_counts.(s) + 1)
              (Topology.spines_of_pod topo p))
          u.Controller.pods;
        (match li with
        | None -> ()
        | Some li_state ->
            let new_tree = tree_of group in
            let touch =
              Li_et_al.update li_state ~group ~old_tree ~new_tree
            in
            List.iter (fun l -> li_leaf.(l) <- li_leaf.(l) + 1) touch.Li_et_al.leaves;
            List.iter (fun s -> li_spine.(s) <- li_spine.(s) + 1) touch.Li_et_al.spines;
            List.iter (fun c -> li_core.(c) <- li_core.(c) + 1) touch.Li_et_al.cores)
  done;
  let duration = float_of_int !performed /. events_per_second in
  let duration = if duration <= 0.0 then 1.0 else duration in
  let host_active h = placement.Vm_placement.host_load.(h) > 0 in
  let all _ = true in
  let stats1 = Controller.churn_stats ctrl in
  {
    events = !performed;
    fast_path = stats1.Controller.fast_path - stats0.Controller.fast_path;
    reencoded = stats1.Controller.reencoded - stats0.Controller.reencoded;
    elmo_hypervisor = layer_load ~duration hyp_counts ~over:host_active;
    elmo_leaf = layer_load ~duration leaf_counts ~over:all;
    elmo_spine = layer_load ~duration spine_counts ~over:all;
    elmo_core = { mean = 0.0; max = 0.0 };
    li_leaf = layer_load ~duration li_leaf ~over:all;
    li_spine = layer_load ~duration li_spine ~over:all;
    li_core = layer_load ~duration li_core ~over:all;
  }

type failure_result = {
  trials : int;
  affected_fraction_mean : float;
  affected_fraction_max : float;
  rule_updates_per_hypervisor_mean : float;
  rule_updates_per_hypervisor_max : float;
  recovery_affected_fraction_mean : float;
  recovery_updates_per_hypervisor_mean : float;
}

let no_failures =
  {
    trials = 0;
    affected_fraction_mean = 0.0;
    affected_fraction_max = 0.0;
    rule_updates_per_hypervisor_mean = 0.0;
    rule_updates_per_hypervisor_max = 0.0;
    recovery_affected_fraction_mean = 0.0;
    recovery_updates_per_hypervisor_mean = 0.0;
  }

let failure_trials rng ctrl ~trials ~count ~fail ~recover =
  if count = 0 || trials = 0 then no_failures
  else begin
    let fractions = ref [] in
    let updates = ref [] in
    let max_updates = ref [] in
    let rec_fractions = ref [] in
    let rec_updates = ref [] in
    let total = float_of_int (max 1 (Controller.group_count ctrl)) in
    for _ = 1 to trials do
      let victim = Rng.int rng count in
      let report : Controller.failure_report = fail victim in
      fractions :=
        (float_of_int report.Controller.affected_groups /. total) :: !fractions;
      updates := report.Controller.rule_updates_mean :: !updates;
      max_updates :=
        float_of_int report.Controller.rule_updates_max :: !max_updates;
      (* Recovery restores the original trees, so it fans out updates of
         its own — account it instead of discarding the report (the
         controller re-checks its invariants inside both calls). *)
      let back : Controller.failure_report = recover victim in
      rec_fractions :=
        (float_of_int back.Controller.affected_groups /. total)
        :: !rec_fractions;
      rec_updates := back.Controller.rule_updates_mean :: !rec_updates
    done;
    let arr l = Array.of_list l in
    let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a) in
    let maxv a = Array.fold_left Float.max 0.0 a in
    let f = arr !fractions and u = arr !updates and m = arr !max_updates in
    {
      trials;
      affected_fraction_mean = mean f;
      affected_fraction_max = maxv f;
      rule_updates_per_hypervisor_mean = mean u;
      rule_updates_per_hypervisor_max = maxv m;
      recovery_affected_fraction_mean = mean (arr !rec_fractions);
      recovery_updates_per_hypervisor_mean = mean (arr !rec_updates);
    }
  end

(* {1 Churn under injected install faults} *)

type fault_result = {
  fault_events : int;
  probes : int;
  blackholes : int;
  clean_tx : int;
  faulty_tx : int;
  extra_traffic : float;
  install : Controller.install_stats;
  faults : Fault.stats;
}

let fault_run ?flight ~seed topo params ~groups ~group_size ~events ~rate
    ~probe_every =
  Obs.with_span "churn.fault_run"
    ~attrs:[ ("events", Obs.Int events); ("rate", Obs.Float rate) ]
  @@ fun () ->
  let fr =
    match flight with
    | Some fr -> fr
    | None -> Elmo_telemetry.Flight_recorder.ambient ()
  in
  let record_op op = Elmo_telemetry.Flight_recorder.record_op fr op in
  let note label ~a ~b = Elmo_telemetry.Flight_recorder.note fr label ~a ~b in
  let rng = Rng.create seed in
  let clean_fab = Fabric.create topo in
  let faulty_fab = Fabric.create topo in
  let schedule =
    if rate > 0.0 then Fault.random (Rng.split rng) ~rate else Fault.Reliable
  in
  let fault = Fault.create ~schedule faulty_fab in
  (* Wedge a deterministic subset of switches: transient faults almost never
     outlast a retry budget, so persistent per-switch refusal is what makes
     graceful degradation actually observable. *)
  if rate > 0.0 then begin
    for l = 0 to Topology.num_leaves topo - 1 do
      if l mod 8 = 3 then Fault.wedge_leaf fault l true
    done;
    for p = 0 to topo.Topology.pods - 1 do
      if p mod 4 = 1 then Fault.wedge_pod fault p true
    done
  end;
  let clean =
    Controller.create
      ~fabric_hooks:(Fabric.controller_hooks clean_fab)
      topo params
  in
  let faulty =
    Controller.create ~fabric_hooks:(Fault.hooks fault) topo params
  in
  (* The driver owns membership, so both controllers see a bit-identical op
     stream no matter what the fault schedule does to either of them. *)
  let num_hosts = Topology.num_hosts topo in
  let members = Array.make (max 1 groups) [] in
  let host_ids = Array.init num_hosts Fun.id in
  for g = 0 to groups - 1 do
    let hosts =
      Rng.sample_without_replacement rng (min group_size num_hosts) host_ids
    in
    members.(g) <- Array.to_list hosts;
    let ms = List.map (fun h -> (h, Controller.Both)) members.(g) in
    ignore (Controller.add_group clean ~group:g ms : Controller.updates);
    ignore (Controller.add_group faulty ~group:g ms : Controller.updates);
    record_op (Journal.Add_group { group = g; members = ms })
  done;
  let is_member g h = Int_list.mem h members.(g) in
  let pick_non_member g =
    if List.length members.(g) >= num_hosts then None
    else begin
      let rec try_random attempts =
        if attempts = 0 then begin
          let rest =
            List.filter
              (fun h -> not (is_member g h))
              (List.init num_hosts Fun.id)
          in
          Some (List.nth rest (Rng.int rng (List.length rest)))
        end
        else
          let h = Rng.int rng num_hosts in
          if is_member g h then try_random (attempts - 1) else Some h
      in
      try_random 30
    end
  in
  let probes = ref 0 in
  let blackholes = ref 0 in
  let clean_tx = ref 0 in
  let faulty_tx = ref 0 in
  let probe_all () =
    for g = 0 to groups - 1 do
      match members.(g) with
      | [] | [ _ ] -> ()
      | ms ->
          let sender = List.nth ms (Rng.int rng (List.length ms)) in
          let c = Verify.probe clean clean_fab ~group:g ~sender in
          let f = Verify.probe faulty faulty_fab ~group:g ~sender in
          (match c, f with
          | Some (_, ctx), Some (fok, ftx) ->
              incr probes;
              clean_tx := !clean_tx + ctx;
              faulty_tx := !faulty_tx + ftx;
              if not fok then begin
                incr blackholes;
                Obs.incr "churn.fault_blackholes";
                note "probe.blackhole" ~a:g ~b:sender
              end
          | _, Some (fok, _) ->
              incr probes;
              if not fok then begin
                incr blackholes;
                note "probe.blackhole" ~a:g ~b:sender
              end
          | _, None -> ())
    done
  in
  let performed = ref 0 in
  (* Track retry-budget exhaustion as it happens: the flight recorder gets
     a note per newly-exhausted operation, so a dump after an anomaly shows
     which events drove the controller into degradation. *)
  let exhausted_seen = ref 0 in
  let check_exhaustion ev =
    let s = Controller.install_stats faulty in
    if s.Controller.exhausted > !exhausted_seen then begin
      note "install.exhausted" ~a:ev ~b:s.Controller.exhausted;
      exhausted_seen := s.Controller.exhausted
    end
  in
  for ev = 1 to events do
    let g = Rng.int rng (max 1 groups) in
    let want_join =
      match members.(g) with [] -> true | _ :: _ -> Rng.bool rng
    in
    (if want_join then
       match pick_non_member g with
       | None -> ()
       | Some host ->
           members.(g) <- host :: members.(g);
           incr performed;
           ignore
             (Controller.join clean ~group:g ~host ~role:Controller.Both
               : Controller.updates);
           ignore
             (Controller.join faulty ~group:g ~host ~role:Controller.Both
               : Controller.updates);
           record_op (Journal.Join { group = g; host; role = Controller.Both })
     else
       match members.(g) with
       | [] -> ()
       | ms ->
           let host = List.nth ms (Rng.int rng (List.length ms)) in
           members.(g) <- List.filter (fun h -> h <> host) ms;
           incr performed;
           ignore (Controller.leave clean ~group:g ~host : Controller.updates);
           ignore (Controller.leave faulty ~group:g ~host : Controller.updates);
           record_op (Journal.Leave { group = g; host }));
    check_exhaustion ev;
    if probe_every > 0 && ev mod probe_every = 0 then probe_all ()
  done;
  probe_all ();
  let extra_traffic =
    if !clean_tx = 0 then 0.0
    else (float_of_int !faulty_tx /. float_of_int !clean_tx) -. 1.0
  in
  Obs.observe "churn.fault_extra_traffic" extra_traffic;
  {
    fault_events = !performed;
    probes = !probes;
    blackholes = !blackholes;
    clean_tx = !clean_tx;
    faulty_tx = !faulty_tx;
    extra_traffic;
    install = Controller.install_stats faulty;
    faults = Fault.stats fault;
  }

let spine_failures rng ctrl ~trials =
  let topo = Controller.topology ctrl in
  failure_trials rng ctrl ~trials ~count:(Topology.num_spines topo)
    ~fail:(Controller.fail_spine ctrl)
    ~recover:(Controller.recover_spine ctrl)

let core_failures rng ctrl ~trials =
  let topo = Controller.topology ctrl in
  failure_trials rng ctrl ~trials ~count:(Topology.num_cores topo)
    ~fail:(Controller.fail_core ctrl)
    ~recover:(Controller.recover_core ctrl)
