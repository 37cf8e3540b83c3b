module Obs = Elmo_obs.Obs

type config = {
  topo : Topology.t;
  tenants : int;
  total_groups : int;
  strategy : Vm_placement.strategy;
  dist : Group_dist.kind;
  params : Params.t;
  events : int;
  events_per_second : float;
  failure_trials : int;
  seed : int;
}

let default_config () =
  let base = Scalability.default_config () in
  {
    topo = base.Scalability.topo;
    tenants = base.Scalability.tenants;
    total_groups = base.Scalability.total_groups;
    strategy = Vm_placement.Pack_up_to 1;
    dist = base.Scalability.dist;
    params = base.Scalability.params;
    events = min base.Scalability.total_groups 100_000;
    events_per_second = 1_000.0;
    failure_trials = 10;
    seed = base.Scalability.seed;
  }

type result = {
  churn : Churn.result;
  spine_failures : Churn.failure_result;
  core_failures : Churn.failure_result;
}

let run config =
  Obs.with_span "control_plane.run"
    ~attrs:
      [ ("groups", Obs.Int config.total_groups);
        ("events", Obs.Int config.events) ]
  @@ fun () ->
  let rng = Rng.create config.seed in
  let tenant_sizes = Vm_placement.default_tenant_sizes rng config.tenants in
  let placement =
    Vm_placement.place rng config.topo ~strategy:config.strategy
      ~host_capacity:20 ~tenant_sizes
  in
  let workload_rng = Rng.create (config.seed + 1) in
  let groups =
    Workload.generate workload_rng placement ~kind:config.dist
      ~total_groups:config.total_groups
  in
  let ctrl = Controller.create config.topo config.params in
  let setup_rng = Rng.create (config.seed + 3) in
  Churn.setup_controller setup_rng ctrl placement groups;
  let li = Li_et_al.create config.topo in
  (* Seed Li with the initial receiver trees so aggregation state exists
     before churn begins. *)
  Array.iter
    (fun g ->
      match Controller.encoding ctrl ~group:g.Workload.group_id with
      | Some enc -> Li_et_al.add_group li ~group:g.Workload.group_id enc.Encoding.tree
      | None -> ())
    groups;
  let churn_rng = Rng.create (config.seed + 4) in
  let churn =
    Churn.run churn_rng ctrl placement groups ~events:config.events
      ~events_per_second:config.events_per_second ~li:(Some li)
  in
  let failure_rng = Rng.create (config.seed + 5) in
  let spine_failures, core_failures =
    Obs.with_span "control_plane.failures"
      ~attrs:[ ("trials", Obs.Int config.failure_trials) ]
    @@ fun () ->
    ( Churn.spine_failures failure_rng ctrl ~trials:config.failure_trials,
      Churn.core_failures failure_rng ctrl ~trials:config.failure_trials )
  in
  { churn; spine_failures; core_failures }

let pp_load ppf (l : Churn.layer_load) =
  Format.fprintf ppf "%7.1f (%7.1f)" l.Churn.mean l.Churn.max

let pp_table2 ppf (c : Churn.result) =
  let rule_events = c.Churn.fast_path + c.Churn.reencoded in
  let hit_rate =
    if rule_events = 0 then 0.0
    else 100.0 *. float_of_int c.Churn.fast_path /. float_of_int rule_events
  in
  Format.fprintf ppf
    "@[<v>Table 2: avg (max) switch updates per second @ %d events@ \
     (incremental fast path: %d/%d receiver events in place, %.1f%%)@ \
     %-12s %-20s %s@ hypervisor   %a %20s@ leaf         %a    %a@ \
     spine        %a    %a@ core         %7.1f (%7.1f)    %a@]"
    c.Churn.events c.Churn.fast_path rule_events hit_rate "switch" "Elmo"
    "Li et al." pp_load c.Churn.elmo_hypervisor "(not evaluated)" pp_load
    c.Churn.elmo_leaf pp_load c.Churn.li_leaf pp_load c.Churn.elmo_spine
    pp_load c.Churn.li_spine 0.0 0.0 pp_load c.Churn.li_core

let pp_failures ppf r =
  let pp ppf (f : Churn.failure_result) =
    Format.fprintf ppf
      "%d trials: %.1f%% groups affected (max %.1f%%); rule updates per hypervisor \
       mean %.1f (max %.0f); recovery touched %.1f%% groups, %.1f updates/hyp"
      f.Churn.trials
      (100.0 *. f.Churn.affected_fraction_mean)
      (100.0 *. f.Churn.affected_fraction_max)
      f.Churn.rule_updates_per_hypervisor_mean
      f.Churn.rule_updates_per_hypervisor_max
      (100.0 *. f.Churn.recovery_affected_fraction_mean)
      f.Churn.recovery_updates_per_hypervisor_mean
  in
  Format.fprintf ppf "@[<v>spine failures: %a@ core failures:  %a@]" pp
    r.spine_failures pp r.core_failures
