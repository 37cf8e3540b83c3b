(** Control-plane experiments (§5.1.3): Table 2's per-switch update rates
    under membership churn (Elmo vs Li et al.) and the spine/core failure
    impact numbers. Uses the same placement/workload generator as the
    scalability runs, with the P = 1 strategy the paper uses for Table 2. *)

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

val default_config : unit -> config
(** P = 1, WVE, 1,000 events/s; group count scaled like
    {!Scalability.default_config} and event count = min(group count, 100k). *)

type result = {
  churn : Churn.result;
  spine_failures : Churn.failure_result;
  core_failures : Churn.failure_result;
}

val run : config -> result

val pp_table2 : Format.formatter -> Churn.result -> unit
(** Renders Table 2: average (max) updates per second per switch layer. *)

val pp_failures : Format.formatter -> result -> unit
