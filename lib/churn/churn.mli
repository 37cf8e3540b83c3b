(** Membership-churn and failure simulation (§5.1.3, Table 2).

    Mirrors the paper's setup: every group member is randomly a sender,
    receiver, or both; join events pick a uniformly random non-member VM of
    the owning tenant, leave events a uniformly random member; the number of
    events per group is proportional to group size (achieved by weighting
    group choice by size). Updates are accounted per switch by the Elmo
    controller and, in parallel, by the Li et al. baseline model over the
    same event stream. *)

type layer_load = { mean : float; max : float }
(** Updates per second, over the switches of one layer. *)

type result = {
  events : int;
  fast_path : int;
      (** receiver events the controller absorbed through the incremental
          encoding fast path (no re-clustering) during this run *)
  reencoded : int;  (** receiver events that fell back to a full re-encode *)
  elmo_hypervisor : layer_load;
  elmo_leaf : layer_load;
  elmo_spine : layer_load;
  elmo_core : layer_load;  (** always 0 — Elmo installs no core state *)
  li_leaf : layer_load;
  li_spine : layer_load;
  li_core : layer_load;
}

val setup_controller :
  Rng.t ->
  Controller.t ->
  Vm_placement.t ->
  Workload.group array ->
  unit
(** Registers every workload group with the controller, assigning each
    member host a uniformly random role. The whole population goes through
    one {!Controller.install_all} batch. *)

val run :
  Rng.t ->
  Controller.t ->
  Vm_placement.t ->
  Workload.group array ->
  events:int ->
  events_per_second:float ->
  li:Li_et_al.t option ->
  result
(** Drives [events] membership events through a controller prepared by
    {!setup_controller}. Mean and max are computed over the switches of each
    layer (hypervisor means are over hosts that run at least one VM). When
    [li] is given, the same event stream is replayed against it. *)

type failure_result = {
  trials : int;
  affected_fraction_mean : float;
  affected_fraction_max : float;
  rule_updates_per_hypervisor_mean : float;
      (** flow-rule updates per touched hypervisor, averaged over trials --
          the paper's "hypervisor switches incur average (max) updates of
          176.9 (1712) and 674.9 (1852) per failure event" metric *)
  rule_updates_per_hypervisor_max : float;
  recovery_affected_fraction_mean : float;
      (** groups whose paths moved {e back} when the victim recovered —
          recovery is a topology change too, not a free undo *)
  recovery_updates_per_hypervisor_mean : float;
}

val spine_failures : Rng.t -> Controller.t -> trials:int -> failure_result
(** Fails [trials] random spines one at a time (recovering in between) and
    measures group impact and hypervisor update fan-out (§5.1.3b). Both the
    failure and the recovery reports are accounted, and the controller's
    invariants are re-checked after each (inside the controller itself). *)

val core_failures : Rng.t -> Controller.t -> trials:int -> failure_result

(** {1 Churn under injected install faults}

    Twin-controller experiment for the fault-tolerant control plane: the
    same membership stream drives one controller wired to a perfect fabric
    and one wired through a seeded {!Fault} schedule (plus a deterministic
    subset of wedged switches). Periodic probes inject the same
    [(group, sender)] packet into both fabrics. Degraded groups on the
    faulty side fall back to default p-rules — more transmissions, never a
    lost receiver. *)

type fault_result = {
  fault_events : int;  (** membership events actually performed *)
  probes : int;  (** packets injected on the faulty side *)
  blackholes : int;
      (** probes on the faulty side that failed to reach every member —
          must be zero: degradation trades traffic, never delivery *)
  clean_tx : int;  (** Σ transmissions over probes, perfect controller *)
  faulty_tx : int;  (** Σ transmissions over the same probes, faulted *)
  extra_traffic : float;  (** [faulty_tx /. clean_tx -. 1.0] *)
  install : Controller.install_stats;  (** faulty controller's counters *)
  faults : Fault.stats;
}

val fault_run :
  ?flight:Elmo_telemetry.Flight_recorder.t ->
  seed:int ->
  Topology.t ->
  Params.t ->
  groups:int ->
  group_size:int ->
  events:int ->
  rate:float ->
  probe_every:int ->
  fault_result
(** Runs [events] membership events over [groups] groups of initial size
    [group_size] (all roles [Both]), probing every [probe_every] events and
    once at the end. [rate] is the overall per-operation fault probability
    ({!Fault.random}); [rate = 0.0] wires the faulty side reliably too,
    making it a self-check (expect [extra_traffic = 0.0]).

    Every membership op is recorded into [flight] (default: the ambient
    {!Elmo_telemetry.Flight_recorder}), along with ["probe.blackhole"]
    notes (group, sender) and ["install.exhausted"] notes (event index,
    cumulative count) as they happen — so a dump on anomaly shows the ops
    that led up to it. *)
