(** The paper's large-scale simulation (§5.1.1–5.1.2): places tenants on a
    Clos fabric, generates multicast groups, encodes every group with
    Algorithm 1 across a sweep of redundancy limits R, and reports the three
    panels of Figures 4/5 (plus the in-text variants: Uniform group sizes,
    constrained s-rule capacity, reduced header budget).

    Groups are streamed — the same seed regenerates the identical workload
    for every R — and each is encoded on arrival against the sweep point's
    one s-rule ledger, so memory stays flat even at the paper's
    million-group scale. *)

type config = {
  topo : Topology.t;
  tenants : int;
  total_groups : int;
  strategy : Vm_placement.strategy;
  dist : Group_dist.kind;
  params : Params.t;  (** R is overridden per sweep point *)
  seed : int;
}

val default_config : unit -> config
(** The paper's setup: Facebook fabric, 3,000 tenants, 1M groups scaled by
    [ELMO_GROUPS] (default 100_000; [ELMO_FULL=1] runs the full million),
    P = 12 placement, WVE sizes, seed 42. Because coverage at the paper's scale is shaped by group
    tables filling up, [fmax] is scaled by the same factor as the group
    count (30,000 entries at 1M groups). *)

type point = {
  r : int;
  total_groups : int;
  covered : int;
      (** groups encoded without a default p-rule — the paper's coverage
          metric (s-rules allowed) *)
  covered_pure_prules : int;  (** stricter: neither s-rules nor default *)
  groups_with_default : int;
  groups_with_srules : int;
  leaf_srules : Stats.summary;  (** occupancy per leaf switch *)
  spine_srules : Stats.summary;  (** per physical spine *)
  header_bytes : Stats.summary;  (** per group, random member as sender *)
  overhead_64 : float;  (** Σ actual bytes / Σ ideal bytes at 64 B payload *)
  overhead_1500 : float;
  unicast_overhead : float;  (** transmission ratio of the unicast baseline *)
  overlay_overhead : float;
  li_leaf_entries : Stats.summary;  (** Li et al. aggregated entries/leaf *)
  li_spine_entries : Stats.summary;
}

val run_point : config -> r:int -> point
val run : config -> r_values:int list -> point list

val pp_point : Format.formatter -> point -> unit
