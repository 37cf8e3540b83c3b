(** The logically-centralized Elmo controller (§2, §3.3, §5.1.3).

    Owns group membership, computes each group's encoding (Algorithm 1),
    tracks per-switch s-rule occupancy, and — the paper's control-plane
    story — reports exactly which hypervisors and network switches must be
    updated on every membership event, so churn experiments (Table 2) can
    measure update load. It also models spine/core failure recovery:
    multipath is disabled for affected groups and explicit upstream ports
    are chosen by greedy set cover (§3.3), updating only sender hypervisors.

    Members carry a role (sender, receiver, or both, §5.1.3a). The multicast
    tree spans the {e receivers}; senders hold encapsulation flow rules. *)

val log_src : Logs.src
(** Controller events are logged under "elmo.controller" (info: failures;
    debug: group operations). *)

type role = Sender | Receiver | Both

type updates = {
  hypervisors : int list;  (** hosts whose hypervisor flow rules changed *)
  leaves : int list;  (** leaf switches with group-table (s-rule) changes *)
  pods : int list;
      (** pods whose spines had s-rule changes (one update per physical
          spine of the pod) *)
}
(** Core switches never appear: Elmo installs no core state. *)

val no_updates : updates
val merge_updates : updates -> updates -> updates
val spine_update_count : Topology.t -> updates -> int
(** Physical spine updates implied by [pods]. *)

type install_error =
  | Timed_out  (** no acknowledgement; the rule may or may not have landed *)
  | Refused  (** the switch rejected the operation outright *)

type fabric_hooks = {
  install_leaf :
    leaf:int -> group:int -> Bitmap.t -> (unit, install_error) result;
  remove_leaf : leaf:int -> group:int -> (unit, install_error) result;
  install_pod :
    pod:int -> group:int -> Bitmap.t -> (unit, install_error) result;
  remove_pod : pod:int -> group:int -> (unit, install_error) result;
  read_leaf : leaf:int -> group:int -> Bitmap.t option;
  read_pod : pod:int -> group:int -> Bitmap.t option;
      (** Read-back of the switch's current entry for the group, used to
          verify every mutation (reads are never fault-injected — queries
          are idempotent and cheap to repeat). [read_pod] must answer [Some]
          only when {e every} physical spine of the pod holds the same
          bitmap. *)
}
(** Callbacks letting a dataplane (e.g. {e lib/dataplane}'s fabric) mirror
    the controller's s-rule installs, playing the role of P4Runtime.
    Mutations may fail — or lie: an [Ok] whose rule never landed is caught
    by the read-back verification of the reliable installation path. Build
    perfect hooks for a fabric with [Fabric.controller_hooks]; wrap them in
    a fault schedule with [Fault.hooks] (lib/fault). *)

type t

exception Invariant_violation of string
(** Raised by the group-lifecycle operations when runtime invariant
    checking is enabled (environment variable [ELMO_DEBUG_INVARIANTS] set
    to [1]/[true]/[yes]/[on]) and the s-rule ledger no longer agrees with
    the installed encodings. Always indicates a controller bug, never
    caller error; checking is off by default because {!Srule_state.check}
    is linear in the number of installed groups. *)

val create :
  ?fabric_hooks:fabric_hooks ->
  ?clock:Elmo_obs.Clock.t ->
  ?incremental:bool ->
  Topology.t -> Params.t -> t
(** By default the controller is stand-alone (pure state) and
    [incremental] (default [true]): receiver joins and leaves first try
    {!Encoding.apply_delta}'s in-place fast path and fall back to a full
    re-encode only on structural change, budget overflow, or staleness.
    [~incremental:false] re-encodes every receiver membership event from
    scratch — the baseline the churn benchmark compares against.

    [clock] (default: a fresh logical clock) paces the exponential backoff
    of the reliable installation path; on the default logical clock one
    microsecond of backoff is one clock tick, keeping faulty runs
    deterministic. *)

val topology : t -> Topology.t
val params : t -> Params.t
val srule_state : t -> Srule_state.t

(** {1 Group lifecycle} *)

val add_group : t -> group:int -> (int * role) list -> updates
(** Creates a group with initial (host, role) members. Raises
    [Invalid_argument] if the group exists or a host repeats. *)

val install_all : ?domains:int -> t -> (int * (int * role) list) list -> updates
(** Batch group setup, the two-phase parallel encode path (§5.1.3's
    "hundreds of thousands of groups" controller workload). The batch is
    processed in ascending group order: phase 1 encodes every group
    concurrently on [domains] worker domains (default 1: inline) against an
    immutable {!Srule_state.snapshot}; phase 2 commits the optimistic
    s-rule reservations. On a hook-free controller the commit phase is
    {e sharded by pod} ({!Shard}): the same worker domains run the commits
    (and the rare conflict re-encodes) concurrently for groups whose trees
    span disjoint pods, serializing gid order only within each pod's
    conflict set; a fabric-attached controller keeps the fully-sequential
    interleaved commit+install loop, since hook effects (degradations,
    stale markers) during one group's install are observable by later
    groups. Either way the resulting encodings, s-rule ledger and merged
    updates are bit-identical to calling {!add_group} per group in
    ascending group order, for any [domains]. Raises [Invalid_argument]
    (before any state change) on a duplicate group — in the batch or
    already installed — or a duplicate member host within one group. *)

val batch_conflicts : t -> int
(** Cumulative count of {!install_all} groups whose optimistic reservations
    were invalidated at commit time and had to be re-encoded. *)

val remove_group : t -> group:int -> updates

val join : t -> group:int -> host:int -> role:role -> updates
(** Adds a member. Raises [Not_found] for unknown groups,
    [Invalid_argument] if the host is already a member. *)

val leave : t -> group:int -> host:int -> updates
(** Removes a member; removing the last one leaves an empty group (use
    {!remove_group} to delete). Raises [Not_found] if absent. *)

val encoding : t -> group:int -> Encoding.t option
(** [None] when the group has no receivers. *)

val members : t -> group:int -> (int * role) list
val group_count : t -> int

type churn_stats = {
  fast_path : int;  (** receiver events absorbed in place *)
  reencoded : int;  (** receiver events that ran a full re-encode *)
}

val churn_stats : t -> churn_stats
(** Cumulative counts over the controller's lifetime. Sender joins/leaves
    touch no rules and count in neither bucket. *)

(** {1 Per-pod shards}

    The control plane's batch commit state partitions by pod (see
    {!Shard}); the controller keeps cumulative per-pod accounting so the
    benchmark and observability layers can see where batch and churn load
    lands. *)

type shard_stat = {
  shard_pod : int;
  shard_groups : int;
      (** batch groups committed on this shard; a cross-pod group counts
          once, on its lowest pod *)
  shard_conflicts : int;
      (** of which the optimistic reservations were invalidated *)
  shard_single_pod : int;  (** committed via the single-shard fast path *)
  shard_cross_pod : int;  (** committed via the cross-shard barrier *)
  shard_churn_events : int;
      (** join/leave events, attributed to the changed host's pod *)
}

val shard_stats : t -> shard_stat list
(** One entry per pod, ascending. Batch counters cover only the sharded
    commit path (hook-free {!install_all}); churn counters cover every
    {!join}/{!leave}. *)

(** {1 Dirty-group tracking}

    Every mutation that can change a group's installed view — membership,
    encoding, overrides, stale markers — marks the group dirty. The verify
    layer drains the set to invalidate exactly the cached delivery
    predicates that could have changed ([Verify.check_config_cached])
    instead of recompiling every group after every event. *)

val drain_dirty : t -> int list
(** Groups marked dirty since the last drain, sorted ascending; clears the
    set. A freshly created (or {!restore}d) controller reports every group
    it holds. *)

val dirty_count : t -> int
(** Number of currently dirty groups, without draining. *)

val memoized_views : t -> int
(** Number of groups whose checkpoint entry — the deep copy behind both
    the {!installed_config} view and the {!snapshot} — is memoized, i.e.
    unchanged since it was last copied. Zero on a fresh or {!restore}d
    controller. *)

(** {1 Reliable installation, degradation and reconciliation}

    Every fabric mutation runs through a verify-and-retry loop: perform the
    hook, read the entry back, and retry with exponential backoff (initial
    [Params.install_backoff_us], doubling, at most [Params.install_retries]
    retries) until the read-back matches the intended state. A switch whose
    {e install} exhausts the budget is {e denied}: excluded from s-rule
    eligibility for all future encodes, with affected groups re-encoded so
    their traffic falls back to p-rules or the default p-rule — extra
    transmissions, never a blackhole. An entry whose {e removal} exhausts
    the budget is tracked as stale and reconciled after every subsequent
    operation: retry the removal, else overwrite the entry with the exact
    bitmap of the group's current tree at that switch (a compensating entry
    forwards precisely what the default p-rule would). *)

type install_stats = {
  attempts : int;  (** fabric operations attempted, including retries *)
  retries : int;  (** attempts beyond the first, per operation *)
  exhausted : int;  (** operations that ran out of retry budget *)
  degradations : int;
      (** switches denied s-rule eligibility after exhausted installs *)
  compensations : int;
      (** stale entries overwritten with truthful bitmaps *)
  stale_entries : int;  (** stale markers currently outstanding *)
}

val install_stats : t -> install_stats

val header : t -> group:int -> sender:int -> Prule.header option
(** The header [sender]'s hypervisor currently pushes, including any
    failure-recovery upstream overrides. An override replaces only the
    upstream rules, so the header still shares the encoding version's
    {!Prule.down} with every other sender's. [None] if the group has no
    receivers (degrade to unicast). *)

(** {1 Failures (§3.3, §5.1.3b)} *)

type failure_report = {
  affected_groups : int;
      (** groups with at least one flow whose ECMP path crossed the failed
          switch (the paper's "impacted" groups) *)
  hypervisors_updated : int;  (** distinct sender hypervisors touched *)
  rule_updates_mean : float;
      (** flow-rule updates per touched hypervisor (the paper's 176.9 /
          674.9 "updates per failure event"), batched per host *)
  rule_updates_max : int;
  unicast_fallbacks : int;
      (** groups for which no covering upstream assignment exists and whose
          senders degrade to unicast *)
}

val fail_spine : t -> int -> failure_report
val recover_spine : t -> int -> failure_report
(** Re-enables multipath for groups that had overrides; same accounting. *)

val fail_core : t -> int -> failure_report
val recover_core : t -> int -> failure_report

val fail_link : t -> leaf:int -> plane:int -> failure_report
(** Leaf↔pod-spine link failure: the case where no single spine may reach
    every receiver, so the upstream assignment is a genuine greedy set cover
    over planes (§3.3); flows that no cover can serve degrade to unicast.
    Raises [Invalid_argument] on an out-of-range link. *)

val recover_link : t -> leaf:int -> plane:int -> failure_report

(** {1 Crash-consistent checkpoints}

    {!snapshot} deep-copies everything recovery needs — membership,
    encodings (bitmap aliasing preserved), overrides, the s-rule ledger,
    health/denial state, stale markers, and all counters. {!restore} builds
    a fresh controller from a snapshot without re-emitting fabric installs
    (fabric state survives a controller crash); replaying the journaled
    operation suffix then reproduces the pre-crash state bit-identically:
    same s-rule occupancy, same headers, same {!churn_stats}. A snapshot is
    immutable and reusable — restoring twice yields two independent
    controllers. *)

type snapshot

val snapshot : t -> snapshot
(** Each group's part is the memoized deep copy that {!installed_config}
    also serves, built once per change of the group: a snapshot costs a
    deep copy of each group changed since the previous snapshot or view,
    O(groups) small words to index the rest, and a copy of the s-rule
    ledger, health, denial and stale-site state. *)

val snapshot_groups :
  snapshot -> ((int * role) list * Installed_config.group_view) list
(** Per group, ascending by gid: the (host, role) members in insertion
    order (what {!members} returned at snapshot time) and the group's
    view, whose encoding and overrides are the snapshot's own copies.
    Snapshots and installed views taken while a group stays clean share
    one [group_view] record for it. *)

val restore :
  ?fabric_hooks:fabric_hooks -> ?clock:Elmo_obs.Clock.t -> snapshot -> t

val write_snapshot : Byteio.Writer.t -> snapshot -> unit
(** Durable byte-level form of a snapshot, for the crash-safe wire format
    ([lib/fault]'s [Wire]). Encoding aliasing graphs are preserved (see
    {!Encoding.write}), so a snapshot that round-trips through bytes
    restores bit-identically. Each group's bytes are encoded once per
    memoized copy and reused by every later snapshot that shares it. *)

val read_snapshot : Byteio.Reader.t -> snapshot
(** Inverse of {!write_snapshot}. A hostile-input boundary: every switch
    id, bitmap width, array length, and stale key is validated against the
    topology decoded from the same record; raises {!Byteio.Reader.Corrupt}
    on any violation (never a partial or silently wrong snapshot). *)

val snapshot_topology : snapshot -> Topology.t
(** The topology captured in the snapshot — what journal-op payloads
    written after it must be validated against. *)

(** {1 Installed-configuration views}

    The pure {!Installed_config.t} view of everything this controller has
    installed — memberships, encodings, overrides, health/denial state and
    compensated stale sites — consumed by the symbolic verification layer
    ([lib/verify]). Both producers hand out deep copies, so a view never
    aliases controller state and stays valid across later mutations. *)

val installed_config : t -> Installed_config.t
(** The live controller's current installed configuration. Each group's
    view is deep-copied once and memoized until a mutation marks the group
    dirty (see {!drain_dirty}; the memo is independent of draining), so
    views from successive calls share the [group_view] record of every
    unchanged group. One call costs a deep copy of each group changed since
    the previous call or {!snapshot}, O(groups) small words to index the rest, and a copy
    of the health, denial and stale-site state. *)

val installed_config_of_snapshot : snapshot -> Installed_config.t
(** The same view extracted from a crash-consistent checkpoint, without
    building a controller: what a {!Replica}'s recovery target looked like
    at checkpoint time. Its group records are the snapshot's own (see
    {!snapshot_groups}). *)
