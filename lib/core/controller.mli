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

val role_codec : role Byteio.Codec.t
(** The one durable form of a role (a u8: 0, 1, 2), shared by checkpoint
    and journal records. *)

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
  Topology.t -> Params.t -> t
(** By default the controller is stand-alone (pure state). Receiver joins
    and leaves first try {!Encoding.apply_delta}'s in-place fast path and
    fall back to a full re-encode only on structural change, budget
    overflow, or staleness. [Params.staleness_limit = 0] re-encodes every
    receiver membership event from scratch — the baseline the churn
    benchmark compares against.

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
    [Invalid_argument] if the group exists, a host repeats or a host is out
    of the topology's range, before changing any state. *)

val install_all : t -> (int * (int * role) list) list -> updates
(** Batch group setup (§5.1.3's "hundreds of thousands of groups"
    controller workload): installs each group as {!add_group} does, in
    ascending group order, and returns the merged updates — equal to
    {!merge_updates} over the per-group {!add_group} updates. The whole
    batch is checked first, once: a duplicate group (in the batch or
    already installed), a repeated host within one group or an
    out-of-range host raises [Invalid_argument] before any group is
    installed. The merged updates are gathered in host, leaf and pod
    bitmaps, so no list is sorted per group. *)

val batch_conflicts : t -> int
(** Always 0: every {!install_all} group is encoded against the live
    s-rule ledger, so no reservation is ever invalidated and re-encoded.
    Kept for callers that report the figure. *)

val remove_group : t -> group:int -> updates
(** Deletes a group and its s-rules. Raises [Not_found] for unknown
    groups. *)

val join : t -> group:int -> host:int -> role:role -> updates
(** Adds a member. Raises [Not_found] for unknown groups,
    [Invalid_argument] if the host is already a member. *)

val leave : t -> group:int -> host:int -> updates
(** Removes a member; removing the last one leaves an empty group (use
    {!remove_group} to delete). Raises [Not_found] if absent. *)

(** {2 Membership guards}

    The API-misuse checks that {!add_group}, {!remove_group}, {!join} and
    {!leave} run first, exposed on their own: each raises exactly what its
    entry point raises on the same arguments ([Invalid_argument] or
    [Not_found]) and changes nothing. A write-ahead log runs the guard
    before it records an op, so an op the controller refuses never reaches
    the log. *)

val check_add_group : t -> group:int -> (int * role) list -> unit
val check_remove_group : t -> group:int -> unit
val check_join : t -> group:int -> host:int -> unit
val check_leave : t -> group:int -> host:int -> unit

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

(** {1 Dirty-group tracking}

    Every mutation that can change a group's installed view — membership,
    encoding, overrides, stale markers — marks the group dirty. The verify
    layer drains the set to invalidate exactly the cached checks that
    could have changed ([Verify.check_config_cached]) instead of
    re-checking every group after every event, and {!installed_config}
    rebuilds only the marked groups' views, so one event's view and
    re-check cost the groups it touched. *)

val drain_dirty : t -> int list
(** Groups marked dirty since the last drain, sorted ascending; clears the
    set. A freshly created (or {!restore}d) controller reports every group
    it holds. *)

val memoized_views : t -> int
(** test-only: view-memo oracle (test_verify). Number of clean slots
    in {!installed_config}'s gid-ordered index: groups whose view record —
    the sorted member arrays and override list beside the borrowed encoding — is
    unchanged since it was last built. Zero on a fresh or {!restore}d
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

(** {1 Installed-configuration views}

    The read-only {!Installed_config.t} view of everything this controller has
    installed — memberships, encodings, overrides, health/denial state and
    compensated stale sites — consumed by the symbolic verification layer
    ([lib/verify]). A view borrows the controller's encodings and override
    records, so it is valid only until the next mutation: it is stamped
    with a generation counter that every mutation marking a group dirty
    bumps, and {!Verify} refuses a view that is no longer
    {!Installed_config.is_current}. *)

val installed_config : t -> Installed_config.t
(** The live controller's current installed configuration, to be read
    before the next mutation. Each group's [enc] and overrides are the
    live records, not copies: treat them as read-only. The controller
    keeps every group's view in one persistent gid-ordered index
    ({!Installed_config.index}); a mutation marks the group's slot (see
    {!drain_dirty}; the index is independent of draining), so views from
    successive calls share the [group_view] record of every unchanged
    group. One call rebuilds the marked slots' sorted member arrays and
    override lists and replaces them in the index, copying one O(log groups) path
    per slot, so a view already handed out never changes; beside that it
    lists the stale sites. The health and denial flags are one copy,
    shared by the views taken while no flag changes: a failure, recovery
    or denial makes the next call copy them afresh. Nothing is paid per
    clean group. After {!add_group}, {!remove_group}, {!install_all} or
    {!restore} the next call builds the index whole: one fold over the
    groups and one sort by gid, reusing the views of unchanged groups. *)

(** {1 Crash-consistent checkpoints}

    A checkpoint holds everything recovery needs, each fact once — the
    params, membership, Algorithm 1's choices per encoding, overrides,
    health/denial state, stale markers, and the counter block behind
    {!churn_stats} and {!install_stats}; trees, rule bitmaps and the
    s-rule ledger are derived from them on read. It exists only as bytes:
    {!write_snapshot} writes the live controller, {!read_snapshot} decodes
    the bytes into a {!snapshot}, and {!restore} builds a controller from
    that without re-emitting fabric installs (fabric state survives a
    controller crash). Replaying the journaled operation suffix then
    reproduces the pre-crash state bit-identically: same s-rule occupancy,
    same headers, same {!churn_stats}. *)

val write_snapshot : Byteio.Writer.t -> t -> unit
(** The controller's checkpoint bytes, for the crash-safe wire format
    ([lib/fault]'s [Wire]). A group's segment is its gid, its members in
    insertion order, its encoding's {!Encoding.choices} and its overrides.
    Each group's segment is encoded once and memoized until a mutation
    marks the group dirty, so a checkpoint encodes only the groups changed
    since the previous one, plus the health, denial and stale-site
    state. *)

val write_snapshot_cold : Byteio.Writer.t -> t -> unit
(** test-only: the canonical-decode oracle (test_wire). {!write_snapshot}
    with every group's segment encoded afresh; the memo is neither read
    nor filled, so a memoized segment that is not its group's encoding
    shows as a byte difference between the two. *)

val memoized_segments : t -> int
(** test-only: segment-memo oracle (test_wire). Number of groups whose
    checkpoint segment is memoized. *)

type snapshot
(** A decoded checkpoint, not yet restored. *)

val read_snapshot : Byteio.Reader.t -> snapshot
(** Inverse of {!write_snapshot}. A hostile-input boundary: every switch
    and host id, array length, and stale key is validated against the
    topology decoded from the same record, every bitmap is read at the
    width it gives, and only canonical bytes decode (gids, override hosts
    and stale keys strictly ascending, bitmap padding clear, shortest
    integer forms). Only states a controller can reach decode: no member
    host twice, an encoding exactly when the group has a receiver, built
    by {!Encoding.of_choices} over the tree of its receivers (so each
    layer names every tree switch exactly once) under the snapshot's
    params, and an s-rule ledger, counted from the encodings, with at most
    [fmax] entries per switch. It keeps each group's bytes for
    {!restore}; raises {!Byteio.Reader.Corrupt} on any violation (never a
    partial or silently wrong snapshot). *)

val snapshot_topology : snapshot -> Topology.t
(** The topology captured in the snapshot — what journal-op payloads
    written after it must be validated against. *)

val restore :
  ?fabric_hooks:fabric_hooks -> ?clock:Elmo_obs.Clock.t -> snapshot -> t
(** The controller a snapshot describes. It takes the snapshot's decoded
    encodings, ledger and arrays as its own, without copying them, so a
    snapshot restores once: a second [restore] of the same snapshot raises
    [Invalid_argument]. Decode the bytes again for a second controller.
    The restored controller starts with every group dirty and its view
    index cold. Its checkpoint segments are the bytes each group was
    decoded from (decoding is canonical, so they are its encoding), so
    its first checkpoint re-encodes only the groups changed since. *)
