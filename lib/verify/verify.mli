(** The symbolic forwarding-equivalence layer: compiles an installed
    configuration ({!Installed_config.t}) into canonical delivery
    predicates ({!Pred.t}) and decides equivalence/subsumption with
    counterexample witnesses.

    Three compilers interpret the same rule language at different levels:

    - {!compile} — sender-agnostic: the set of tree edges the installed
      downstream state (p-rules, compensated stale entries, s-rules,
      default p-rules) guarantees to {e every} sender, intersected with
      the group's specification tree (the {!Tree.t} of its receivers).
      Spurious ports from rule sharing are abstracted away, so two
      encodings of the same membership — e.g. the incremental engine's
      and a from-scratch re-encode's — compile to the {e same} predicate
      exactly when they deliver to the same receivers.
    - {!compile_sender} — per-sender: the exact delivery edges of one
      sender's packet, mirroring the data-plane walk (upstream rules,
      per-sender overrides, ECMP choices, switch/link health) without
      abstracting spurious ports. The chaos oracle's zero-blackhole
      property is [subsumes ~big:(compile_sender faulted) ~small:
      (receiver_endpoints ...)], and {!sender_blackholes} decides it for
      a whole view without building per-sender predicates. Note this is
      a {e coverage} statement: duplicate delivery is invisible to a
      set-based predicate and stays the packet-level probe's job.
    - {!header_pred} — header-only: interprets a raw {!Prule.header} on an
      all-healthy fabric with {e empty} group tables (p-rules and default
      only). Because it depends on nothing but the header's own bits, it
      is the codec round-trip oracle: encode/decode must preserve it.

    All predicates from one checking session must be interned in one
    {!Pred.ctx}. *)

type witness = {
  w_group : int;
  w_switch : Pred.switch;
  w_port : int;
}
(** A counterexample: the canonically first forwarding edge on which two
    predicates disagree. Because predicates sort core before spines before
    leaves, the witness names the {e topmost} divergence. *)

val pp_witness : Format.formatter -> witness -> unit
(** Renders [gid/switch/port], e.g. [7/leaf3/5]. *)

(** {1 Compilers}

    Every function below that takes an {!Installed_config.t} first checks
    that the view is {!Installed_config.is_current} and raises
    [Invalid_argument] otherwise: a view from
    {!Controller.installed_config} borrows the controller's encodings, so
    it must be read before the controller's next mutation. A view built
    with {!Installed_config.make} is always current. *)

val compile : Pred.ctx -> Installed_config.t -> group:int -> Pred.t
(** The canonical delivery predicate of one group: for every receiver pod,
    leaf and host port of the specification tree, the edge is present iff
    the installed state forwards on it under {e both} reachability modes
    (in-pod via the upstream spine rule's tree bitmap; cross-pod — on
    multi-pod topologies — via the core bitmap and the downstream spine
    assignment), with each layer gated on its parent. Downstream
    assignments follow the switch parser: p-rule scan, then the
    compensated truthful entry at a stale site, then the s-rule, then the
    default p-rule. A group with no receivers or no installed encoding
    compiles to the empty predicate. *)

val intent : Pred.ctx -> Installed_config.t -> group:int -> Pred.t
(** What the group's membership {e means}: every edge of the specification
    tree present. [compile cfg g] equals [intent cfg g] exactly when the
    installed state loses no receiver. *)

val compile_sender :
  Pred.ctx -> Installed_config.t -> group:int -> sender:int -> Pred.t option
(** The exact delivery edges of [sender]'s packet under the installed
    state and recorded health: upstream overrides replace multipath, ECMP
    plane/core choices use {!Ecmp.flow_hash}, and dead spines, cores and
    leaf↔spine links cut the walk exactly where {!Fabric.inject} would
    lose the packet. Unlike {!compile} this does {e not} intersect with
    the specification tree — spurious ports from rule sharing appear, as
    they do on the wire. [None] when the group has no encoding or the
    sender is degraded to hypervisor unicast (nothing traverses the
    fabric).

    The edges are the union of three route parts: the sender leaf's tree
    ports minus the sender's own; per live upstream plane, the in-pod part
    of (sender leaf, plane); and, when a chosen core on that plane is
    alive, the cross-pod part of (sender pod, plane), which is the same
    for every live core on the plane. {!sender_blackholes} walks the same
    parts for the leaves they reach. *)

val receiver_endpoints :
  Pred.ctx -> Installed_config.t -> group:int -> sender:int -> Pred.t
(** The endpoint-only obligation of a sender: one [Leaf] edge per receiver
    other than the sender itself. The [small] side of the zero-blackhole
    subsumption. *)

val header_pred :
  Pred.ctx -> Topology.t -> sender:int -> Prule.header -> Pred.t
(** Interprets a raw header from [sender]'s leaf on an all-healthy fabric
    with empty group tables: upstream rules walk up (any plane — the
    logical predicate is plane-free), the core rule fans out to pods, and
    each downstream layer matches p-rules then the default. Depends only
    on the header's bits, making it the codec round-trip invariant. *)

(** {1 Hostile-header admission} *)

type admit_error =
  | Malformed of Header_codec.decode_error
      (** structural rejection by [Header_codec.decode_checked] *)
  | Over_delivery of witness
      (** the header's own bits deliver to an edge outside the intent; the
          witness names the first such edge (its group field is 0 —
          admission is per-header, not per-group) *)

val pp_admit_error : Format.formatter -> admit_error -> unit

val admit_header :
  Pred.ctx ->
  Topology.t ->
  intent:Pred.t ->
  sender:int ->
  bytes ->
  (Prule.header, admit_error) result
(** Total admission control for headers of unknown provenance: structural
    decoding via [Header_codec.decode_checked], then the semantic gate —
    the header is accepted only when {!header_pred} of its own bits is
    subsumed by [intent] (interned in the same [ctx]). Never raises, and
    never accepts a header that would deliver beyond the intent. *)

(** {1 Decision procedures} *)

val equiv : Pred.t -> Pred.t -> bool
(** {!Pred.equiv} — constant-time pointer equality within one universe. *)

val subsumes : big:Pred.t -> small:Pred.t -> bool
(** {!Pred.subsumes}. *)

val diff : group:int -> Pred.t -> Pred.t -> witness option
(** The first edge present in exactly one predicate, as a witness. *)

val check_equiv : group:int -> Pred.t -> Pred.t -> (unit, witness) result
(** [Ok ()] iff the edge sets are equal; otherwise the first divergence. *)

val check_subsumes :
  group:int -> big:Pred.t -> small:Pred.t -> (unit, witness) result
(** [Ok ()] iff every edge of [small] is in [big]; otherwise the first
    missing edge. *)

val check_config : Installed_config.t -> (int, witness) result
(** Checks [compile = intent] for every group of the view, in ascending
    group order. [Ok n] after checking [n] groups; [Error w] names the
    first counterexample — the first receiver-path edge the installed
    state fails to cover. It equals, witness for witness, the fold of
    [check_equiv (compile …) (intent …)] over {!Installed_config.group_ids}
    that stops at the first [Error], but interns no predicate: {!compile}
    is {!intent} minus the spec edges the installed state does not cover,
    so one walk of each group's receivers (pod, then leaf, then port)
    finds the canonically smallest uncovered edge.

    The walk costs one step per receiver leaf. A leaf's receivers are one
    run of the ascending [receivers] array; their ports are set in a
    scratch bitmap, and the run passes when they lie within both the
    leaf's installed assignment and its tree bitmap. Only a failing run is
    scanned for its first uncovered host. Core and spine edges sort before
    leaf edges, so once an uncovered edge is found no later run is tested.
    Each group's assignments are resolved through one index of its rule
    records (the first p-rule naming each switch, else the first s-rule),
    built from the records themselves and not from the encoding's slot
    dispatch, with a fabric-sized scratch allocated once per call. *)

val check_controller : Controller.t -> (int, witness) result
(** {!check_config} on the controller's own {!Controller.installed_config}
    view — a live controller checked against its own trees. *)

(** {1 Zero-blackhole sweep} *)

val sender_blackholes : Installed_config.t -> witness list
(** The zero-blackhole proof of a whole view: for every group in ascending
    gid order, then every sender in ascending host order, the first
    receiver endpoint the sender's packet does not reach, if any. It
    equals, witness for witness, the per-sender fold
    [check_subsumes ~big:(compile_sender …) ~small:(receiver_endpoints …)]
    that keeps each [Error] and skips senders with no multicast path
    ([compile_sender = None]: no encoding, or unicast-degraded). Empty is
    the proof.

    It decides each sender on leaf sets. One pass over a group's
    receivers records the receiver leaves, the leaves whose assignment
    misses a receiver's port ("bad") and the leaves whose tree leaf bitmap
    does ("local-bad"). The leaves {!compile_sender}'s in-pod and
    cross-pod parts reach are memoized per group by (sender pod, plane),
    link- and spine-gated as the parts are. A sender on leaf [sl] passes
    when [sl] is not local-bad, no leaf other than [sl] is bad, and every
    receiver leaf is [sl] or reached on one of the sender's planes. A
    sender that fails this test scans its receivers in ascending order
    for the first one not covered: not the sender itself, on [sl] with its
    port outside the tree's leaf bitmap, or on another leaf that is
    unreached or whose assignment lacks the port. No per-sender predicate
    is built. *)

(** {1 Incremental checking}

    A group's check depends only on its own view and the stale table —
    never on another group, never on the health arrays — so an untouched
    group that passed last time still passes. A {!cache} keeps the set of
    gids whose last check passed and the verdict of its last call;
    re-checking after an event then re-walks only the groups the caller
    marks dirty, making the per-event oracle cost proportional to the
    event's footprint instead of the total group count. *)

type cache

val create_cache : unit -> cache

val is_cached : cache -> int -> bool
(** Did the group's last check through this cache pass, with no
    invalidation since? *)

val cache_stats : cache -> int * int
(** Cumulative (hits, misses): groups accepted from cache vs re-checked.
    A walk that stops at a witness counts only the groups before it. *)

val check_config_cached :
  cache -> Installed_config.t -> dirty:int list -> (int, witness) result
(** {!check_config} through the cache: every group in [dirty] is dropped
    and re-checked (a removed group is simply dropped — the view no longer
    lists it); every other cached group passes without a re-check.
    Equivalent to {!check_config} — the same [Ok n], or the same witness —
    whenever [dirty] includes every group whose view changed since the
    previous call on this cache; {!Controller.drain_dirty} provides
    exactly that set.

    When the previous call passed every group of a view with the same
    producing controller (the same generation counter), and the cached
    gids and the dirty ones the view lists add up to the view's groups,
    the call costs O(dirty · log groups) plus the dirty groups' checks,
    nothing per clean group. Otherwise it walks every group in gid order,
    accepting the cached ones: after a cold start or a witness last time
    the cached gids stand; for a view from another controller (a view
    built by hand included) or one the cached and dirty gids do not add
    up to, they are dropped first. The check's fabric-sized scratch is
    kept in the cache across calls, so an event allocates no scratch. *)

val check_controller_cached : cache -> Controller.t -> (int, witness) result
(** [check_config_cached] on the controller's own view, draining the
    controller's dirty-group set as the invalidation list. *)

(** {1 Packet-level probe}

    The packet interpretation of the same semantics, extracted here so the
    churn driver and the fault tests share one copy. *)

val probe :
  Controller.t -> Fabric.t -> group:int -> sender:int -> (bool * int) option
(** Compute the controller's current header for [(group, sender)], inject
    it into the fabric, and report [(all receivers other than the sender
    got exactly one copy, link transmissions)]. [None] when the group
    currently has no multicast path to probe (no encoding, or unicast
    fallback — delivered by the hypervisor, not the fabric). *)
