(** Per-group Elmo encoding: the common downstream rule sets plus per-sender
    header construction (§3.1–3.2).

    The downstream spine and leaf layers are clustered once per group
    (Algorithm 1) and shared by all senders; the upstream leaf/spine rules
    and the core rule are sender-specific and synthesized on demand by
    {!header_for_sender} (§3.1 D2b–c). *)

type t = {
  mutable tree : Tree.t;  (** kept current across {!apply_delta} fast paths *)
  params : Params.t;
  d_spine : Clustering.result;  (** logical-spine layer, ids are pod numbers *)
  d_leaf : Clustering.result;  (** leaf layer, ids are global leaf numbers *)
  mutable stale : int;
      (** fast-path mutations applied since the last from-scratch encode *)
  idx_kind : Bytes.t;
      (** per-leaf dispatch byte: 0 = not in tree, 1 = p-rule, 2 = s-rule,
          3 = default rule *)
  idx_exact : Bitmap.t array;
      (** per-leaf exact tree bitmap (a shared width-0 dummy when absent) *)
  idx_rule : Prule.prule array;
      (** per-leaf containing p-rule (a shared dummy when not in one) *)
  idx_site_bm : Bitmap.t array;
      (** per-leaf rule bitmap the fast path mutates *)
  scratch_a : Bitmap.t;  (** scratch for the prospective budget check *)
  scratch_b : Bitmap.t;  (** scratch for rule refreshes *)
  mutable down : Prule.down option;
      (** this version's shared downstream sections, once built *)
}
(** The [idx_*] arrays and scratch bitmaps are internal to the
    {!apply_delta} fast path: a flat per-leaf index (rebuilt by every
    from-scratch encode and by {!copy}) that makes steady-state delta
    application allocation-free — no list scans, no option wrapping, no
    fresh bitmaps. [down] is {!header_for_sender}'s cache. Treat them all
    as private. *)

exception Internal_error of string
(** Raised only when an internal invariant is violated (a fresh-snapshot
    commit diverging, a pre-checked tree delta being rejected). Reaching it
    indicates a bug in the encoder, never caller error. *)

val encode :
  ?legacy_leaf:(int -> bool) ->
  ?legacy_pod:(int -> bool) ->
  ?srule_ok_leaf:(int -> bool) ->
  ?srule_ok_pod:(int -> bool) ->
  Params.t -> Srule_state.t -> Tree.t -> t
(** Runs Algorithm 1 on both downstream layers, reserving s-rule space in
    the given state as it goes (leaf layer first, as it dominates header
    usage; then spine). Internally this is {!encode_txn} against a fresh
    snapshot of [srules] followed by an immediate (infallible) commit, so
    the sequential and parallel batch paths share every encoding decision.

    [legacy_leaf] / [legacy_pod] mark switches that cannot parse Elmo
    headers (§7 incremental deployment): they are excluded from p-rule
    clustering and served by group-table entries directly — their
    group-table capacity remains the scalability bottleneck, exactly as the
    paper notes. A legacy switch whose table is full falls to the default
    p-rule, which it cannot read: those receivers are lost, surfacing as a
    delivery failure in the data-plane simulator. Default: no legacy
    switches.

    [srule_ok_leaf] / [srule_ok_pod] restrict s-rule {e eligibility}: a
    switch for which the predicate is [false] is treated as if its group
    table were full — its traffic folds into the default p-rule — without
    ever probing (or reserving) ledger capacity. The controller uses these
    to degrade switches whose rule installations keep failing: extra
    traffic via the default p-rule, but no dependence on unreachable
    switch state. Default: every switch is eligible. *)

val encode_txn :
  ?legacy_leaf:(int -> bool) ->
  ?legacy_pod:(int -> bool) ->
  ?srule_ok_leaf:(int -> bool) ->
  ?srule_ok_pod:(int -> bool) ->
  Params.t -> Srule_state.txn -> Tree.t -> t
(** Like {!encode} but pure with respect to the shared ledger: capacity is
    probed and reserved on the transaction only, so any number of group
    encodes can run concurrently against transactions over one snapshot.
    The caller must later {!Srule_state.commit} the transaction — in batch
    order — and on [Error _] discard this encoding and re-run {!encode}
    against the live ledger. *)

(** {1 Incremental deltas}

    The delta fast path of the incremental encoding engine: a membership
    event whose host lands on a leaf the tree already spans flips one port
    bit in the rule that leaf already occupies (p-rule, s-rule, or default),
    in place, without re-running Algorithm 1. The spine and core sections
    are untouched (leaf and pod sets are unchanged) and the header size
    cannot change (bitmap widths are fixed), so only the bit flip and — for
    shared rules — a redundancy-budget re-check are needed. Structural
    events fall back to {!encode}, the correctness oracle. *)

type delta =
  | Join of { host : int; leaf : int; port : int }
  | Leave of { host : int; leaf : int; port : int }
      (** [host]'s leaf switch and its host port on that leaf. *)

type site =
  | Site_prule  (** the leaf sits in a (shared or singleton) p-rule *)
  | Site_srule  (** the leaf holds an s-rule: exact bitmap, switch update *)
  | Site_default  (** the leaf was folded into the default p-rule *)

type applied = {
  site : site;
  header_changed : bool;
      (** did the common downstream section change? [false] when the flipped
          bit was already covered (another sharing switch contributed it) or
          the change is confined to an s-rule — then only the changed leaf's
          co-located senders need new upstream rules. The affected leaf is
          the delta's [leaf] field; it is not repeated here so every
          steady-state outcome is a preallocated static value. *)
}

type reencode_reason =
  | New_leaf  (** join on a leaf the tree does not span *)
  | Emptied_leaf  (** leave of the last member behind a leaf *)
  | Budget_exceeded  (** the shared rule would blow the redundancy budget *)
  | Stale  (** [Params.staleness_limit] fast mutations accumulated *)

type outcome = Applied of applied | Reencode of reencode_reason

val delta_of_host : Topology.t -> joining:bool -> int -> delta
(** Locates the host's leaf and port. *)

val apply_delta : t -> delta -> outcome
(** Applies a membership delta in place when the fast path holds. On
    [Applied] the encoding {e and its tree} reflect the new membership (the
    tree's member buffer is updated in place; [stale] is incremented) and
    the shared down is dropped (one field store), so the next
    {!header_for_sender} builds a new one; headers built before keep the
    old one, unchanged. On [Reencode _] {b nothing was mutated} — the
    caller must run {!encode} on the new membership and release/diff this
    encoding as usual.

    Steady-state applications are allocation-free: checked statically by
    the [zero-alloc] lint rule and at runtime by the hot-path harness. *)

val release : Srule_state.t -> t -> unit
(** Returns the encoding's s-rule reservations (used on group removal or
    re-encoding during churn). *)

val header_for_sender : t -> sender:int -> Prule.header
(** The full header the sender's hypervisor pushes. [sender] is a host; it
    need not host a member VM.

    Only the upstream rules and the core rule are built per sender. The
    downstream sections are one {!Prule.down} per encoding version, shared
    [==] by every sender's header: the first call after {!encode},
    {!apply_delta}, {!copy} or {!read} builds it (and encodes its wire),
    from copies of the rule bitmaps, so the fast path's in-place flips
    never reach a down a header already carries. {!encode} itself does not
    build it. *)

val header_bytes : t -> sender:int -> int

val covered_by_prules : t -> bool
(** True when no s-rule and no default rule was needed (strict coverage). *)

val covered_without_default : t -> bool
(** True when no default rule was needed (s-rules allowed) — the paper's
    "groups covered using non-default p-rules" metric (Fig. 4/5 left,
    Table 1 "without using a default p-rule"). *)

val uses_default : t -> bool
val srule_entries : t -> int
(** Physical group-table entries this encoding occupies (a pod-spine s-rule
    counts once per physical spine of the pod). *)

val prule_count : t -> int
(** Downstream p-rules in the header (both layers, excluding defaults). *)

val copy : t -> t
(** Deep copy for crash-consistent checkpoints: fresh tree and rule bitmaps,
    with the original's aliasing graph preserved (a rule bitmap that
    physically aliases a tree bitmap still does in the copy — the delta fast
    path depends on it). The copy holds no s-rule reservations of its own;
    the caller pairs it with a matching {!Srule_state.copy}. *)

val write : Byteio.Writer.t -> t -> unit
(** Durable wire codec — the byte-level analogue of {!copy}. Each distinct
    bitmap object is written inline once and back-referenced thereafter, so
    the serialized form carries the encoding's aliasing graph and {!read}
    reconstructs the exact object structure (which is what makes a restored
    controller predicate-pointer-identical to the original). *)

val read : Topology.t -> Byteio.Reader.t -> t
(** Inverse of {!write}. Validates every switch id, bitmap width, and
    structural invariant (ascending tree sections, sorted members, stale
    count) against the topology; raises {!Byteio.Reader.Corrupt} on any
    malformed or hostile input. Rebuilds the fast-path leaf index and fresh
    scratch bitmaps. *)
