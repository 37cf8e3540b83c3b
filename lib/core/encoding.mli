(** Per-group Elmo encoding: the common downstream rule sets plus per-sender
    header construction (§3.1–3.2).

    The downstream spine and leaf layers are clustered once per group
    (Algorithm 1) and shared by all senders; the upstream leaf/spine rules
    and the core rule are sender-specific and synthesized on demand by
    {!header_for_sender} (§3.1 D2b–c), all but the sender's own leaf ports
    once per sender leaf. *)

type t = {
  tree : Tree.t;
      (** kept current across {!apply_delta} fast paths, in place; its
          leaf index ({!Tree.leaf_slot}) is the encoding's too *)
  params : Params.t;
  d_spine : Clustering.result;  (** logical-spine layer, ids are pod numbers *)
  d_leaf : Clustering.result;
      (** leaf layer, ids are global leaf numbers. Every rule of both
          layers owns its bitmap: none is a tree bitmap or another
          rule's. *)
  mutable stale : int;
      (** fast-path mutations applied since the last from-scratch encode *)
  idx_kind : Bytes.t;
      (** per tree leaf slot, a dispatch byte: 1 = p-rule, 2 = s-rule,
          3 = default rule (every tree leaf sits in exactly one rule). The
          [idx_*] arrays have one entry per slot of [tree]'s leaf index,
          so the dispatch is sized by the tree, not the fabric. *)
  idx_rule : Prule.prule array;
      (** per slot, the containing p-rule (a shared dummy when not in one) *)
  idx_site_bm : Bitmap.t array;
      (** per slot, the rule bitmap the fast path mutates (a shared dummy
          when in no rule) *)
  scratch_a : Bitmap.t;  (** scratch for the prospective budget check *)
  scratch_b : Bitmap.t;  (** scratch for rule refreshes *)
  mutable down : Prule.down option;
      (** the last shared downstream sections built *)
  mutable down_stale : bool;
      (** has a fast-path mutation outdated [down]? *)
  mutable upper : memo option;
      (** the header parts that depend only on the sender's leaf, once the
          first {!header_for_sender} asked for them *)
}
(** The [idx_*] arrays and scratch bitmaps are internal to the
    {!apply_delta} fast path: the rule dispatch of each of the tree's leaf
    slots (rebuilt by every from-scratch encode and by {!of_choices}) that
    makes steady-state delta application allocation-free — no list scans,
    no option wrapping, no fresh bitmaps. {!Traffic.measure} reads a tree
    leaf's rule bitmap from [idx_site_bm] too. The leaf ids and their exact
    bitmaps are the tree's own arrays. [down], [down_stale] and [upper]
    are {!header_for_sender}'s caches. Treat them all as private. *)

and memo = private {
  slots : upper array;
      (** per tree leaf slot ({!Tree.leaf_slot}); a shared blank until the
          leaf's first header *)
  mutable off_tree : (int * upper) list;
      (** the sender leaves the tree does not span (sender-only members),
          by leaf id, each added by its first header *)
  leaf_up : Bitmap.t;  (** the empty up ports of every upstream leaf rule *)
  spine_up : Bitmap.t;  (** the empty up ports of every upstream spine rule *)
}

and upper = private {
  multipath : bool;  (** does the tree reach beyond the leaf? *)
  u_spine : Prule.uprule option;
  core : Bitmap.t option;
}
(** What every header of senders on one leaf shares: all of it depends on
    the tree's leaf and pod sets, which {!apply_delta} never changes. *)

exception Internal_error of string
(** Raised only when an internal invariant is violated (a pre-checked
    tree delta being rejected). Reaching it indicates a bug in the
    encoder, never caller error. *)

val encode :
  ?legacy_leaf:(int -> bool) ->
  ?legacy_pod:(int -> bool) ->
  ?srule_ok_leaf:(int -> bool) ->
  ?srule_ok_pod:(int -> bool) ->
  Params.t -> Srule_state.t -> Tree.t -> t
(** Runs Algorithm 1 on both downstream layers, reserving s-rule space in
    the given state as it goes (leaf layer first, as it dominates header
    usage; then spine). Each capacity probe that finds space reserves it
    on the live ledger at once.

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

(** {1 Incremental deltas}

    The delta fast path of the incremental encoding engine: a membership
    event whose host lands on a leaf the tree already spans flips one port
    bit in the rule that leaf already occupies (p-rule, s-rule, or default),
    in place, without re-running Algorithm 1: it flips the port in the
    tree's leaf bitmap and in the rule's own bitmap. The spine and core
    sections are untouched (leaf and pod sets are unchanged) and the header size
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
    the shared down is marked stale (one field store), so the next
    {!header_for_sender} builds a new one; headers built before keep the
    old one, unchanged. On [Reencode _] {b nothing was mutated} — the
    caller must run {!encode} on the new membership and release/diff this
    encoding as usual.

    Steady-state applications are allocation-free: checked statically by
    the [zero-alloc] lint rule and at runtime by the hot-path harness. *)

val release : Srule_state.t -> t -> unit
(** Returns the encoding's s-rule reservations (used on group removal or
    re-encoding during churn). *)

val reserve : Srule_state.t -> t -> unit
(** The inverse of {!release}: reserves one entry per s-rule of the
    encoding, as {!encode} did — how a restored controller's ledger is
    derived from its encodings. Raises {!Srule_state.Full} at a switch
    already holding [fmax] entries; the entries before it stay reserved. *)

val header_for_sender : t -> sender:int -> Prule.header
(** The full header the sender's hypervisor pushes. [sender] is a host; it
    need not host a member VM.

    Only the upstream leaf rule's down ports are built per sender: a copy
    of the leaf's member ports with the sender's own port cleared, never
    shared between two headers. The rest is shared, under one contract:
    no caller mutates a header's bitmaps.
    - The downstream sections are one {!Prule.down} per encoding version,
      shared [==] by every sender's header: the first call after
      {!encode}, {!apply_delta} or {!of_choices} builds it (and encodes
      its wire), from copies of the rule bitmaps, so the fast path's in-place
      flips never reach a down a header already carries. A rule the fast
      path left unchanged keeps the previous down's copy: no down's copy
      is ever mutated, so two downs may share it.
    - The upstream leaf rule's up ports and multipath flag, the upstream
      spine rule and the core rule depend only on the sender's leaf. The
      first header of each leaf the tree spans builds them, from copies;
      every later header of a sender on that leaf shares them [==], for as
      long as the encoding lives (and beyond, through {!inherit_caches}).
      The leaves of sender-only members, which the tree does not span, are
      memoized the same way, in a list beside the slots.

    {!encode} itself builds neither, so installing a group pays for them
    only when its first header is asked for. *)

val inherit_caches : from:t -> t -> unit
(** [inherit_caches ~from t] hands [from]'s header caches to [t], a later
    encoding of the same group that has not built a header yet, so that
    [t]'s first headers rebuild only what changed:
    - [t]'s first down keeps the copies of [from]'s last down's rules that
      still equal [t]'s rules (same position, switches and bitmap);
    - a leaf's memoized upper parts depend only on the tree's pod set and
      the leaf's pod's spine bitmap, so [t] keeps those of the leaves
      whose pod's spine bitmap is unchanged, when the pod set is too.
    Whatever is kept is shared, under {!header_for_sender}'s contract. *)

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

(** {1 Durable form}

    An encoding is stated by its tree, which the group's receivers fix,
    and by Algorithm 1's choices: the switches each p-rule names, in
    order, the s-rule switches and the default rule's switches, per
    layer, plus the [stale] count. Every rule bitmap is the OR of its
    switches' tree bitmaps — {!encode} makes it so and {!apply_delta}
    keeps it so — so no bitmap travels. *)

type choices
(** Algorithm 1's choices for both downstream layers, and the stale
    count. *)

val choices : t -> choices

val choices_codec : Topology.t -> choices Byteio.Codec.t
(** Switch ids as indexes bounded by the topology, the stale count as a
    LEB128. The reader checks ranges only; {!of_choices} checks that the
    choices fit a tree. *)

val of_choices : Params.t -> Tree.t -> choices -> t
(** [of_choices params tree c] is the encoding of [tree] that makes the
    choices [c], with every rule bitmap a fresh OR of its switches' tree
    bitmaps (an s-rule's a copy of its switch's) — the form {!encode}
    returns too — a fresh fast-path dispatch over the tree's leaf slots,
    and no header caches. It takes [tree] as its own: pass a {!Tree.copy}
    for a private copy of a live encoding ([of_choices e.params (Tree.copy
    e.tree) (choices e)]). Raises {!Byteio.Reader.Corrupt} unless each
    layer names every switch of the tree exactly once — the leaf layer its
    leaves, the spine layer its pods (none on a two-tier fabric) — no
    p-rule is empty, and the stale count is at most
    [params.staleness_limit]: the states {!encode} and {!apply_delta}
    produce. *)
