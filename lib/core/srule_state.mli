(** Group-table (s-rule) occupancy of the network switches (§3.1 D5).

    Each physical switch holds at most [fmax] s-rules. Downstream p-rules
    address {e logical} switches, so an s-rule for a pod's logical spine must
    be installed on every physical spine of the pod (any of them may receive
    the packet under multipath); a leaf s-rule lands on that one leaf. We
    therefore track leaf occupancy per leaf and spine occupancy per pod (the
    per-physical-spine count equals its pod's count).

    The ledger has two faces. The {e live} API ({!reserve_leaf},
    {!release_leaf}, …) mutates directly — the sequential encode path. The
    {e transactional} API ({!snapshot} → {!txn} → {!commit}) lets a batch of
    group encodes run in parallel against a frozen snapshot and commit
    sequentially, detecting the (rare) encodes whose capacity decisions the
    interleaving invalidated. *)

type site = Leaf of int | Pod of int

val site_key : site -> int
(** Injective primitive-int key for a [site] (leaves on even slots, pods on
    odd), for callers that need to key hash tables by switch without leaning
    on polymorphic hashing of the variant. *)

exception Full of site
(** Raised by {!reserve_leaf} / {!reserve_pod} when the switch is full
    (callers must check first). *)

exception Underflow of site
(** Raised by {!release_leaf} / {!release_pod} on a zero counter. *)

type t

val create : Topology.t -> fmax:int -> t

val copy : t -> t
(** Independent copy of the occupancy counters (same topology and [fmax]).
    Used by {!Controller.snapshot} for crash-consistent checkpoints. *)

val fmax : t -> int

val leaf_has_space : t -> int -> bool
val pod_has_space : t -> int -> bool
(** Space on {e all} physical spines of the pod. *)

val reserve_leaf : t -> int -> unit
val reserve_pod : t -> int -> unit
val release_leaf : t -> int -> unit
val release_pod : t -> int -> unit

val leaf_used : t -> int -> int
(** Current s-rule count of one leaf. *)

val pod_used : t -> int -> int
(** Current s-rule count of one pod (per physical spine of the pod). *)

val leaf_occupancy : t -> int array
(** Copy of the per-leaf s-rule counts. *)

val spine_occupancy : t -> int array
(** Per-physical-spine s-rule counts (derived from pod counts). *)

val total_srules : t -> int
(** Total installed s-rule entries across all physical switches. *)

val check : t -> bool
(** Invariant: [0 <= used <= fmax] on every leaf and pod counter. Asserted
    after every batch commit phase and in tests. *)

val write : Byteio.Writer.t -> t -> unit
(** Durable wire codec (snapshot records). *)

val read : topo:Topology.t -> Byteio.Reader.t -> t
(** Inverse of {!write}. Validates the persisted array lengths against
    [topo] and re-checks the occupancy invariant; raises
    {!Byteio.Reader.Corrupt} on any violation. *)

(** {1 Snapshot / reserve / commit (two-phase batch encoding)} *)

type snapshot
(** Immutable copy of the occupancy counters at one instant. Sharing a
    snapshot across domains is safe: it is never mutated. *)

type txn
(** A reservation transaction over a snapshot: capacity probes answer
    against snapshot + own reservations and are recorded in a probe log.
    The log and the reservation set are preallocated flat arrays, so the
    probe path ({!txn_reserve_leaf} / {!txn_reserve_pod}) and the commit
    replay are allocation-free apart from cold amortized buffer doubling
    (checked by the [zero-alloc] lint rule). A txn is single-domain (not
    thread-safe); each parallel group encode gets its own. *)

val snapshot : t -> snapshot

val txn : snapshot -> txn

val txn_reserve_leaf : txn -> int -> bool
(** Probe-and-reserve: [true] when the leaf has space under snapshot plus
    this transaction's prior reservations (the reservation is then taken),
    [false] otherwise. Every call is logged for {!commit} replay. Raises
    [Invalid_argument] after the txn was committed. *)

val txn_reserve_pod : txn -> int -> bool

val txn_reserved : txn -> int
(** Reservations currently held (logical entries: a pod counts once). *)


(** {2 Commit}

    [commit] reads the live ledger only at the transaction's probed sites
    and, on success, writes only those sites (sparse per-site deltas — never
    a whole-array store). Commits to one ledger must be serialized by the
    caller. *)

val commit : t -> txn -> (unit, site) result
(** Replays the probe log against the live ledger. If every probe's answer
    is unchanged, the encode that issued them would have run identically
    against the live ledger: its reservations are applied and the result is
    [Ok ()]. On the first diverging probe the ledger is left untouched and
    [Error site] names the switch whose capacity decision flipped — the
    caller must re-encode against the live ledger. Either way the txn is
    closed; committing twice raises [Invalid_argument]. *)
