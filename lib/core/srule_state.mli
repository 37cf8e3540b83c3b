(** Group-table (s-rule) occupancy of the network switches (§3.1 D5).

    Each physical switch holds at most [fmax] s-rules. Downstream p-rules
    address {e logical} switches, so an s-rule for a pod's logical spine must
    be installed on every physical spine of the pod (any of them may receive
    the packet under multipath); a leaf s-rule lands on that one leaf. We
    therefore track leaf occupancy per leaf and spine occupancy per pod (the
    per-physical-spine count equals its pod's count).

    There is one ledger per controller (or per sweep point), mutated in
    place: {!Encoding.encode} probes {!leaf_has_space} / {!pod_has_space}
    and reserves at once, and removals release. *)

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
(** Invariant: [0 <= used <= fmax] on every leaf and pod counter. Checked
    by the controller's invariants and in tests; a restored controller's
    ledger is counted from its encodings' s-rules, and a snapshot whose
    count exceeds [fmax] is refused. *)
