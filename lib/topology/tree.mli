(** Multicast trees on the logical Clos topology.

    Given the set of member hosts of a group, the tree is fully determined by
    the topology (§3.1 D2): the participating leaves forward on their member
    host ports, each participating pod's logical spine forwards on its
    participating leaf ports, and the logical core forwards on the
    participating pods. These per-switch output bitmaps are exactly the
    inputs to the p-/s-rule generation algorithm (§3.2). *)

type t = {
  topo : Topology.t;
  mutable members : int array;
      (** capacity buffer: indices [[0, nmembers)] hold the member hosts,
          sorted and deduplicated; the tail is scratch so the membership
          fast path stays allocation-free. Use {!member_array} /
          {!member_list} / {!iter_members} rather than reading the field. *)
  mutable nmembers : int;  (** live prefix length of [members] *)
  leaf_ids : int array;
      (** participating leaf ids, ascending: a leaf's {e slot} is its
          position here ({!leaf_slot}) *)
  leaf_bms : Bitmap.t array;
      (** per leaf slot, the leaf's exact downstream host-port bitmap; no
          two slots share one *)
  pod_ids : int array;
      (** participating pod ids (= logical spine ids), ascending: a pod's
          slot is its position here ({!pod_slot}) *)
  spine_bms : Bitmap.t array;
      (** per pod slot, the logical spine's downstream leaf-port bitmap *)
  core_bitmap : Bitmap.t;  (** pods participating, width [pods] *)
}
(** The leaf and pod layers are each one ascending id array and one
    bitmap array of the same length, built once by {!of_sorted}: the
    tree is its own leaf and pod index, and every reader finds a switch
    by its slot. *)

val of_sorted : Topology.t -> int array -> t
(** [of_sorted topo hosts] builds the tree of the given member hosts, which
    must be ascending and distinct. One bitmap per leaf and per pod and the
    four layer arrays, no host-sized scratch. The tree keeps [hosts] as its member
    buffer, without a copy: the caller must not use the array afterwards.
    Raises [Invalid_argument] if [hosts] is empty, not strictly ascending,
    or holds an out-of-range host. *)

val of_members : Topology.t -> int list -> t
(** Builds the tree for the given member hosts, in any order. Duplicates
    are removed. {!of_sorted} over the hosts ordered by a counting sort
    whose scratch spans the least to the greatest member. Raises
    [Invalid_argument] if the member list is empty or contains an
    out-of-range host. *)

val leaves : t -> int list
(** Participating leaf ids, ascending. *)

val pods : t -> int list
(** Participating pod ids, ascending. *)

val member_count : t -> int

val member_array : t -> int array
(** Fresh array of the member hosts, sorted (compacts the capacity tail). *)

val member_list : t -> int list
(** Member hosts, sorted. *)

val iter_members : (int -> unit) -> t -> unit
(** Applies the function to every member host in ascending order, without
    allocating an intermediate list or array. *)

val leaf_count : t -> int
val pod_count : t -> int

val mem_host : t -> int -> bool
(** Is the host a member? (binary search) *)

val ideal_link_transmissions : t -> sender:int -> int
(** Number of link traversals of one packet under ideal multicast from
    [sender]: host→leaf, up to spine/core as needed, and down the exact tree.
    [sender] need not be a member. Used as the traffic-overhead baseline. *)

val leaf_slot : t -> int -> int
(** [leaf_slot t l] is leaf [l]'s slot in [leaf_ids] and [leaf_bms], or
    [-1] when the tree does not span it. A binary search; allocation-free.
    The one way to find a leaf. *)

val pod_slot : t -> int -> int
(** [pod_slot t p] is pod [p]'s slot in [pod_ids] and [spine_bms], or [-1]
    when the tree does not span it. Allocation-free. *)

val leaf_bitmap : t -> int -> Bitmap.t option
(** Exact downstream bitmap of a leaf, if participating. *)

val spine_bitmap : t -> int -> Bitmap.t option
(** Exact downstream bitmap of a pod's logical spine, if participating. *)

val spans_other_pod : t -> int -> bool
(** Does the tree span a pod other than the given one? *)

val spans_other_leaf_in_pod : t -> int -> bool
(** [spans_other_leaf_in_pod t l]: does the tree span a leaf of [l]'s pod
    other than [l]? Read off the pod's spine bitmap. *)

val copy : t -> t
(** Deep copy (fresh layer arrays and bitmaps and a compacted members
    array) — a stable snapshot across later in-place mutations by
    {!add_member} / {!remove_member}. It shares no array and no bitmap
    with the original. *)

val add_member : t -> int -> bool
(** [add_member t h] is the membership-delta fast path: when [h]'s leaf
    already participates (found by {!leaf_slot}), sets the host's port bit
    {e in place} (no rule bitmap shares it), splices the
    host into the sorted members buffer without allocating (amortized —
    the capacity doubles on the cold overflow path) and returns [true]. [false] — with the tree
    untouched — when the host's leaf does not participate (structural
    change: the caller must rebuild via {!of_members}). Raises
    [Invalid_argument] on an out-of-range or already-member host. *)

val remove_member : t -> int -> bool
(** Dual of {!add_member}: clears the host's port bit in place. [false]
    when the host is the last member on its leaf (the leaf would vanish
    from the tree — structural). Raises [Invalid_argument] if not a
    member. *)

val equal : t -> t -> bool
(** Same leaf and pod ids with equal bitmaps (by {!Bitmap.equal}): the
    same member set. *)
