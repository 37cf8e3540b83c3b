(** Read-only view of everything a controller has installed — the input
    language of the symbolic forwarding-equivalence layer ({!Verify} in
    [lib/verify]).

    The view deliberately contains only what the data plane can observe:
    per-group memberships and encodings (p-rules, s-rules, defaults),
    per-sender upstream overrides, switch/link health as the controller
    believes it, switches denied for s-rule installs, and stale fabric
    sites carrying compensated (truthful) entries. It is a plain value —
    no hooks, no clocks, no ledger — so it can be produced equally by a
    live {!Controller.t} (one restored from a checkpoint included), a
    {!Replica.t}, or built by hand in tests.

    A view from {!Controller.installed_config} {e borrows} the controller's
    state: each group's [enc] and override records are the live ones, not
    copies. Read it before the controller's next mutation. Every mutation
    that can change a group's view bumps the controller's generation
    counter, and the view carries the value it was taken at ([stamp]);
    {!is_current} compares the two, and every {!Verify} function that takes
    a view raises [Invalid_argument] on one that is no longer current. The
    stale sites are listed for each view; the health and denial arrays are
    a copy the controller makes after any of them changes, shared by the
    views taken until the next change and never written.

    The group views sit in a persistent gid-ordered index ({!Pvec}): views
    from successive calls share the [group_view] record of every group
    that did not change in between, and all but the changed paths of the
    index, yet no later call alters a view already handed out. Treat views
    as read-only — altering an encoding reached through a view alters the
    controller's installed state. A test that sabotages a view takes a
    private copy of the encoding first ({!Encoding.of_choices} over a
    {!Tree.copy} of its tree) and builds the sabotaged view with
    {!with_groups}. *)

type override = {
  up_leaf_ports : Bitmap.t;  (** planes the sender's leaf forwards up on *)
  up_spine_ports : Bitmap.t option;
      (** core ports (within each chosen plane) when the tree leaves the
          sender's pod; [None] on single-pod trees *)
  unicast : bool;  (** degrade this sender to hypervisor unicast *)
}
(** Mirror of the controller's per-sender upstream override (§3.3): when a
    flow's ECMP path crosses a failed element, the multipath flags of its
    upstream rules are replaced by these explicit port sets. *)

type group_view = {
  gid : int;
  receivers : int array;
      (** member hosts with a receiving role, strictly ascending; exactly
          as long as their count *)
  senders : int array;
      (** member hosts with a sending role, strictly ascending; the
          [receivers] array itself when every member is [Both] *)
  enc : Encoding.t option;
      (** the installed encoding; [None] when the group has no receivers
          (or was degraded to pure unicast) *)
  overrides : (int * override) list;
      (** sender host -> installed override, ascending by host *)
}

type index
(** The group views: slot [i] holds the [i]-th smallest gid's. Read it
    through {!groups}, {!count}, {!slot} and {!nth}. *)

type t = private {
  topo : Topology.t;
  params : Params.t;
  index : index;  (** one view per group, ascending by [gid] *)
  spine_ok : bool array;  (** per physical spine *)
  core_ok : bool array;  (** per physical core (length ≥ 1) *)
  link_ok : bool array;  (** leaf↔plane links, index [leaf * spp + plane] *)
  denied_leaf : bool array;
      (** leaves excluded from s-rule eligibility after exhausted installs *)
  denied_pod : bool array;
  stale_sites : (int * Srule_state.site) array;
      (** (group, site) fabric entries whose removal failed and now hold a
          compensated truthful bitmap, ascending by (group, site key):
          {!is_stale} is a binary search *)
  generation : int ref;
      (** the producing controller's mutation counter; a private counter
          that never moves for views built by hand *)
  stamp : int;  (** [!generation] when the view was taken *)
}

val make :
  ?generation:int ref ->
  ?spine_ok:bool array ->
  ?core_ok:bool array ->
  ?link_ok:bool array ->
  ?denied_leaf:bool array ->
  ?denied_pod:bool array ->
  ?stale_sites:(int * Srule_state.site) list ->
  Topology.t ->
  Params.t ->
  group_view list ->
  t
(** Builds a view; health arrays default to all-healthy, denial arrays to
    all-allowed and [stale_sites] to empty. Group views are sorted by
    [gid] and stale sites by (group, site key) into fresh arrays. Raises
    [Invalid_argument] if a view's [receivers] or [senders] are not
    strictly ascending hosts of the topology: the verifier walks them in
    leaf runs. O(members) for the check. The
    health and denial arrays are used as given (not copied): callers
    constructing views by hand own them. The view is stamped with
    [!generation]; without [generation] it gets a counter of its own, so a
    view built by hand never goes stale. *)

val of_index :
  ?generation:int ref ->
  ?spine_ok:bool array ->
  ?core_ok:bool array ->
  ?link_ok:bool array ->
  ?denied_leaf:bool array ->
  ?denied_pod:bool array ->
  ?stale_sites:(int * Srule_state.site) list ->
  Topology.t ->
  Params.t ->
  gids:int array ->
  group_view Pvec.t ->
  t
(** {!make} over an index already built: slot [i] of the vector holds the
    view of group [gids.(i)], and [gids] ascends and is as long as the
    vector (neither checked), and the member arrays are not checked
    either: the controller drains them ascending from its counting sort.
    Both are kept as given, so the caller must never write [gids]. O(1)
    beside the health and stale-site arguments. *)

val with_groups : t -> group_view array -> t
(** The same view — topology, health, stale sites, generation and stamp —
    over other group views, ascending by [gid] (not checked). For tests
    and demos that sabotage a copy of a controller's view. Raises
    [Invalid_argument], as {!make} does, on member arrays that are not
    strictly ascending hosts of the topology. *)

val is_current : t -> bool
(** Has the producing controller not mutated any group since the view was
    taken? O(1). *)

val groups : t -> group_view array
(** The group views ascending by [gid], one per group. Built from the
    index on a view's first call, O(groups), and the same array after;
    do not write it. *)

val count : t -> int
(** Number of groups; O(1). *)

val slot : t -> int -> int
(** The slot of group [gid] in the index, or [-1]; O(log groups),
    allocation-free. *)

val nth : t -> int -> group_view
(** The view in slot [i] (the [i]-th smallest gid's); O(log32 groups). *)

val group : t -> int -> group_view option
(** The view of one group, if present; O(log groups). *)

val group_ids : t -> int list
(** All group ids, ascending. *)

val link_ok : t -> leaf:int -> plane:int -> bool
val spine_ok : t -> pod:int -> plane:int -> bool
(** Health of the physical spine [pod * spp + plane]. *)

val is_stale : t -> group:int -> Srule_state.site -> bool
(** Does the view record a compensated stale fabric entry at this site?
    O(log stale sites), and one length test when there are none. *)
