(** Pure, immutable view of everything a controller has installed — the
    input language of the symbolic forwarding-equivalence layer
    ({!Verify} in [lib/verify]).

    The view deliberately contains only what the data plane can observe:
    per-group memberships and encodings (p-rules, s-rules, defaults),
    per-sender upstream overrides, switch/link health as the controller
    believes it, switches denied for s-rule installs, and stale fabric
    sites carrying compensated (truthful) entries. It is a plain record of
    plain data — no hooks, no clocks, no ledger — so it can be produced
    equally by a live {!Controller.t} (one restored from a checkpoint
    included), a {!Replica.t}, or built by hand in tests. All bitmaps and arrays are
    owned by the view, never aliased with live controller state, so a view
    stays valid across later controller mutations.

    Views from successive {!Controller.installed_config} calls share the
    [group_view] record of every group that did not change in between:
    the controller memoizes one deep copy per group and re-copies only
    groups marked dirty, so one call costs O(groups) small words plus a
    deep copy of each changed group. Treat views as read-only — a caller
    that mutates a shared record's bitmaps corrupts later views too; copy
    the encoding ({!Encoding.copy}) before altering it. *)

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
  receivers : int list;  (** member hosts with a receiving role, ascending *)
  senders : int list;  (** member hosts with a sending role, ascending *)
  enc : Encoding.t option;
      (** the installed encoding; [None] when the group has no receivers
          (or was degraded to pure unicast) *)
  overrides : (int * override) list;
      (** sender host -> installed override, ascending by host *)
}

type t = {
  topo : Topology.t;
  params : Params.t;
  groups : group_view array;
      (** ascending by [gid], one entry per group: {!group} is a binary
          search *)
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
}

val make :
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
    [gid] and stale sites by (group, site key) into fresh arrays. The
    health and denial arrays are used as given (not copied): callers
    constructing views by hand own them. *)

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
