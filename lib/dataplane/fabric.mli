(** Packet-level model of the Elmo data plane (§4.1).

    Every network switch is simulated operationally: the serialized header
    is parsed at each hop exactly as a P4 parser would (match own identifier
    against the p-rule list of the packet's current stage), s-rules live in
    per-physical-switch group tables, default p-rules catch the rest, and
    each hop pops the layers the next hop no longer needs, shrinking the
    packet on the wire.

    This is the executable ground truth against which the analytic model in
    {!Traffic} is validated (they must produce identical transmission and
    header-byte counts), and the substrate the example applications run on. *)

type t

val create : Topology.t -> t
(** All group tables empty, no failures. *)

val topology : t -> Topology.t

(** {1 Group tables (s-rules)} *)

val install_leaf_srule : t -> leaf:int -> group:int -> Bitmap.t -> unit
(** Stores a copy of the bitmap: the fabric shares no bitmap with the
    caller, so a later change to the caller's bitmap reaches the switch
    only through another install. *)

val remove_leaf_srule : t -> leaf:int -> group:int -> unit

val install_pod_srule : t -> pod:int -> group:int -> Bitmap.t -> unit
(** Installs a copy on every physical spine of the pod, one per spine. *)

val remove_pod_srule : t -> pod:int -> group:int -> unit

val install_encoding : t -> group:int -> Encoding.t -> unit
(** Installs all s-rules of a group's encoding. *)

val remove_encoding : t -> group:int -> Encoding.t -> unit

val leaf_table_size : t -> int -> int
val spine_table_size : t -> int -> int
(** Physical spine's group-table occupancy. *)

val leaf_srule : t -> leaf:int -> group:int -> Bitmap.t option
(** Read-back of one leaf's group-table entry: the fabric's own copy,
    never a bitmap that was passed to an install. Do not mutate it. *)

val pod_srule : t -> pod:int -> group:int -> Bitmap.t option
(** [Some bm] only when {e every} physical spine of the pod holds an entry
    for the group and all entries are equal — a partially-installed or
    divergent pod reads as absent, which is exactly what the controller's
    install verification needs to see. *)

val controller_hooks : t -> Controller.fabric_hooks
(** Perfect (never-failing) controller hooks over this fabric: installs and
    removals always succeed and the read-backs answer from the live tables.
    It is {!controller_hooks_at} at epoch [max_int], which no fence is
    above.
    Wrap the result in a fault schedule ([Fault.hooks], lib/fault) to
    exercise the controller's retry/degradation machinery. *)

(** {1 Epoch fencing (controller failover)}

    The fabric arbitrates controller succession with fencing tokens: once
    {!set_fence} records a new primary's epoch, mutations issued through
    {!controller_hooks_at} with an older epoch are refused
    ([Error Refused]) — a paused ex-primary waking up mid-install cannot
    clobber the new primary's state. Reads answer normally at any epoch,
    so the fenced controller's read-back verification observes that its
    install never landed and degrades honestly. *)

val set_fence : t -> int -> unit
(** Admit mutations only from controllers of this epoch or newer.
    Monotonic; raises [Invalid_argument] on an attempt to lower it. *)

val fence_epoch : t -> int
(** Current fence ([0] until the first {!set_fence}). *)

val fenced_refusals : t -> int
(** Mutations refused below the fence since creation. *)

val controller_hooks_at : t -> epoch:int -> Controller.fabric_hooks
(** Like {!controller_hooks}, stamped with the issuing controller's epoch:
    mutations are refused while [epoch < fence_epoch]; reads always
    answer. [controller_hooks] itself is unstamped and never fenced. *)

val leaf_groups : t -> int -> int list
(** Group ids with an entry in the leaf's group table, ascending — the
    reconcile sweep's orphan scan. *)

val pod_groups : t -> int -> int list
(** Group ids with an entry on at least one physical spine of the pod,
    ascending. *)

(** {1 Incremental deployment (§7)} *)

val fail_link : t -> leaf:int -> plane:int -> unit
(** Takes down the (bidirectional) link between [leaf] and its pod's spine
    of the given plane; packets traversing it in either direction are lost.
    Raises [Invalid_argument] on an out-of-range plane. *)

val recover_link : t -> leaf:int -> plane:int -> unit

val set_leaf_legacy : t -> int -> bool -> unit
(** A legacy leaf cannot parse Elmo headers: it forwards on its group-table
    entry alone and drops on a miss. *)

val set_spine_legacy : t -> int -> bool -> unit
(** Per physical spine. *)

(** {1 Failures} *)

val fail_spine : t -> int -> unit
(** Marks a physical spine down: packets hashed onto it are lost. *)

val recover_spine : t -> int -> unit
val fail_core : t -> int -> unit
val recover_core : t -> int -> unit

(** {1 Injection} *)

type node =
  | Host_node of int
  | Leaf_node of int
  | Spine_node of int  (** physical spine *)
  | Core_node of int

type hop = { hop_from : node; hop_to : node; hop_header_bytes : int }
(** One link traversal, in transmission order — the per-packet telemetry an
    INT deployment would collect (§7 "Monitoring"). Built only when
    observed: by {!trace}, or for an attached {!telemetry} hook. *)

type report = {
  delivered : (int * int) list;
      (** (host, copies) for every host that received the packet, ascending *)
  transmissions : int;  (** link traversals including host deliveries *)
  header_bytes : int;  (** Σ over traversals of Elmo header bytes carried *)
  lost : int;  (** copies dropped at failed switches *)
}

val pp_node : Format.formatter -> node -> unit
val pp_trace : Format.formatter -> hop list -> unit
(** Traceroute-style rendering of a multicast packet's replication tree
    (a {!trace}). *)

type telemetry = {
  tel_hop : payload:int -> hop -> unit;
      (** fired on every link traversal (including host deliveries), with
          the packet's payload size and the traversal's hop record, which
          is built for the hook: with none attached, no hop is built *)
  tel_packet : group:int -> sender:int -> bytes:int -> unit;
      (** fired once per {!inject}, after the traversal completes;
          [bytes] is the packet's total wire bytes,
          [payload * transmissions + header_bytes] *)
}
(** Passive per-traversal observation callbacks (lib/telemetry feeds its
    link time series and heavy-hitter sketch from these). Hooks never
    influence forwarding. *)

val set_telemetry : t -> telemetry option -> unit
(** Attach ([Some]) or detach ([None]) the telemetry hook. [create] starts
    with no hook; with none attached, [inject] behaves identically to a
    build without telemetry. A hook must not call {!inject},
    {!inject_wire} or {!trace} on the same fabric: a walk keeps its state
    in the fabric (see {!inject_wire}), and a nested one would overwrite
    it. Another fabric is fine. *)

val inject :
  t -> sender:int -> group:int -> header:Prule.header -> payload:int -> report
(** Sends one packet from [sender]'s hypervisor with the given Elmo header.
    ECMP hashing is deterministic in [(group, sender)]. [payload] sizes the
    report and the telemetry byte counts; forwarding decisions never read
    it.

    [inject] is {!inject_wire} on [Header_codec.to_wire topo header]: the
    header is encoded once per packet (the per-sender prefix, then the
    shared {!Prule.down}'s bits spliced in) and every switch forwards on
    fields parsed from that wire, never on [header] itself. *)

val inject_wire :
  t -> sender:int -> group:int -> wire:Header_codec.wire -> payload:int -> report
(** {!inject} for a header already on the wire, as a hypervisor holds it.
    A later stage is not re-encoded: it is a bit-offset view of the wire,
    the suffix from {!Header_codec.stage_offset}, and a hop's header bytes
    are that suffix rounded up to a byte.

    Each switch reads only the field its layer reads, in place, and
    nothing is parsed. The upstream leaf rule, upstream spine rule and
    core bitmap lie at their stage offsets ({!Header_codec.uprule_at},
    [core_at]). A downstream switch finds the first rule naming it, or
    the default, through the down's index, built once per
    {!Prule.val-down} and shared by every sender of the version
    ({!Header_codec.rule_at}, [default_at]); it forwards on that rule's
    bits, its group-table entry or the default's bits, in that order. A
    switch's output ports are visited by a loop over
    {!Bitio.Reader.next_set} (or {!Bitmap.next_set} for a group-table
    entry), with no closure and no bitmap built.

    The walk's counters, its delivered hosts and the sort's second buffer
    live in the fabric and are reused by every packet (they grow, once,
    when a packet delivers more copies than any before). A packet
    therefore allocates its report and nothing else: a record, and a cons
    cell and a pair per distinct delivered host (tested with
    [Allocs.probe], and gated at 0 words beyond the report by
    [bench hotpath]). The deliveries are sorted at [int] by a merge of the
    ascending runs they arrive in. A telemetry hook must not re-enter the
    fabric ({!set_telemetry}). *)

val trace :
  t -> sender:int -> group:int -> header:Prule.header -> hop list
(** The per-hop path of every copy of the packet {!inject} would send
    (INT-style), in transmission order: the same walk, one hop per
    transmission, host-bound hops carrying 0 header bytes. It fires no
    telemetry hook. *)

val deliveries_correct :
  report -> tree:Tree.t -> sender:int -> bool
(** True iff every group member other than the sender received exactly one
    copy (spurious deliveries to non-members are allowed — the receiving
    hypervisor discards them, §2). *)
