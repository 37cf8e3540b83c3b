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
val remove_leaf_srule : t -> leaf:int -> group:int -> unit

val install_pod_srule : t -> pod:int -> group:int -> Bitmap.t -> unit
(** Installs on every physical spine of the pod. *)

val remove_pod_srule : t -> pod:int -> group:int -> unit

val install_encoding : t -> group:int -> Encoding.t -> unit
(** Installs all s-rules of a group's encoding. *)

val remove_encoding : t -> group:int -> Encoding.t -> unit

val leaf_table_size : t -> int -> int
val spine_table_size : t -> int -> int
(** Physical spine's group-table occupancy. *)

val leaf_srule : t -> leaf:int -> group:int -> Bitmap.t option
(** Read-back of one leaf's group-table entry (the physical bitmap object,
    not a copy). *)

val pod_srule : t -> pod:int -> group:int -> Bitmap.t option
(** [Some bm] only when {e every} physical spine of the pod holds an entry
    for the group and all entries are equal — a partially-installed or
    divergent pod reads as absent, which is exactly what the controller's
    install verification needs to see. *)

val controller_hooks : t -> Controller.fabric_hooks
(** Perfect (never-failing) controller hooks over this fabric: installs and
    removals always succeed and the read-backs answer from the live tables.
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
    INT deployment would collect (§7 "Monitoring"). *)

type report = {
  delivered : (int * int) list;
      (** (host, copies) for every host that received the packet, ascending *)
  transmissions : int;  (** link traversals including host deliveries *)
  header_bytes : int;  (** Σ over traversals of Elmo header bytes carried *)
  lost : int;  (** copies dropped at failed switches *)
  trace : hop list;
      (** full per-hop path of every copy (INT-style); [transmissions]
          always equals [List.length trace] *)
}

val pp_node : Format.formatter -> node -> unit
val pp_trace : Format.formatter -> hop list -> unit
(** Traceroute-style rendering of a multicast packet's replication tree. *)

type telemetry = {
  tel_hop : payload:int -> hop -> unit;
      (** fired on every link traversal (including host deliveries), with
          the packet's payload size and the hop record the trace already
          allocated — an attached hook costs no extra per-hop allocation *)
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
    build without telemetry. *)

val inject :
  t -> sender:int -> group:int -> header:Prule.header -> payload:int -> report
(** Sends one packet from [sender]'s hypervisor with the given Elmo header.
    ECMP hashing is deterministic in [(group, sender)]. [payload] sizes the
    report and the telemetry byte counts; forwarding decisions never read
    it.

    Every switch forwards on a header parsed from the wire bytes of its
    stage (the sections still on the packet when it arrives), never on
    [header] itself. All copies at one stage carry the same bytes, so per
    packet each stage is encoded at most once, by the first switch that
    emits it, and parsed at most once, by the first switch that receives
    it; nothing is kept from one packet to the next. *)

val deliveries_correct :
  report -> tree:Tree.t -> sender:int -> bool
(** True iff every group member other than the sender received exactly one
    copy (spurious deliveries to non-members are allowed — the receiving
    hypervisor discards them, §2). *)
