(** Hypervisor (software) switch model (§2, §4.2).

    Each host runs one. The flow table maps a multicast group to the
    pre-built Elmo header pushed on that group's packets when this host
    sends (the controller installs/updates these), and to the number of
    local member VMs for delivery on receive. Hosts without a flow rule for
    a group discard its packets.

    Per-packet encapsulation is modelled as it is implemented in PISCES
    (§4.2): the cached header blob and the payload are written into the
    packet buffer with a {e single} write ({!encap}); the unoptimized
    variant issues one write per p-rule ({!encap_per_rule}), whose
    throughput degrades linearly with the rule count — the Figure 7
    comparison. *)

type t

val create : Fabric.t -> host:int -> t
val host : t -> int

(** {1 Controller-facing API} *)

val install_sender : t -> group:int -> Prule.header -> unit
(** Installs/replaces the encap flow rule. Pre-serializes the header into
    the single-write blob {!encap} copies: the sender's own prefix is
    written field by field and the group's shared downstream sections
    ({!Prule.down}, one per encoding version, the same value in every
    sender's header) are spliced in from their cached wire, so an install
    costs the prefix and a blit, not a walk of the downstream rules. The
    rule keeps that wire ({!Header_codec.to_wire}: the bytes and their
    stage offsets), not the header, so the header's bitmaps are garbage as
    soon as the install returns. The per-rule parts of {!encap_per_rule}
    are built from the wire on its first use for the rule, not here. A
    rule keeps the bytes it was given: a later change to the group's
    encoding builds a new down and reaches this host only through another
    [install_sender]. *)

val remove_sender : t -> group:int -> unit

val install_receiver : t -> group:int -> vms:int -> unit
(** Registers [vms] local member VMs for delivery fan-out. *)

val remove_receiver : t -> group:int -> unit

val sender_groups : t -> int list
val flow_rules : t -> int
(** Total flow-table entries (sender + receiver rules). *)

(** {1 Security policy (§7 "Reliability and security")}

    "As Elmo runs inside multi-tenant datacenters, where each packet is
    first received by a hypervisor switch, cloud providers can enforce
    multicast security policies on these switches, dropping malicious
    packets before they even reach the network." Two policies are modelled:
    sender authorization is implicit (no flow rule ⇒ drop), and a per-group
    token bucket caps a VM gone rogue (e.g. a DDoS amplification attempt). *)

val set_rate_limit : t -> group:int -> packets_per_second:float -> burst:int -> unit
(** Installs a token bucket for the group's sends from this host. Raises
    [Invalid_argument] on non-positive rate or burst. *)

val clear_rate_limit : t -> group:int -> unit

val admit : t -> group:int -> now:float -> bool
(** Consumes one token at time [now] (seconds); [false] = policy drop. With
    no limit installed, always [true]. Time must be non-decreasing per
    group. *)

val policy_drops : t -> int
(** Packets refused by {!admit} since creation. *)

(** {1 Data path} *)

val encap : t -> group:int -> payload:bytes -> bytes option
(** One-write encapsulation of the Elmo stack: header blob + payload, or
    [None] when this host has no sender rule for the group (packet dropped,
    §2). The outer tunnel is added by {!encap_vxlan}. *)

val encap_vxlan : t -> group:int -> payload:bytes -> bytes option
(** Full on-wire packet: VXLAN outer stack (VNI = group, source/destination
    derived from the host) around the Elmo header and payload. *)

val decap_vxlan : t -> bytes -> (int * int * bytes) option
(** Receive path: parses the outer stack of a packet built by
    {!encap_vxlan}; returns [(group, local_vm_copies, inner_payload)] where
    the payload has the Elmo header already stripped (the leaf egress
    removed it in the fabric; here the header's length is parsed from the
    packet's own bytes, so it does not matter which rules, if any, this
    host holds as a sender). [None] if the packet is not valid VXLAN, this
    host has no receiver rule for the group (discarded, §2), or the packet
    ends inside the Elmo header. *)

val encap_per_rule : t -> group:int -> payload:bytes -> bytes option
(** Same packet, but built with one write call per p-rule part. The parts
    are serialized on the first call for an installed rule and reused
    until it is replaced. *)

val send : t -> group:int -> payload:int -> Fabric.report option
(** Encapsulates and injects into the fabric: {!Fabric.inject_wire} on the
    installed wire, so a send encodes nothing. *)

val deliver : t -> group:int -> int
(** Copies handed to local VMs on receive; 0 = discarded. *)
