(** Multi-rooted Clos datacenter topologies (§2, §3.1 D2).

    The model is the tiered topology the paper evaluates on: pods of leaf and
    spine switches plus a core layer, every leaf connected to every spine of
    its pod, and spine [i] of each pod connected to every core switch of
    plane [i] (a Facebook-Fabric-style multi-rooted tree). A two-tier
    leaf–spine network is the special case [pods = 1, cores_per_plane = 0].

    Identifier conventions (used as p-rule switch identifiers and bitmap
    indices):
    - leaves are numbered globally, [pod * leaves_per_pod + position];
    - spines likewise, [pod * spines_per_pod + position];
    - cores are [plane * cores_per_plane + position];
    - hosts are [leaf * hosts_per_leaf + position].

    Port numbering, which fixes bitmap layouts:
    - a leaf's downstream port [i] reaches its [i]-th host; its upstream port
      [j] reaches pod spine [j];
    - a spine's downstream port [i] reaches the [i]-th leaf of its pod; its
      upstream port [j] reaches the [j]-th core of its plane;
    - a core's (downstream) port [p] reaches pod [p].

    The logical topology (§3.1 D2) collapses each pod's spines into one
    logical spine (identified by the pod number) and all cores into one
    logical core, which is what downstream p-rules address. *)

type t = private {
  pods : int;
  leaves_per_pod : int;
  spines_per_pod : int;
  hosts_per_leaf : int;
  cores_per_plane : int;
  link_gbps : float;
      (** uniform capacity of every physical link, in Gbit/s — the
          denominator the telemetry layer turns per-link byte counts into
          utilization with *)
}

val create :
  pods:int ->
  leaves_per_pod:int ->
  spines_per_pod:int ->
  hosts_per_leaf:int ->
  cores_per_plane:int ->
  t
(** Raises [Invalid_argument] on non-positive pod/leaf/spine/host counts, a
    negative core count, or a multi-pod topology with no core plane. Link
    capacity defaults to 10 Gbit/s; override with {!with_link_gbps}. *)

val with_link_gbps : t -> float -> t
(** Functional update of the uniform link capacity. Raises
    [Invalid_argument] if non-positive. *)

val link_gbps : t -> float

val facebook_fabric : unit -> t
(** The paper's evaluation topology: 12 pods, 48 leaves and 4 spines per pod,
    48 hosts per leaf, 12 cores per plane — 27,648 hosts. *)

val running_example : unit -> t
(** Figure 3a: 4 pods, 2 leaves and 2 spines per pod, 8 hosts per leaf,
    4 cores in 2 planes. *)

val leaf_spine : leaves:int -> spines:int -> hosts_per_leaf:int -> t
(** Two-tier topology (single pod, no cores), as in the CONGA comparison. *)

val num_leaves : t -> int
val num_spines : t -> int
val num_cores : t -> int
val num_hosts : t -> int
val num_switches : t -> int
val is_two_tier : t -> bool

val leaf_of_host : t -> int -> int
val pod_of_leaf : t -> int -> int
val pod_of_host : t -> int -> int
val host_port_on_leaf : t -> int -> int
(** Downstream port index of a host on its leaf. *)

val leaf_port_on_spine : t -> int -> int
(** Downstream port index of a leaf on any spine of its pod. *)

val hosts_of_leaf : t -> int -> int list
val leaves_of_pod : t -> int -> int list
val spines_of_pod : t -> int -> int list

val leaf_downstream_width : t -> int
(** Bitmap width of a downstream-leaf p-rule ([hosts_per_leaf]). *)

val spine_downstream_width : t -> int
(** Bitmap width of a downstream-spine p-rule ([leaves_per_pod]). *)

val core_downstream_width : t -> int
(** Bitmap width of the core p-rule ([pods]). *)

val leaf_upstream_width : t -> int
(** Upstream ports on a leaf ([spines_per_pod]). *)

val spine_upstream_width : t -> int
(** Upstream ports on a spine ([cores_per_plane]). *)

val leaf_id_bits : t -> int
(** Bits needed for a leaf switch identifier in a p-rule. *)

val spine_id_bits : t -> int
(** Bits for a logical-spine (pod) identifier. *)

val bits_needed : int -> int
(** [bits_needed n] = bits to address [n] distinct values (min 1). *)

val validate : t -> unit
(** Re-checks internal invariants; raises [Invalid_argument] on violation.
    Used by property tests. *)

val codec : t Byteio.Codec.t
(** Durable wire codec (snapshot records). The reader validates through
    {!create} and raises {!Byteio.Reader.Corrupt} on any malformed or
    semantically invalid input. *)

val pp : Format.formatter -> t -> unit
