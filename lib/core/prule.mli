(** p-rule and Elmo header types with exact bit-size accounting (§3.1,
    Figure 2).

    A downstream p-rule carries an output-port bitmap and the identifiers of
    the switches that share it (D1, D3). Upstream rules (leaf and spine of
    the sender's path) carry downstream ports, upstream ports, and the
    multipath flag, with no identifier (D2b). The optional core rule is a
    bitmap over pods. Default p-rules close each downstream layer (D4).

    Wire sizes are computed from the topology: bitmap widths are the port
    counts of each layer and identifier widths are ⌈log₂(#switches)⌉; every
    identifier carries a 1-bit "next id" flag and every p-rule a 1-bit
    "next rule" flag, as in Figure 2b. *)

type uprule = {
  down : Bitmap.t;  (** downstream ports to forward on at this hop *)
  up : Bitmap.t;  (** explicit upstream ports (used when not multipathing) *)
  multipath : bool;
}

type prule = {
  bitmap : Bitmap.t;  (** OR of the output bitmaps of [switches] *)
  switches : int list;  (** logical-switch identifiers sharing the rule *)
}

type down = private {
  d_spine : prule list;
  d_spine_default : Bitmap.t option;
  d_leaf : prule list;
  d_leaf_default : Bitmap.t option;
  spine_bits : int;  (** wire length of the downstream spine section *)
  bits : int;  (** wire length of both sections *)
  wire : Bitio.Run.t;
      (** both sections as they go on the wire, [bits] long, kept at every
          bit alignment so any prefix length splices them with a blit *)
}
(** The downstream sections (D1, D3, D4): a property of the group's tree,
    the same bits in every sender's header. Only {!val-down} builds one, and
    it writes the wire while it does, so a [down]'s rules and its wire
    always agree: [{ h with ... }] on a header can swap a whole [down] but
    never pair a wire with other rules. The encoders splice [wire] after
    the per-sender prefix instead of walking the rules again. *)

type header = {
  u_leaf : uprule;
  u_spine : uprule option;  (** absent on two-tier topologies *)
  core : Bitmap.t option;  (** pods to forward to; absent if single-pod tree *)
  downstream : down;  (** shared by every sender of one encoding version *)
}

val down :
  Topology.t ->
  d_spine:prule list ->
  d_spine_default:Bitmap.t option ->
  d_leaf:prule list ->
  d_leaf_default:Bitmap.t option ->
  down
(** Builds the sections and encodes them once. The [down] takes the
    bitmaps as they are: mutating one afterwards would make the rules
    disagree with [wire], so a caller that keeps mutating its rules
    ({!Encoding}) passes copies. Raises [Invalid_argument] if a p-rule has
    an empty switch list or a bitmap of the wrong width for its layer. *)

val rule_mem : prule -> int -> bool
(** Does the rule's identifier list include the switch? *)

val equal : prule -> prule -> bool
(** Same shared bitmap (by {!Bitmap.equal}) and same switch ids in order. *)

(** {1 Bit-size accounting} *)

val uprule_bits : down_width:int -> up_width:int -> int
(** down bitmap + up bitmap + multipath flag. *)

val prule_bits : Topology.t -> [ `Spine | `Leaf ] -> nswitches:int -> int
(** Size of one downstream p-rule with [nswitches] identifiers. *)

val default_rule_bits : Topology.t -> [ `Spine | `Leaf ] -> int
(** Presence flag + bitmap. *)

val header_bits : Topology.t -> header -> int
(** The per-sender prefix plus the down's cached [bits]. *)

val header_bytes : Topology.t -> header -> int
(** [ceil (header_bits / 8)]: what the packet actually carries. *)

val max_header_bytes : Topology.t -> Params.t -> int
(** Worst-case header size under the given [hmax]/[kmax] budget — the
    paper's "325-byte cap" figure for its topology and defaults. *)

val remaining_bits_after :
  Topology.t -> header -> [ `U_leaf | `U_spine | `Core | `D_spine | `All ] ->
  int
(** Header bits still on the wire after the given layer has been popped
    (D2d): [`U_leaf] after the sender leaf, [`U_spine] after the sender
    spine, [`Core] after the core, [`D_spine] after a downstream spine,
    [`All] towards a host. *)

val pp : Topology.t -> Format.formatter -> header -> unit
