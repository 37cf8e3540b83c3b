(** Wire format of the Elmo header (Figure 2), bit-exact with the size
    accounting in {!Prule}.

    Layout, MSB-first: the upstream leaf rule (down ports, up ports,
    multipath flag); a presence bit then the upstream spine rule; a presence
    bit then the core bitmap; the downstream spine section; the downstream
    leaf section. A downstream section is a sequence of p-rules, each
    introduced by a 1 bit and carrying its bitmap followed by identifiers
    each trailed by a more-ids flag; a 0 bit terminates the sequence and a
    presence bit introduces the optional default bitmap.

    Serialization of headers produced by {!Encoding.header_for_sender} is
    lossless: [decode topo (encode topo h) = h]. *)

val encode : Topology.t -> Prule.header -> bytes
(** Writes the header once, through the allocation-free kernels of
    {!encode_into}, into a buffer of exactly {!stage_bits} bits rounded up
    to whole bytes. Raises [Invalid_argument] if a p-rule has an empty
    switch list or a bitmap of the wrong width for its layer. *)

val decode : Topology.t -> bytes -> Prule.header
(** Raises [Bitio.Reader.Truncated] on short input. Trailing padding bits
    are ignored. *)

val header_length : Topology.t -> bytes -> int
(** [header_length topo data] parses one full header from the front of
    [data], which may go on with a payload, and returns its length in bytes
    (its bits rounded up to a byte, as {!encode} pads). Raises
    [Bitio.Reader.Truncated] if [data] ends inside the header. *)

(** {1 Hostile-input decoding} *)

type decode_error =
  | Truncated  (** input ends inside a field *)
  | Id_out_of_range of { spine : bool; id : int }
      (** a p-rule identifier beyond the topology's switch count *)
  | Duplicate_id of { spine : bool; id : int }
      (** one switch claimed by two rules of the same section *)
  | Trailing_bits
      (** more than a byte of slack after the header, or nonzero padding *)

val pp_decode_error : Format.formatter -> decode_error -> unit

val decode_checked :
  Topology.t -> bytes -> (Prule.header, decode_error) result
(** Total decoder for bytes of unknown provenance: never raises, for any
    input whatsoever. Beyond {!decode}'s parsing it rejects switch ids
    outside the topology, a switch claimed twice within one downstream
    section (which also bounds the section's size), and nonzero or
    byte-plus trailing slack. Structural checks only — whether an accepted
    header {e over-delivers} relative to a group's intent is decided by the
    verify layer ([Verify.admit_header] subsumption). *)

val encode_into : Topology.t -> Prule.header -> Bitio.Sink.t -> int
(** [encode] into a caller-provided sink: identical bit layout, no heap
    allocation on the success path (under the [zero-alloc] lint rule, with
    an [Allocs.probe] harness in the test suite). Returns the sink's end
    byte position ({!Bitio.Sink.finish}). Raises [Invalid_argument] on the
    same malformed headers as {!encode}, or if the sink's buffer is too
    small. *)

val encoded_size : Topology.t -> Prule.header -> int
(** Size in bytes without materializing (= {!Prule.header_bytes}). *)

(** {1 Layer popping (D2d)}

    Switches pop every section belonging to a layer the packet has passed.
    A stage names the sections still on the wire; the P4 [type] field of
    Figure 2a is modelled by carrying the stage alongside the packet. *)

type stage =
  | Full  (** as emitted by the sender hypervisor *)
  | After_u_leaf  (** sender leaf → sender-pod spine *)
  | After_u_spine  (** sender-pod spine → core *)
  | After_core  (** core → downstream pod spine *)
  | After_d_spine  (** any spine → downstream leaf *)

val encode_stage : Topology.t -> stage -> Prule.header -> bytes
(** Serializes only the sections remaining at [stage]; [encode_stage Full]
    = {!encode}. *)

val decode_stage : Topology.t -> stage -> bytes -> Prule.header
(** Inverse of {!encode_stage}; popped sections come back empty ([None] /
    [[]]). *)

val stage_bits : Topology.t -> stage -> Prule.header -> int
(** Exact bit length of [encode_stage] without materializing; agrees with
    {!Prule.header_bits} and {!Prule.remaining_bits_after}. It does not
    validate the header: the encoders report malformed rules. *)

val encode_parts : Topology.t -> Prule.header -> bytes list
(** The header split into separately byte-aligned parts, one per section or
    p-rule — the write-call units of the unoptimized encapsulation path. *)

val encode_per_rule_writes : Topology.t -> Prule.header -> bytes
(** Encodes the same header as {!encode}, but materializes every p-rule as a
    separately padded buffer before concatenating — modelling a hypervisor
    switch that issues one DMA write per header copy instead of one write
    for the whole rule list (§4.2). Functionally equivalent on parse only in
    size class, not bit-compatible; used by the Figure 7 benchmark to show
    the per-rule-write throughput penalty. *)
