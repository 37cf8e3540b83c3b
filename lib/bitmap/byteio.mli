(** Byte-granular serialization with CRC32 — the substrate of the durable
    wire format (journal records, controller snapshots).

    {!Bitio} serializes the bit-packed Elmo {e packet} header; this module
    serializes the {e durable} byte stream the controller persists.

    Codec contract. Each durable record kind is described once, as a
    {!Codec.t} value: its writer and its validating reader come from that
    one definition, so the reader is the writer's inverse and never
    restates its field order.
    Both sides are deterministic, and decoding accepts only canonical
    input: a byte string that decodes re-encodes to exactly those bytes.
    Sets and maps travel as strictly ascending lists, bitmaps with zero
    padding bits, booleans as 0 or 1, ints and counts as shortest LEB128
    forms of at most 63 bits, indexes in exactly the bytes their bound
    needs; anything else is refused.

    Each field is as wide as its information: the reader knows every
    bound and width from the codec (and the topology decoded before it),
    so none of them travels on the wire.

    Robustness contract: a {!Reader} over hostile bytes either returns a
    structurally valid value or raises {!Reader.Corrupt} — it never reads
    out of bounds and never allocates more than the input length can
    justify (every length prefix is validated against the bytes actually
    remaining before anything is allocated). Callers that must be total
    (e.g. [Wire.load]) catch [Corrupt] at the record boundary. *)

(** {1 CRC32}

    The reflected CRC-32 (polynomial [0xEDB88320], the Ethernet/zip one),
    table-driven and sliced by 16: one 16-byte block per step, bytewise
    for the tail. Values are the low 32 bits of an [int]. *)

val crc32_init : int
(** Initial running state. *)

val crc32_feed : int -> bytes -> pos:int -> len:int -> int
(** Folds a byte range into the running state. Raises [Invalid_argument]
    on an out-of-range slice. *)

val crc32_finish : int -> int
(** Final xor; the value to store or compare. *)

val crc32 : bytes -> pos:int -> len:int -> int
(** [crc32_finish (crc32_feed crc32_init b ~pos ~len)]. *)

module Writer : sig
  type t

  val create : unit -> t

  val u8 : t -> int -> unit
  (** Raises [Invalid_argument] unless [0 <= v < 256]. *)

  val raw : t -> bytes -> unit
  (** The bytes verbatim, no length prefix. *)

  val to_bytes : t -> bytes
end

module Reader : sig
  type t

  exception Corrupt
  (** Truncated or malformed input: a read past the end of the slice, a
      length prefix exceeding the bytes remaining, a non-canonical field
      (a [bool] byte above 1, a set bitmap padding bit, an overlong or
      over-63-bit LEB128 form), or a failed invariant in a record's
      codec. *)

  val of_bytes : ?pos:int -> ?len:int -> bytes -> t
  (** A reader over [b[pos .. pos+len)] (default: the whole buffer).
      Raises [Invalid_argument] on an out-of-range slice. *)

  val u8 : t -> int

  val check : bool -> unit
  (** [check cond] raises {!Corrupt} unless [cond] — for codec-level
      invariants beyond raw framing. *)
end

(** {1 Codecs}

    A codec pairs a writer with the reader that inverts it. The
    combinators below are the ones durable records share; a record's
    codec is built from them once, and its reader validates as it goes
    (ranges, lengths, ordering, constructor checks). *)
module Codec : sig
  type 'a t = { write : Writer.t -> 'a -> unit; read : Reader.t -> 'a }

  val where : ('a -> bool) -> 'a t -> 'a t
  (** The same bytes; the reader raises {!Reader.Corrupt} on a decoded
      value the predicate refuses. *)

  val int : int t
  (** Zigzag LEB128: 1 byte for [-64 .. 63], at most 9 for any OCaml int.
      A multi-byte form ending in a zero byte, or a ninth byte with its
      continuation bit set, is refused. *)

  val nat : int t
  (** LEB128 of a non-negative int: 1 byte below 128, at most 9; refused
      when overlong or above [max_int]. *)

  val index : int -> int t
  (** [index n]: an int in [\[0, n)] as the fewest little-endian bytes
      that hold [n - 1], at least one (1 byte for [n <= 256], 2 for
      [n <= 65_536]); refused when [>= n]. The writer raises
      [Invalid_argument] on a value out of range. *)

  val bool : bool t
  (** [enum [| false; true |]]: one byte, 0 or 1. *)

  val float : float t
  (** IEEE-754 bits, 8 bytes little-endian. *)

  val bitmap : width:int -> Bitmap.t t
  (** The packed bits alone, [(width + 7) / 8] bytes as
      {!Bitmap.to_bytes} lays them out; refused unless every padding bit
      past [width] is clear. The writer raises [Invalid_argument] on a
      bitmap of another width. *)

  val option : 'a t -> 'a option t
  (** A [bool] presence flag, then the value. *)

  val list : 'a t -> 'a list t
  (** {!nat} count + elements in order. The count is checked against the
      bytes remaining before anything is read, which is sound because every
      element codec here consumes at least one byte ([bitmap ~width:0]
      does not; no list holds one). *)

  val ascending : ('a -> int) -> 'a t -> 'a list t
  (** {!list} whose keys must be strictly ascending: the form of a set or
      a map, so a duplicate or reordered entry is refused rather than
      merged. *)

  val array : len:int -> 'a t -> 'a array t
  (** {!nat} count + elements in order; the count must equal [len]. *)

  val enum : 'a array -> 'a t
  (** [index (Array.length values)] of the value's position in [values]
      (one byte up to 256 values), which must be constant constructors
      (compared with [==]). *)

  type 'a case

  val case : 'b t -> ('b -> 'a) -> ('a -> 'b option) -> 'a case
  (** [case payload inj proj]: the constructor [proj] recognises, carrying
      [payload]. *)

  val variant : 'a case list -> 'a t
  (** A tag, the position of the first case whose [proj] accepts the
      value as an {!index} of the case count (one byte up to 256 cases),
      then that case's payload. *)

  (** {2 Records}

      [let+ a = field get_a ca and+ b = field get_b cb in make a b] writes
      and reads the fields in order and builds the value with [make]. An
      [Invalid_argument] from [make] (a constructor's validation) is
      raised as {!Reader.Corrupt}. *)

  type ('r, 'a) fields

  val field : ('r -> 'a) -> 'a t -> ('r, 'a) fields
  val ( and+ ) : ('r, 'a) fields -> ('r, 'b) fields -> ('r, 'a * 'b) fields
  val ( let+ ) : ('r, 'a) fields -> ('a -> 'r) -> 'r t

  val pair : 'a t -> 'b t -> ('a * 'b) t

  val with_bytes : 'a t -> ('a * bytes) t
  (** A value with its encoding: [with_bytes c] reads what [c] reads and
      a copy of the bytes it read it from, and writes the bytes verbatim,
      which must be [c]'s encoding of the value. As decoding is canonical,
      a decoded value keeps the bytes that re-encode it. *)

  val to_bytes : (Writer.t -> 'a -> unit) -> 'a -> bytes
  (** The bytes one write produces. *)

  val of_bytes : ?pos:int -> ?len:int -> (Reader.t -> 'a) -> bytes -> 'a
  (** One read over [b[pos .. pos+len)], which must consume the slice
      exactly: leftover bytes raise {!Reader.Corrupt}. *)
end
