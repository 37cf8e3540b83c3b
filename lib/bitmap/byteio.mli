(** Byte-granular serialization with CRC32 — the substrate of the durable
    wire format (journal records, controller snapshots).

    {!Bitio} serializes the bit-packed Elmo {e packet} header; this module
    serializes the {e durable} byte stream the controller persists. Both
    sides are deterministic: a value writes to one byte sequence and reads
    back from exactly that sequence.

    Robustness contract: a {!Reader} over hostile bytes either returns a
    structurally valid value or raises {!Reader.Corrupt} — it never reads
    out of bounds and never allocates more than the input length can
    justify (every length prefix is validated against the bytes actually
    remaining before anything is allocated). Callers that must be total
    (e.g. [Wire.load]) catch [Corrupt] at the record boundary. *)

(** {1 CRC32}

    The reflected CRC-32 (polynomial [0xEDB88320], the Ethernet/zip one),
    table-driven and sliced by 8: one 8-byte word per step, bytewise for
    the tail. Values are the low 32 bits of an [int]. *)

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
  val length : t -> int

  val u8 : t -> int -> unit
  (** Raises [Invalid_argument] unless [0 <= v < 256]. *)

  val u32 : t -> int -> unit
  (** Little-endian. Raises [Invalid_argument] unless [0 <= v < 2^32]. *)

  val int : t -> int -> unit
  (** Full OCaml int as 8 bytes little-endian (two's complement). *)

  val bool : t -> bool -> unit
  val float : t -> float -> unit
  (** IEEE-754 bits, 8 bytes little-endian. *)

  val raw : t -> bytes -> unit
  (** The bytes verbatim, no length prefix. *)

  val bytes_field : t -> bytes -> unit
  (** u32 length prefix + the bytes. *)

  val bitmap : t -> Bitmap.t -> unit
  (** u32 width + packed bits ({!Bitmap.to_bytes}). *)

  val option : t -> (t -> 'a -> unit) -> 'a option -> unit
  val list : t -> (t -> 'a -> unit) -> 'a list -> unit
  (** u32 count + elements in order. *)

  val int_array : t -> int array -> unit
  val bool_array : t -> bool array -> unit
  (** u32 count + one byte per element. *)

  val to_bytes : t -> bytes
end

module Reader : sig
  type t

  exception Corrupt
  (** Truncated or malformed input: a read past the end of the slice, a
      length prefix exceeding the bytes remaining, a byte that is not a
      valid [bool], or a failed invariant in a caller's codec. *)

  val of_bytes : ?pos:int -> ?len:int -> bytes -> t
  (** A reader over [b[pos .. pos+len)] (default: the whole buffer).
      Raises [Invalid_argument] on an out-of-range slice. *)

  val pos : t -> int
  (** Absolute offset of the next byte in the underlying buffer. *)

  val remaining : t -> int

  val u8 : t -> int
  val u32 : t -> int

  val int : t -> int
  (** Raises {!Corrupt} unless the 8 bytes are the sign extension of an
      OCaml int, i.e. what {!Writer.int} writes. *)

  val bool : t -> bool
  val float : t -> float

  val raw : t -> int -> bytes
  (** [raw r n] reads exactly [n] bytes. *)

  val bytes_field : t -> bytes
  val bitmap : t -> Bitmap.t
  val option : t -> (t -> 'a) -> 'a option
  val list : t -> (t -> 'a) -> 'a list
  val int_array : t -> int array
  val bool_array : t -> bool array

  val check : bool -> unit
  (** [check cond] raises {!Corrupt} unless [cond] — for codec-level
      invariants (array lengths, value ranges) beyond raw framing. *)
end
