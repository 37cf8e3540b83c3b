(** Bit-granular serialization, the substrate for Elmo's wire format.

    Elmo headers are not byte-aligned: a p-rule is a bitmap (width = port
    count of the layer), a next-rule flag, and n-bit switch identifiers
    (§3.1, Figure 2). Writer appends most-significant-bit-first fields;
    Reader consumes them in the same order.

    The bit order on the wire is the same as writing one bit at a time
    (a bitmap's bit 0 first), but the work moves 8 bits per step: bitmaps
    travel a byte at a time ({!Bitmap.get_byte}/{!Bitmap.or_byte} through
    an 8-bit reversal table) at any bit alignment, and [bits] fields are
    split into whole bytes plus a remainder. *)

module Writer : sig
  type t

  val create : unit -> t

  val bit : t -> bool -> unit
  val bits : t -> int -> int -> unit
  (** [bits w value n] appends the low [n] bits of [value], MSB first.
      Raises [Invalid_argument] if [n < 0], [n > 62], or [value] does not fit
      in [n] bits. *)

  val bitmap : t -> Bitmap.t -> unit
  (** Appends bitmap bits in index order (bit 0 first), a byte per step. *)

  val align_byte : t -> unit
  (** Pads with zero bits to the next byte boundary. *)

  val bit_length : t -> int
  val to_bytes : t -> bytes
  (** Final padding to a whole byte with zeros. *)
end

module Sink : sig
  (** A non-allocating {!Writer}: bits go straight into a caller-provided
      byte buffer. The write path allocates nothing on the OCaml heap
      (enforced by the zero-alloc lint rule and an [Allocs.probe] test);
      only the error path — overflowing the buffer or passing an
      out-of-range width — allocates, by raising [Invalid_argument]. *)

  type t

  val of_bytes : ?pos:int -> bytes -> t
  (** [of_bytes ?pos b] writes into [b] starting at byte [pos] (default 0).
      Raises [Invalid_argument] if [pos] is out of range. *)

  val reset : t -> pos:int -> unit
  (** Rewinds the sink to byte [pos] of the same buffer, allocation-free —
      so a steady-state encode loop can reuse one sink across events. *)

  val bit : t -> bool -> unit
  (** Raises [Invalid_argument] if the buffer is full at a byte flush. *)

  val bits : t -> int -> int -> unit
  (** [bits s value n] appends the low [n] bits of [value], MSB first —
      same contract as {!Writer.bits}. *)

  val bitmap : t -> Bitmap.t -> unit

  val append : t -> bytes -> off:int -> len:int -> unit
  (** [append s src ~off ~len] appends bits [off .. off + len) of [src]
      (MSB-first, as a {!Sink} or {!Writer} laid them out): a plain blit
      when both sides sit on a byte boundary, otherwise a byte per step
      shifted into place. This is how a pre-encoded run of bits is spliced
      into a new record without re-walking the fields it came from. Raises
      [Invalid_argument] if the range lies outside [src] or the buffer is
      too small. *)

  val align_byte : t -> unit

  val bit_length : t -> int
  (** Bits written so far. *)

  val byte_pos : t -> int
  (** Index of the next byte to be written (complete bytes only). *)

  val finish : t -> int
  (** Pads to a byte boundary and returns the end position: the written
      record occupies [b[pos .. finish t)]. *)
end

module Run : sig
  (** A run of bits encoded once and appended many times. The run is kept
      at the bit alignments its appends will find the sink at (always 0,
      plus those given to {!make}), so appending it whole to a {!Sink} at
      one of them is one OR into the sink's pending byte and a blit, never
      a shift; at any other alignment it is {!Sink.append}'s shifted copy.
      Both give the same bits. The shared downstream sections of an Elmo
      header are one, built at the alignments a header prefix can end
      at. *)

  type t

  val make : aligns:int list -> bytes -> len:int -> t
  (** [make ~aligns src ~len] copies the first [len] bits of [src] at
      alignment 0 and at each alignment in [aligns]. Raises
      [Invalid_argument] if [src] is shorter or an alignment is outside
      0..7. *)

  val bytes : t -> bytes
  (** The run from bit 0, zero-padded to a byte. Do not mutate it. *)

  val append : Sink.t -> t -> off:int -> unit
  (** [append s r ~off] appends bits [off .. length r) of [r]: the whole
      run ([off = 0]) at a built alignment by a blit of the copy at the
      sink's alignment, a suffix or an unbuilt alignment by {!Sink.append}'s
      shifted copy. Allocation-free, under the [zero-alloc] lint rule.
      Raises [Invalid_argument] if the sink's buffer is too small or [off]
      is outside the run. *)
end

module Reader : sig
  type t

  exception Truncated

  val of_bytes : bytes -> t
  val bit : t -> bool
  val bits : t -> int -> int
  val bitmap : t -> int -> Bitmap.t
  (** [bitmap r width] reads [width] bits written by {!Writer.bitmap}, a
      byte per step. Raises [Truncated] if the input ends inside them. *)

  val skip : t -> int -> unit
  (** [skip r n] moves past [n] bits without reading them. Raises
      [Truncated] if the input ends inside them, like reading them would. *)

  val next_set : bytes -> off:int -> int -> int -> int
  (** [next_set data ~off width i] is the lowest set bit at or above
      [i >= 0] of the [width]-bit bitmap written at bit [off] of [data], or [-1] if
      there is none: {!Bitmap.next_set} on the bitmap {!bitmap} would
      read, without building it. A loop from [next_set data ~off width 0]
      visits the set bits in ascending order with no closure. It reads
      [data] directly, whatever any reader's position. Allocation-free.
      Raises [Truncated] if [data] ends inside the bitmap. *)

  val bit_at : bytes -> int -> bool
  (** [bit_at data pos] is stream bit [pos] of [data], as {!bit} would
      read it there. Allocation-free. Raises [Truncated] if [pos] is
      outside [data]. *)

  val align_byte : t -> unit

  val seek : t -> int -> unit
  (** [seek r pos] moves to bit offset [pos], so a parser can start at a
      field in the middle of a record. Raises [Invalid_argument] if [pos] is
      beyond the input. *)

  val pos : t -> int
  (** Current offset in bits. *)

  val remaining : t -> int
  (** Bits left, counting final padding. *)
end
