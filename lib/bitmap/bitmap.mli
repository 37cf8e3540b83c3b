(** Fixed-width bit vectors used as switch output-port bitmaps.

    A p-rule's payload is a bitmap over a switch's ports (§3.1 D1 of the
    paper); sharing decisions are made on bitwise OR and Hamming distance of
    these bitmaps (§3.2). Width is fixed at creation and all binary operations
    require equal widths. A bitmap is one heap block: its width and then its
    63-bit words, so one of at most 63 bits takes three words. *)

type t

val create : int -> t
(** [create width] is the all-zeros bitmap of [width] bits.
    Raises [Invalid_argument] if [width < 0]. *)

val width : t -> int

val copy : t -> t

val set : t -> int -> unit
(** Raises [Invalid_argument] when the index is out of bounds. *)

val clear : t -> int -> unit
val get : t -> int -> bool

val popcount : t -> int
(** Number of set bits. *)

val is_empty : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val union : t -> t -> t
(** Fresh bitwise OR. Raises [Invalid_argument] on width mismatch. *)

val union_into : dst:t -> t -> unit
(** [union_into ~dst src] ORs [src] into [dst] in place. *)

val reset : t -> unit
(** Clears every bit in place. *)

val copy_into : dst:t -> t -> unit
(** [copy_into ~dst src] overwrites [dst] with [src] in place. Raises
    [Invalid_argument] on width mismatch. *)

val inter : t -> t -> t
val diff : t -> t -> t
(** [diff a b] has the bits of [a] not in [b]. *)

val subset : t -> t -> bool
(** [subset a b] iff every bit of [a] is set in [b]. *)

val hamming : t -> t -> int
(** Number of differing bit positions. *)

val union_cost : t -> t -> int
(** [union_cost a acc] = popcount (union a acc) - popcount acc: how many new
    bits [a] adds — the quantity minimized by approximate MIN-K-UNION. *)

val of_list : int -> int list -> t
(** [of_list width indices]. *)

val of_slice : int -> int array -> pos:int -> len:int -> base:int -> t
(** [of_slice width a ~pos ~len ~base] has bit [a.(i) - base] set for every
    [i] in [\[pos, pos + len)]: one call builds a leaf's bitmap from its run
    of sorted host ids. Raises [Invalid_argument] if a bit falls outside
    [\[0, width)] or the slice outside [a]. *)

val to_list : t -> int list
(** Indices of set bits, ascending. *)

val iter : (int -> unit) -> t -> unit
(** Applies the function to each set-bit index, ascending. *)

val next_set : t -> int -> int
(** [next_set t i] is the lowest set bit at or above [i >= 0], or [-1] if
    there is none. A loop from [next_set t 0] visits what {!iter} visits,
    with no closure. Allocation-free, O(words skipped). *)

val drain : t -> lo:int -> hi:int -> int list
(** [drain t ~lo ~hi] is the set bits of [t] in [\[lo, hi\]], ascending,
    and clears them. It is the read-out of a counting sort: set the keys,
    drain their range, and the bitmap is clear again for the next sort.
    O((hi - lo) / 63 + bits returned); no comparison sort. [[]] when
    [lo > hi]. Raises [Invalid_argument] if [lo] or [hi] is out of range
    otherwise. *)

val drain_into : t -> lo:int -> hi:int -> int array -> int
(** [drain_into t ~lo ~hi dst] is {!drain} written into [dst]: the set bits
    of [t] in [\[lo, hi\]] go ascending into [dst.(0)], [dst.(1)], ...,
    are cleared, and their count is returned. Allocation-free. Raises
    [Invalid_argument] as {!drain} does, and if [dst] is too short, which
    leaves [t] partly drained. *)

val union_all : int -> t list -> t
(** [union_all width ts] ORs all bitmaps ([create width] if the list is
    empty). *)

val get_byte : t -> int -> int
(** [get_byte t j] is byte [j] of {!to_bytes}: bits [8j .. 8j+7], bit [8j]
    in the least significant position. Allocation-free. Raises
    [Invalid_argument] unless [0 <= j < ceil (width / 8)]. *)

val or_byte : t -> int -> int -> unit
(** [or_byte t j v] ORs the low 8 bits of [v] into bits [8j .. 8j+7] (bit
    [8j] from the least significant bit of [v]); bits at or past the width
    are dropped. Allocation-free. Raises [Invalid_argument] unless
    [0 <= j < ceil (width / 8)]. *)

val to_bytes : t -> bytes
(** Little-endian packed bits, [ceil (width / 8)] bytes; for wire encoding. *)

val of_bytes : int -> bytes -> t
(** [of_bytes width b] inverse of {!to_bytes}. Raises [Invalid_argument] if
    [b] is shorter than [ceil (width / 8)] bytes. *)

val pp : Format.formatter -> t -> unit
(** Renders as a binary string, bit 0 leftmost (matching Figure 3a's
    "10", "01", "11" annotations). *)

val to_string : t -> string
