(** Approximate MIN-K-UNION (§3.2).

    Given a collection of bitmaps, find [k] of them whose bitwise OR has the
    fewest set bits. The exact problem is NP-hard; we use the standard greedy
    approximation the paper cites: seed with the smallest bitmap, then
    repeatedly add the bitmap contributing the fewest new bits. *)

val choose : k:int -> (int * Bitmap.t) array -> int list * Bitmap.t
(** [choose ~k candidates] returns the indices (into [candidates]) of the
    chosen [k] elements and the OR of their bitmaps. Ties break toward lower
    index, making results deterministic. Raises [Invalid_argument] if
    [k <= 0], [candidates] is empty, or [k] exceeds the candidate count. The
    [int] in each pair is an opaque tag preserved for the caller; selection
    looks only at bitmaps. *)

val choose_prefix :
  k:int -> n:int -> chosen:bool array -> Bitmap.t array -> int list * Bitmap.t
(** [choose_prefix ~k ~n ~chosen bitmaps] is {!choose} over the first
    [n] bitmaps, untagged, with [chosen] as the caller's scratch: its
    first [n] entries must be [false] on entry, and on return exactly the
    chosen indices are [true] (the caller clears them before the next
    call). Algorithm 1's loop calls it on a shrinking prefix of one array,
    so it allocates only the result. Requires [1 <= k <= n], [n] at most
    the lengths of [bitmaps] and [chosen]. *)
