(** Searches in sorted int arrays.

    One allocation-free binary search, at [int], for every sorted index
    the hot paths keep: a tree's member array, an encoding's leaf slots
    and a down's rule index. *)

val lower_bound : int array -> int -> lo:int -> hi:int -> int
(** [lower_bound a x ~lo ~hi] is the first position of the ascending
    [a.(lo) .. a.(hi)] holding a value [>= x], or [hi + 1] if none does.
    The bounds are not checked: they must lie in [a] (or [lo = hi + 1]).
    Allocation-free. *)

val search : int array -> int -> lo:int -> hi:int -> int
(** [search a x ~lo ~hi] is the position of [x] in the ascending
    [a.(lo) .. a.(hi)], or [-1] if it is not there: {!lower_bound}, then
    one comparison. Allocation-free. *)
