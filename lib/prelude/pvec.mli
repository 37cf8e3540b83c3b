(** Persistent fixed-length arrays.

    A 32-way trie over the slots: {!get} walks ⌈log32 n⌉ levels, and
    {!set} copies the one path it changes (at most 32 words a level), so
    every earlier version stays intact and shares all other nodes with the
    new one. The length never changes; a collection whose shape changes is
    rebuilt with {!of_array}. *)

type 'a t

val of_array : 'a array -> 'a t
(** The elements of the array, copied into the trie's leaves; O(n). *)

val length : 'a t -> int

val get : 'a t -> int -> 'a
(** Raises [Invalid_argument] outside [0 .. length - 1]. *)

val set : 'a t -> int -> 'a -> 'a t
(** A new version with slot [i] replaced; the argument is unchanged.
    Raises [Invalid_argument] outside [0 .. length - 1]. *)

val to_array : 'a t -> 'a array
(** A fresh array of the elements in slot order; O(n). *)
