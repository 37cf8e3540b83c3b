(** Lookups in int-keyed lists.

    [Stdlib.List.mem], [assoc], [assoc_opt], [mem_assoc] and
    [remove_assoc] compare with polymorphic compare whatever the element
    type, so every step of a lookup at an int key is a [caml_compare]
    call. These are the same functions at [int], where each step is one
    machine comparison. The [poly-lookup] lint rule keeps the stdlib
    versions out of [lib/]. *)

val mem : int -> int list -> bool
(** [mem x l]: does [x] occur in [l]? *)

val assoc : int -> (int * 'a) list -> 'a
(** The value of the first pair keyed [x]. Raises [Not_found] if none. *)

val assoc_opt : int -> (int * 'a) list -> 'a option
(** The value of the first pair keyed [x], if any. *)

val mem_assoc : int -> (int * 'a) list -> bool
(** Is some pair keyed [x]? *)

val remove_assoc : int -> (int * 'a) list -> (int * 'a) list
(** [l] without its first pair keyed [x]; the other pairs keep their
    order. *)
