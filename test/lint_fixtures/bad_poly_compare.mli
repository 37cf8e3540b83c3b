type t = { id : int; name : string }

val same : t -> t -> bool
val order : t -> t -> int
val table : unit -> (t, int) Hashtbl.t
val before : t -> t -> bool
val least : t -> t -> t
val larger : 'a -> 'a -> 'a
val run_end : 'a array -> int -> int -> int
val keyed : unit -> ('k, int) Hashtbl.t
val ordered : int -> int -> bool
