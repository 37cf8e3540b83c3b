(* poly-compare fixture: structural =, compare and a poly-keyed Hashtbl at
   a record type; the orderings and min/max at it; and comparisons at a
   type variable, which are caml_compare at every type (int included). *)
type t = { id : int; name : string }

let same (a : t) b = a = b
let order (a : t) b = compare a b
let table () : (t, int) Hashtbl.t = Hashtbl.create 16
let before (a : t) b = a < b
let least (a : t) b = min a b
let larger a b = if a >= b then a else b
let rec run_end a i n = if i + 1 < n && a.(i) <= a.(i + 1) then run_end a (i + 1) n else i + 1
let keyed () : ('k, int) Hashtbl.t = Hashtbl.create 16
let ordered (a : int) b = a < b && max a b > 0
