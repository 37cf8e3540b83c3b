(* poly-lookup fixture: every stdlib list lookup compares with polymorphic
   compare, int keys included. *)
let has x (l : int list) = List.mem x l
let find k (l : (int * string) list) = List.assoc k l
let find_opt k (l : (int * string) list) = List.assoc_opt k l
let has_key k (l : (int * string) list) = List.mem_assoc k l
let drop k (l : (int * string) list) = List.remove_assoc k l
let exists x (l : int list) = List.exists (Int.equal x) l
