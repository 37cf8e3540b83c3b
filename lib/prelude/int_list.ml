(* The stdlib's list lookups, specialised to int keys: [k = x] compiles
   to one machine comparison instead of a [caml_compare] call. *)

(* elmo-lint: zero-alloc *)
let rec mem (x : int) = function [] -> false | y :: l -> y = x || mem x l

let rec assoc (x : int) = function
  | [] -> raise Not_found
  | (k, v) :: l -> if k = x then v else assoc x l

let rec assoc_opt (x : int) = function
  | [] -> None
  | (k, v) :: l -> if k = x then Some v else assoc_opt x l

(* elmo-lint: zero-alloc *)
let rec mem_assoc (x : int) = function
  | [] -> false
  | (k, _) :: l -> k = x || mem_assoc x l

let rec remove_assoc (x : int) = function
  | [] -> []
  | ((k, _) as pair) :: l -> if k = x then l else pair :: remove_assoc x l
