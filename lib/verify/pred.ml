(* Sorted-set normal form with hash-consing. Edges are packed into single
   native ints — tag in the top bits so the canonical (sorted) order is
   Core < Spine _ < Leaf _, then switch id, then port — and a predicate is
   a strictly increasing int array interned in its universe. *)

type switch = Core | Spine of int | Leaf of int

(* 29 bits each for switch id and port covers any topology this codebase
   can represent (bitmap widths are ports-per-switch, far below 2^29). *)
let id_bits = 29
let id_mask = (1 lsl id_bits) - 1

let pack sw port =
  let tag, id = match sw with Core -> (0, 0) | Spine p -> (1, p) | Leaf l -> (2, l) in
  (tag lsl (2 * id_bits)) lor (id lsl id_bits) lor port

let unpack key =
  let tag = key lsr (2 * id_bits) in
  let id = (key lsr id_bits) land id_mask in
  let port = key land id_mask in
  let sw = match tag with 0 -> Core | 1 -> Spine id | _ -> Leaf id in
  (sw, port)

type t = { uid : int; elems : int array }

type ctx = {
  mutable next_uid : int;
  table : (int, t list) Hashtbl.t;  (* content hash -> interned bucket *)
}

let create_ctx () = { next_uid = 0; table = Hashtbl.create 256 }

(* FNV-1a over the packed edges (not [Hashtbl.hash]: deterministic by
   construction and independent of the runtime's hashing). *)
let hash_elems a =
  let h = ref 0x811c9dc5 in
  Array.iter
    (fun x ->
      h := (!h lxor (x land 0xffff)) * 0x01000193 land max_int;
      h := (!h lxor ((x lsr 16) land 0xffff)) * 0x01000193 land max_int;
      h := (!h lxor (x lsr 32)) * 0x01000193 land max_int)
    a;
  !h

let equal_elems (a : int array) (b : int array) =
  Array.length a = Array.length b
  &&
  let rec go i = i < 0 || (a.(i) = b.(i) && go (i - 1)) in
  go (Array.length a - 1)

let intern ctx elems =
  let h = hash_elems elems in
  let bucket = Option.value ~default:[] (Hashtbl.find_opt ctx.table h) in
  match List.find_opt (fun t -> equal_elems t.elems elems) bucket with
  | Some t -> t
  | None ->
      let t = { uid = ctx.next_uid; elems } in
      ctx.next_uid <- ctx.next_uid + 1;
      Hashtbl.replace ctx.table h (t :: bucket);
      t

let of_pairs ctx pairs =
  let keys = List.map (fun (sw, port) -> pack sw port) pairs in
  let elems = Array.of_list (List.sort_uniq Int.compare keys) in
  intern ctx elems

let pairs t = Array.to_list (Array.map unpack t.elems)

let leaf_endpoints t ~topo =
  Array.to_list t.elems
  |> List.filter_map (fun key ->
         match unpack key with
         | Leaf l, port -> Some ((l * topo.Topology.hosts_per_leaf) + port)
         | (Core | Spine _), _ -> None)

let compare_edge (sa, pa) (sb, pb) = Int.compare (pack sa pa) (pack sb pb)
let cardinal t = Array.length t.elems
let is_empty t = Array.length t.elems = 0
let equiv a b = a == b

let subsumes ~big ~small =
  (* [small]'s sorted elems must be a subsequence of [big]'s. *)
  let nb = Array.length big.elems and ns = Array.length small.elems in
  let rec go ib is =
    if is >= ns then true
    else if ib >= nb then false
    else if big.elems.(ib) = small.elems.(is) then go (ib + 1) (is + 1)
    else if big.elems.(ib) < small.elems.(is) then go (ib + 1) is
    else false
  in
  go 0 0

let first_missing ~big ~small =
  let nb = Array.length big.elems and ns = Array.length small.elems in
  let rec go ib is =
    if is >= ns then None
    else if ib >= nb || big.elems.(ib) > small.elems.(is) then
      Some (unpack small.elems.(is))
    else if big.elems.(ib) = small.elems.(is) then go (ib + 1) (is + 1)
    else go (ib + 1) is
  in
  go 0 0

let first_diff a b =
  let na = Array.length a.elems and nb = Array.length b.elems in
  let rec go ia ib =
    match (ia < na, ib < nb) with
    | false, false -> None
    | true, false -> Some (unpack a.elems.(ia))
    | false, true -> Some (unpack b.elems.(ib))
    | true, true ->
        if a.elems.(ia) = b.elems.(ib) then go (ia + 1) (ib + 1)
        else Some (unpack (min a.elems.(ia) b.elems.(ib)))
  in
  go 0 0

let pp_switch ppf = function
  | Core -> Format.pp_print_string ppf "core"
  | Spine p -> Format.fprintf ppf "spine%d" p
  | Leaf l -> Format.fprintf ppf "leaf%d" l

let pp ppf t =
  Format.pp_print_string ppf "{";
  Array.iteri
    (fun i key ->
      if i > 0 then Format.pp_print_string ppf ", ";
      let sw, port = unpack key in
      Format.fprintf ppf "%a/%d" pp_switch sw port)
    t.elems;
  Format.pp_print_string ppf "}"
