(* A trie of fixed depth: leaves hold up to 32 elements, inner nodes up to
   32 children, and slot [i]'s path reads 5 bits of [i] a level, most
   significant first. Every leaf but the last is full. *)

type 'a node = Leaf of 'a array | Node of 'a node array

type 'a t = {
  len : int;
  shift : int;  (* the root's bit offset: 0 when the root is a leaf *)
  root : 'a node;
}

let bits = 5
let width = 1 lsl bits
let mask = width - 1

(* Group [nodes] 32 at a time under new parents until one is left. *)
let rec build shift nodes =
  let n = Array.length nodes in
  if n = 1 then (shift, nodes.(0))
  else
    build (shift + bits)
      (Array.init ((n + mask) / width) (fun k ->
           Node (Array.sub nodes (k * width) (Int.min width (n - (k * width))))))

let of_array a =
  let len = Array.length a in
  let leaves =
    Array.init
      (Int.max 1 ((len + mask) / width))
      (fun k -> Leaf (Array.sub a (k * width) (Int.min width (len - (k * width)))))
  in
  let shift, root = build 0 leaves in
  { len; shift; root }

let length t = t.len

let check t i op = if i < 0 || i >= t.len then invalid_arg op

let rec get_node node shift i =
  match node with
  | Leaf a -> a.(i land mask)
  | Node c -> get_node c.((i lsr shift) land mask) (shift - bits) i

let get t i =
  check t i "Pvec.get";
  get_node t.root t.shift i

let rec set_node node shift i v =
  match node with
  | Leaf a ->
      let a = Array.copy a in
      a.(i land mask) <- v;
      Leaf a
  | Node c ->
      let c = Array.copy c in
      let k = (i lsr shift) land mask in
      c.(k) <- set_node c.(k) (shift - bits) i v;
      Node c

let set t i v =
  check t i "Pvec.set";
  { t with root = set_node t.root t.shift i v }

let to_array t =
  if t.len = 0 then [||]
  else begin
    let out = Array.make t.len (get t 0) in
    let rec fill pos = function
      | Leaf a ->
          Array.blit a 0 out pos (Array.length a);
          pos + Array.length a
      | Node c -> Array.fold_left fill pos c
    in
    ignore (fill 0 t.root : int);
    out
  end
