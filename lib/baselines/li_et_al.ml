type table = (string, int) Hashtbl.t
(* aggregated entries: port-set key -> number of groups sharing it *)

type t = {
  topo : Topology.t;
  leaf_tables : table array;
  spine_tables : table array;
  core_tables : table array;
  mutable groups : int;
}

let create topo =
  {
    topo;
    leaf_tables = Array.init (Topology.num_leaves topo) (fun _ -> Hashtbl.create 16);
    spine_tables = Array.init (Topology.num_spines topo) (fun _ -> Hashtbl.create 16);
    core_tables =
      Array.init (max 1 (Topology.num_cores topo)) (fun _ -> Hashtbl.create 16);
    groups = 0;
  }

let hash_group g =
  let z = (g * 0x9E3779B9) lxor 0x5bd1e995 in
  abs ((z lxor (z lsr 13)) * 0xC2B2AE35)

let plane_of_group t g = hash_group g mod t.topo.Topology.spines_per_pod

let core_of_group t g =
  let cpp = t.topo.Topology.cores_per_plane in
  if cpp = 0 then 0 else (plane_of_group t g * cpp) + (hash_group g / 7 mod cpp)

let key bm = Bytes.to_string (Bitmap.to_bytes bm)

(* The pinned tree of a group as (switch table, switch id, port-set key)
   triples. *)
let pinned_entries t group tree =
  let plane = plane_of_group t group in
  let leaf_entries =
    List.init (Tree.leaf_count tree) (fun s ->
        (`Leaf, tree.Tree.leaf_ids.(s), key tree.Tree.leaf_bms.(s)))
  in
  let spine_entries =
    List.init (Tree.pod_count tree) (fun s ->
        ( `Spine,
          (tree.Tree.pod_ids.(s) * t.topo.Topology.spines_per_pod) + plane,
          key tree.Tree.spine_bms.(s) ))
  in
  let core_entries =
    if Tree.pod_count tree > 1 then
      [ (`Core, core_of_group t group, key tree.Tree.core_bitmap) ]
    else []
  in
  leaf_entries @ spine_entries @ core_entries

let table_of t = function
  | `Leaf, id -> t.leaf_tables.(id)
  | `Spine, id -> t.spine_tables.(id)
  | `Core, id -> t.core_tables.(id)

let incr_entry tbl k =
  Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let decr_entry tbl k =
  match Hashtbl.find_opt tbl k with
  | None -> ()
  | Some 1 -> Hashtbl.remove tbl k
  | Some n -> Hashtbl.replace tbl k (n - 1)

let add_group t ~group tree =
  List.iter
    (fun (layer, id, k) -> incr_entry (table_of t (layer, id)) k)
    (pinned_entries t group tree);
  t.groups <- t.groups + 1

let remove_group t ~group tree =
  List.iter
    (fun (layer, id, k) -> decr_entry (table_of t (layer, id)) k)
    (pinned_entries t group tree);
  t.groups <- t.groups - 1

type touch = { leaves : int list; spines : int list; cores : int list }

let update t ~group ~old_tree ~new_tree =
  let old_entries =
    match old_tree with Some tr -> pinned_entries t group tr | None -> []
  in
  let new_entries =
    match new_tree with Some tr -> pinned_entries t group tr | None -> []
  in
  (match old_tree with Some tr -> remove_group t ~group tr | None -> ());
  (match new_tree with Some tr -> add_group t ~group tr | None -> ());
  (* A switch's state changes when the group's port set there appears,
     vanishes, or differs; and because the scheme assigns local multicast
     addresses by aggregation, any such change forces the group's address to
     be reassigned — rewriting the entry on EVERY switch of the old and new
     trees (the cascading updates the paper criticizes). *)
  let layer_rank = function `Leaf -> 0 | `Spine -> 1 | `Core -> 2 in
  let find entries layer (id : int) =
    List.find_map
      (fun (l, i, k) -> if layer_rank l = layer_rank layer && i = id then Some k else None)
      entries
  in
  let ids entries = List.map (fun (l, i, _) -> (l, i)) entries in
  let compare_site (l1, i1) (l2, i2) =
    match Int.compare (layer_rank l1) (layer_rank l2) with
    | 0 -> Int.compare i1 i2
    | c -> c
  in
  let all = List.sort_uniq compare_site (ids old_entries @ ids new_entries) in
  let any_change =
    List.exists
      (fun (layer, id) -> find old_entries layer id <> find new_entries layer id)
      all
  in
  let changed = if any_change then all else [] in
  {
    leaves =
      List.filter_map (function `Leaf, id -> Some id | _ -> None) changed;
    spines =
      List.filter_map (function `Spine, id -> Some id | _ -> None) changed;
    cores =
      List.filter_map (function `Core, id -> Some id | _ -> None) changed;
  }

let leaf_entries t = Array.map Hashtbl.length t.leaf_tables
let spine_entries t = Array.map Hashtbl.length t.spine_tables
let core_entries t = Array.map Hashtbl.length t.core_tables
let flow_entries t = t.groups
