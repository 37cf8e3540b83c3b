type t = {
  topo : Topology.t;
  leaf_counts : int array;
  spine_counts : int array;
  core_counts : int array;
}

let create topo =
  {
    topo;
    leaf_counts = Array.make (Topology.num_leaves topo) 0;
    spine_counts = Array.make (Topology.num_spines topo) 0;
    core_counts = Array.make (max 1 (Topology.num_cores topo)) 0;
  }

let hash_group g =
  let z = (g * 0x9E3779B9) lxor 0x5bd1e995 in
  abs ((z lxor (z lsr 13)) * 0xC2B2AE35)

(* Pinned tree switches: every member leaf, one spine per member pod (a
   fixed plane), and one core for multi-pod groups. *)
let tree_switches t group tree =
  let plane = hash_group group mod t.topo.Topology.spines_per_pod in
  let leaves = List.map (fun l -> `Leaf l) (Tree.leaves tree) in
  let spines =
    List.map
      (fun p -> `Spine ((p * t.topo.Topology.spines_per_pod) + plane))
      (Tree.pods tree)
  in
  let cores =
    if Tree.pod_count tree > 1 && t.topo.Topology.cores_per_plane > 0 then
      [ `Core
          ((plane * t.topo.Topology.cores_per_plane)
          + (hash_group group / 7 mod t.topo.Topology.cores_per_plane))
      ]
    else []
  in
  leaves @ spines @ cores

let adjust t ~group tree delta =
  List.iter
    (function
      | `Leaf l -> t.leaf_counts.(l) <- t.leaf_counts.(l) + delta
      | `Spine s -> t.spine_counts.(s) <- t.spine_counts.(s) + delta
      | `Core c -> t.core_counts.(c) <- t.core_counts.(c) + delta)
    (tree_switches t group tree)

let add_group t ~group tree = adjust t ~group tree 1
let remove_group t ~group tree = adjust t ~group tree (-1)

let leaf_entries t = Array.copy t.leaf_counts
let spine_entries t = Array.copy t.spine_counts
let core_entries t = Array.copy t.core_counts

let max_table_occupancy t =
  let m arr = Array.fold_left max 0 arr in
  max (m t.leaf_counts) (max (m t.spine_counts) (m t.core_counts))

let groups_supported ~table_capacity = table_capacity
