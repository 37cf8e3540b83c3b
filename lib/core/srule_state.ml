type site = Leaf of int | Pod of int

exception Full of site
exception Underflow of site

let () =
  Printexc.register_printer (function
    | Full (Leaf l) -> Some (Printf.sprintf "Srule_state.Full (Leaf %d)" l)
    | Full (Pod p) -> Some (Printf.sprintf "Srule_state.Full (Pod %d)" p)
    | Underflow (Leaf l) -> Some (Printf.sprintf "Srule_state.Underflow (Leaf %d)" l)
    | Underflow (Pod p) -> Some (Printf.sprintf "Srule_state.Underflow (Pod %d)" p)
    | _ -> None)

let site_key = function Leaf l -> 2 * l | Pod p -> (2 * p) + 1

let group_site_key topo ~group site =
  (group * ((2 * max (Topology.num_leaves topo) topo.Topology.pods) + 2))
  + site_key site

type t = {
  topo : Topology.t;
  fmax : int;
  leaf_used : int array;
  pod_used : int array;
}

let create topo ~fmax =
  if fmax < 0 then invalid_arg "Srule_state.create: fmax must be non-negative"; (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
  {
    topo;
    fmax;
    leaf_used = Array.make (Topology.num_leaves topo) 0;
    pod_used = Array.make topo.Topology.pods 0;
  }

let fmax t = t.fmax
let leaf_has_space t l = t.leaf_used.(l) < t.fmax
let pod_has_space t p = t.pod_used.(p) < t.fmax

let reserve_leaf t l =
  if not (leaf_has_space t l) then raise (Full (Leaf l));
  t.leaf_used.(l) <- t.leaf_used.(l) + 1

let reserve_pod t p =
  if not (pod_has_space t p) then raise (Full (Pod p));
  t.pod_used.(p) <- t.pod_used.(p) + 1

let reserve t = function Leaf l -> reserve_leaf t l | Pod p -> reserve_pod t p

let release t site =
  let used, i =
    match site with Leaf l -> (t.leaf_used, l) | Pod p -> (t.pod_used, p)
  in
  if used.(i) <= 0 then raise (Underflow site);
  used.(i) <- used.(i) - 1

let leaf_used t l = t.leaf_used.(l)
let pod_used t p = t.pod_used.(p)
let leaf_occupancy t = Array.copy t.leaf_used

let spine_occupancy t =
  Array.init (Topology.num_spines t.topo) (fun s ->
      t.pod_used.(s / t.topo.Topology.spines_per_pod))

let total_srules t =
  Array.fold_left ( + ) 0 t.leaf_used
  + (Array.fold_left ( + ) 0 t.pod_used * t.topo.Topology.spines_per_pod)

let check t =
  let ok used = Array.for_all (fun u -> 0 <= u && u <= t.fmax) used in
  ok t.leaf_used && ok t.pod_used
