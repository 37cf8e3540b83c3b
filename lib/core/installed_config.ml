(* Read-only view of an installed configuration: see the interface for the
   design rationale. This module must stay free of controller internals —
   [Controller] depends on it, not the other way around. *)

type override = {
  up_leaf_ports : Bitmap.t;
  up_spine_ports : Bitmap.t option;
  unicast : bool;
}

type group_view = {
  gid : int;
  receivers : int array;
  senders : int array;
  enc : Encoding.t option;
  overrides : (int * override) list;
}

type index = {
  gids : int array;  (* ascending; never written once built *)
  views : group_view Pvec.t;  (* slot-aligned with [gids] *)
  flat : group_view array Lazy.t;  (* [views] as one array *)
}

type t = {
  topo : Topology.t;
  params : Params.t;
  index : index;
  spine_ok : bool array;
  core_ok : bool array;
  link_ok : bool array;
  denied_leaf : bool array;
  denied_pod : bool array;
  stale_sites : (int * Srule_state.site) array;
  generation : int ref;
  stamp : int;
}

let compare_stale (g1, s1) (g2, s2) =
  match Int.compare g1 g2 with
  | 0 -> Int.compare (Srule_state.site_key s1) (Srule_state.site_key s2)
  | c -> c

(* Heap sort in place: the array is fresh, so sorting it allocates nothing
   more. *)
let sorted cmp l =
  let a = Array.of_list l in
  Array.sort cmp a;
  a

(* The verifier walks [receivers] in leaf runs and names the first
   uncovered host in array order, so a hand-built view must hand it
   strictly ascending hosts of the topology. *)
let rec ascending (a : int array) i =
  i + 1 >= Array.length a || (a.(i) < a.(i + 1) && ascending a (i + 1))

let hosts_ok topo a =
  let n = Array.length a in
  n = 0 || (a.(0) >= 0 && a.(n - 1) < Topology.num_hosts topo && ascending a 0)

let check_members topo (g : group_view) =
  if not (hosts_ok topo g.receivers && hosts_ok topo g.senders) then
    invalid_arg "Installed_config: members not ascending hosts of the topology" (* elmo-lint: allow exception-discipline — documented API-misuse guard *)

let index_of_array topo groups =
  Array.iter (check_members topo) groups;
  {
    gids = Array.map (fun g -> g.gid) groups;
    views = Pvec.of_array groups;
    flat = Lazy.from_val groups;
  }

let build ?(generation = ref 0) ?spine_ok ?core_ok ?link_ok ?denied_leaf
    ?denied_pod ?(stale_sites = []) topo params index =
  let default len v = function Some a -> a | None -> Array.make len v in
  {
    topo;
    params;
    index;
    spine_ok = default (Topology.num_spines topo) true spine_ok;
    core_ok = default (max 1 (Topology.num_cores topo)) true core_ok;
    link_ok =
      default
        (Topology.num_leaves topo * topo.Topology.spines_per_pod)
        true link_ok;
    denied_leaf = default (Topology.num_leaves topo) false denied_leaf;
    denied_pod = default topo.Topology.pods false denied_pod;
    stale_sites = sorted compare_stale stale_sites;
    generation;
    stamp = !generation;
  }

let make ?generation ?spine_ok ?core_ok ?link_ok ?denied_leaf ?denied_pod
    ?stale_sites topo params groups =
  build ?generation ?spine_ok ?core_ok ?link_ok ?denied_leaf ?denied_pod
    ?stale_sites topo params
    (index_of_array topo (sorted (fun a b -> Int.compare a.gid b.gid) groups))

let of_index ?generation ?spine_ok ?core_ok ?link_ok ?denied_leaf ?denied_pod
    ?stale_sites topo params ~gids views =
  build ?generation ?spine_ok ?core_ok ?link_ok ?denied_leaf ?denied_pod
    ?stale_sites topo params
    { gids; views; flat = lazy (Pvec.to_array views) }

let with_groups t groups = { t with index = index_of_array t.topo groups }
let is_current t = !(t.generation) = t.stamp
let groups t = Lazy.force t.index.flat
let count t = Array.length t.index.gids

let slot t gid =
  let gids = t.index.gids in
  Int_array.search gids gid ~lo:0 ~hi:(Array.length gids - 1)

let nth t i = Pvec.get t.index.views i

(* An element of the sorted array [a] for which [cmp] returns 0, if any
   ([cmp x] orders the probe against element [x]). *)
let bsearch a cmp =
  let rec go lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) lsr 1 in
      match cmp a.(mid) with
      | 0 -> Some a.(mid)
      | c when c < 0 -> go lo mid
      | _ -> go (mid + 1) hi
  in
  go 0 (Array.length a)

let group t gid =
  let i = slot t gid in
  if i < 0 then None else Some (nth t i)

let group_ids t = Array.to_list t.index.gids

let link_ok t ~leaf ~plane =
  t.link_ok.((leaf * t.topo.Topology.spines_per_pod) + plane)

let spine_ok t ~pod ~plane =
  t.spine_ok.((pod * t.topo.Topology.spines_per_pod) + plane)

let is_stale t ~group site =
  Array.length t.stale_sites > 0
  && Option.is_some (bsearch t.stale_sites (compare_stale (group, site)))
