type t = {
  pods : int;
  leaves_per_pod : int;
  spines_per_pod : int;
  hosts_per_leaf : int;
  cores_per_plane : int;
  link_gbps : float;
}

let validate t =
  if t.pods <= 0 then invalid_arg "Topology: pods must be positive";
  if t.leaves_per_pod <= 0 then invalid_arg "Topology: leaves_per_pod must be positive";
  if t.spines_per_pod <= 0 then invalid_arg "Topology: spines_per_pod must be positive";
  if t.hosts_per_leaf <= 0 then invalid_arg "Topology: hosts_per_leaf must be positive";
  if t.cores_per_plane < 0 then invalid_arg "Topology: cores_per_plane must be non-negative";
  if t.pods > 1 && t.cores_per_plane = 0 then
    invalid_arg "Topology: multi-pod topology requires a core plane";
  if not (t.link_gbps > 0.0) then
    invalid_arg "Topology: link_gbps must be positive"

let create ~pods ~leaves_per_pod ~spines_per_pod ~hosts_per_leaf
    ~cores_per_plane =
  let t =
    { pods; leaves_per_pod; spines_per_pod; hosts_per_leaf; cores_per_plane;
      link_gbps = 10.0 }
  in
  validate t;
  t

let with_link_gbps t link_gbps =
  let t = { t with link_gbps } in
  validate t;
  t

let link_gbps t = t.link_gbps

let facebook_fabric () =
  create ~pods:12 ~leaves_per_pod:48 ~spines_per_pod:4 ~hosts_per_leaf:48
    ~cores_per_plane:12

let running_example () =
  create ~pods:4 ~leaves_per_pod:2 ~spines_per_pod:2 ~hosts_per_leaf:8
    ~cores_per_plane:2

let leaf_spine ~leaves ~spines ~hosts_per_leaf =
  create ~pods:1 ~leaves_per_pod:leaves ~spines_per_pod:spines ~hosts_per_leaf
    ~cores_per_plane:0

let num_leaves t = t.pods * t.leaves_per_pod
let num_spines t = t.pods * t.spines_per_pod
let num_cores t = t.spines_per_pod * t.cores_per_plane
let num_hosts t = num_leaves t * t.hosts_per_leaf
let num_switches t = num_leaves t + num_spines t + num_cores t
let is_two_tier t = t.cores_per_plane = 0

let check_host t h =
  if h < 0 || h >= num_hosts t then
    (* elmo-lint: allow zero-alloc — error path: raising Invalid_argument allocates *)
    invalid_arg "Topology: host out of range"

let check_leaf t l =
  if l < 0 || l >= num_leaves t then
    (* elmo-lint: allow zero-alloc — error path: raising Invalid_argument allocates *)
    invalid_arg "Topology: leaf out of range"

let leaf_of_host t h =
  check_host t h;
  h / t.hosts_per_leaf

let pod_of_leaf t l =
  check_leaf t l;
  l / t.leaves_per_pod

let pod_of_host t h = pod_of_leaf t (leaf_of_host t h)

let host_port_on_leaf t h =
  check_host t h;
  h mod t.hosts_per_leaf

let leaf_port_on_spine t l =
  check_leaf t l;
  l mod t.leaves_per_pod

let hosts_of_leaf t l =
  check_leaf t l;
  List.init t.hosts_per_leaf (fun i -> (l * t.hosts_per_leaf) + i)

let leaves_of_pod t p =
  if p < 0 || p >= t.pods then invalid_arg "Topology: pod out of range";
  List.init t.leaves_per_pod (fun i -> (p * t.leaves_per_pod) + i)

let spines_of_pod t p =
  if p < 0 || p >= t.pods then invalid_arg "Topology: pod out of range";
  List.init t.spines_per_pod (fun i -> (p * t.spines_per_pod) + i)

let leaf_downstream_width t = t.hosts_per_leaf
let spine_downstream_width t = t.leaves_per_pod
let core_downstream_width t = t.pods
let leaf_upstream_width t = t.spines_per_pod
let spine_upstream_width t = t.cores_per_plane

(* Top-level recursion (not a local closure) so callers on the zero-alloc
   encode path stay provably allocation-free. *)
let rec bits_needed_loop n bits cap =
  if cap >= n then bits else bits_needed_loop n (bits + 1) (cap * 2)

let bits_needed n = if n <= 1 then 1 else bits_needed_loop n 1 2

let leaf_id_bits t = bits_needed (num_leaves t)
let spine_id_bits t = bits_needed t.pods

(* Durable wire codec: reconstruction goes back through [create], so a
   shape it rejects reads as Byteio.Reader.Corrupt and Wire.load treats
   the record as torn. *)
let codec =
  let open Byteio.Codec in
  let+ pods = field (fun t -> t.pods) int
  and+ leaves_per_pod = field (fun t -> t.leaves_per_pod) int
  and+ spines_per_pod = field (fun t -> t.spines_per_pod) int
  and+ hosts_per_leaf = field (fun t -> t.hosts_per_leaf) int
  and+ cores_per_plane = field (fun t -> t.cores_per_plane) int
  and+ link_gbps = field (fun t -> t.link_gbps) float in
  with_link_gbps
    (create ~pods ~leaves_per_pod ~spines_per_pod ~hosts_per_leaf
       ~cores_per_plane)
    link_gbps

let pp ppf t =
  Format.fprintf ppf
    "clos(pods=%d, leaves/pod=%d, spines/pod=%d, hosts/leaf=%d, cores/plane=%d; hosts=%d)"
    t.pods t.leaves_per_pod t.spines_per_pod t.hosts_per_leaf t.cores_per_plane
    (num_hosts t)
