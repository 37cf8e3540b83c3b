type t = {
  topo : Topology.t;
  mutable members : int array;
      (* capacity buffer: indices [0, nmembers) hold the sorted member
         hosts; the tail is scratch so the delta fast path never
         reallocates on the common case *)
  mutable nmembers : int;
  leaf_ids : int array;
  leaf_bms : Bitmap.t array;
  pod_ids : int array;
  spine_bms : Bitmap.t array;
  core_bitmap : Bitmap.t;
}

(* The end of the run of [a.(i..n-1)] below [limit]. *)
(* elmo-lint: zero-alloc *)
let rec run_end (a : int array) n limit i =
  if i < n && Array.unsafe_get a i < limit then run_end a n limit (i + 1) else i

(* How many distinct values [f] takes along the ascending [a.(0..n-1)],
   where [f] is monotone. *)
let runs (f : int -> int) (a : int array) n =
  let count = ref 0 in
  for i = 0 to n - 1 do
    if i = 0 || f a.(i) <> f a.(i - 1) then incr count
  done;
  !count

(* Leaf and pod ids are monotone in host id, so an ascending host array
   meets each leaf in one run and each pod in one run of leaves: one
   division and one bitmap per leaf, and both layers come out ascending
   without a sort, each in arrays sized by one counting pass. *)
let of_sorted topo hosts =
  let n = Array.length hosts in
  if n = 0 then invalid_arg "Tree.of_sorted: empty group";
  for i = 1 to n - 1 do
    if hosts.(i) <= hosts.(i - 1) then
      invalid_arg "Tree.of_sorted: hosts not ascending and distinct"
  done;
  if hosts.(0) < 0 || hosts.(n - 1) >= Topology.num_hosts topo then
    invalid_arg "Tree.of_sorted: host out of range";
  let hpl = topo.Topology.hosts_per_leaf in
  let lpp = topo.Topology.leaves_per_pod in
  let nleaves = runs (fun h -> h / hpl) hosts n in
  let leaf_ids = Array.make nleaves 0 in
  let i = ref 0 in
  let leaf_bms =
    Array.init nleaves (fun s ->
        let l = hosts.(!i) / hpl in
        let base = l * hpl in
        let j = run_end hosts n (base + hpl) (!i + 1) in
        let bm = Bitmap.of_slice hpl hosts ~pos:!i ~len:(j - !i) ~base in
        leaf_ids.(s) <- l;
        i := j;
        bm)
  in
  let npods = runs (fun l -> l / lpp) leaf_ids nleaves in
  let pod_ids = Array.make npods 0 in
  let spine_bms = Array.init npods (fun _ -> Bitmap.create lpp) in
  let core_bitmap = Bitmap.create (Topology.core_downstream_width topo) in
  let ps = ref (-1) in
  Array.iter
    (fun l ->
      let p = l / lpp in
      if !ps < 0 || pod_ids.(!ps) <> p then begin
        incr ps;
        pod_ids.(!ps) <- p;
        Bitmap.set core_bitmap p
      end;
      Bitmap.set spine_bms.(!ps) (l - (p * lpp)))
    leaf_ids;
  {
    topo;
    members = hosts;
    nmembers = n;
    leaf_ids;
    leaf_bms;
    pod_ids;
    spine_bms;
    core_bitmap;
  }

(* A counting sort over the list's span: one bit per host between the
   least and the greatest member orders and dedups them, so a group's
   scratch is sized by how far its hosts spread, never by the fabric. *)
let of_members topo member_list =
  if member_list = [] then invalid_arg "Tree.of_members: empty group";
  let lo = List.fold_left Int.min max_int member_list in
  let hi = List.fold_left Int.max min_int member_list in
  if lo < 0 || hi >= Topology.num_hosts topo then
    invalid_arg "Tree.of_members: host out of range";
  let seen = Bitmap.create (hi - lo + 1) in
  List.iter (fun h -> Bitmap.set seen (h - lo)) member_list;
  let hosts = Array.make (Bitmap.popcount seen) 0 in
  ignore (Bitmap.drain_into seen ~lo:0 ~hi:(hi - lo) hosts : int);
  for i = 0 to Array.length hosts - 1 do
    hosts.(i) <- hosts.(i) + lo
  done;
  of_sorted topo hosts

let leaves t = Array.to_list t.leaf_ids
let pods t = Array.to_list t.pod_ids

(* elmo-lint: zero-alloc *)
let member_count t = t.nmembers

let member_array t = Array.sub t.members 0 t.nmembers
let member_list t = Array.to_list (member_array t)

let iter_members f t =
  for i = 0 to t.nmembers - 1 do
    f (Array.unsafe_get t.members i)
  done

let leaf_count t = Array.length t.leaf_ids
let pod_count t = Array.length t.pod_ids

(* elmo-lint: zero-alloc *)
let mem_host t h = Int_array.search t.members h ~lo:0 ~hi:(t.nmembers - 1) >= 0

(* elmo-lint: zero-alloc *)
let leaf_slot t l = Int_array.search t.leaf_ids l ~lo:0 ~hi:(Array.length t.leaf_ids - 1)

(* elmo-lint: zero-alloc *)
let pod_slot t p = Int_array.search t.pod_ids p ~lo:0 ~hi:(Array.length t.pod_ids - 1)

let leaf_bitmap t l =
  let s = leaf_slot t l in
  if s < 0 then None else Some t.leaf_bms.(s)

let spine_bitmap t p =
  let s = pod_slot t p in
  if s < 0 then None else Some t.spine_bms.(s)

let spans_other_pod t p = pod_count t > Bool.to_int (pod_slot t p >= 0)

let spans_other_leaf_in_pod t l =
  let topo = t.topo in
  let s = pod_slot t (Topology.pod_of_leaf topo l) in
  s >= 0
  &&
  let spine = t.spine_bms.(s) in
  Bitmap.popcount spine
  > Bool.to_int (Bitmap.get spine (Topology.leaf_port_on_spine topo l))

let equal_layer ids bms ids' bms' =
  Array.length ids = Array.length ids'
  && Array.for_all2 Int.equal ids ids'
  && Array.for_all2 Bitmap.equal bms bms'

let equal a b =
  equal_layer a.leaf_ids a.leaf_bms b.leaf_ids b.leaf_bms
  && equal_layer a.pod_ids a.spine_bms b.pod_ids b.spine_bms

let copy t =
  {
    t with
    members = member_array t;  (* compacts the capacity tail *)
    leaf_ids = Array.copy t.leaf_ids;
    leaf_bms = Array.map Bitmap.copy t.leaf_bms;
    pod_ids = Array.copy t.pod_ids;
    spine_bms = Array.map Bitmap.copy t.spine_bms;
    core_bitmap = Bitmap.copy t.core_bitmap;
  }

(* Incremental membership (the encoder's delta fast path). The leaf bitmap
   and the members buffer are mutated IN PLACE: no rule shares the tree's
   bitmaps (the encoder flips the same port in the leaf's rule itself),
   and the capacity-backed members buffer
   makes the steady-state join/leave allocation-free (checked by the
   zero-alloc lint rule and the Gc.minor_words harness). Both return
   [false] when the change is structural (a new leaf appears / a leaf
   empties) and leave the tree untouched; the caller must re-encode. *)

(* elmo-lint: zero-alloc *)
let rec insert_pos (a : int array) n h i =
  if i >= n || Array.unsafe_get a i >= h then i else insert_pos a n h (i + 1)

let grow_members t =
  (* elmo-lint: allow zero-alloc — cold capacity doubling, amortized O(1) *)
  let bigger = Array.make (max 8 (2 * Array.length t.members)) 0 in
  Array.blit t.members 0 bigger 0 t.nmembers;
  t.members <- bigger

(* elmo-lint: zero-alloc *)
let add_member t h =
  if h < 0 || h >= Topology.num_hosts t.topo then
    (* elmo-lint: allow zero-alloc — error path: raising Invalid_argument allocates *)
    invalid_arg "Tree.add_member: host out of range";
  if mem_host t h then
    (* elmo-lint: allow zero-alloc — error path: raising Invalid_argument allocates *)
    invalid_arg "Tree.add_member: already a member";
  let s = leaf_slot t (Topology.leaf_of_host t.topo h) in
  if s < 0 then false
  else begin
    Bitmap.set (Array.unsafe_get t.leaf_bms s) (Topology.host_port_on_leaf t.topo h);
    if t.nmembers >= Array.length t.members then grow_members t;
    let pos = insert_pos t.members t.nmembers h 0 in
    Array.blit t.members pos t.members (pos + 1) (t.nmembers - pos);
    Array.unsafe_set t.members pos h;
    t.nmembers <- t.nmembers + 1;
    true
  end

(* elmo-lint: zero-alloc *)
let remove_member t h =
  let pos = Int_array.search t.members h ~lo:0 ~hi:(t.nmembers - 1) in
  if pos < 0 then
    (* elmo-lint: allow zero-alloc — error path: raising Invalid_argument allocates *)
    invalid_arg "Tree.remove_member: not a member";
  let s = leaf_slot t (Topology.leaf_of_host t.topo h) in
  if s < 0 || Bitmap.popcount (Array.unsafe_get t.leaf_bms s) <= 1 then false
  else begin
    Bitmap.clear (Array.unsafe_get t.leaf_bms s) (Topology.host_port_on_leaf t.topo h);
    Array.blit t.members (pos + 1) t.members pos (t.nmembers - pos - 1);
    t.nmembers <- t.nmembers - 1;
    true
  end

(* Every tree leaf but the sender's costs the link down to it and one
   per member behind it; the sender's leaf delivers to its members but
   the sender. Reaching another leaf costs the climb to the pod spine,
   and reaching another pod the climb to a core and one link down to
   each other pod's spine. *)
let ideal_link_transmissions t ~sender =
  let topo = t.topo in
  let sl = Topology.leaf_of_host topo sender in
  (* Hypervisor to leaf. *)
  let count = ref 1 in
  Array.iteri
    (fun s l ->
      let members = Bitmap.popcount t.leaf_bms.(s) in
      if l = sl then count := !count + members - Bool.to_int (mem_host t sender)
      else count := !count + 1 + members)
    t.leaf_ids;
  let other_pods =
    pod_count t - Bool.to_int (pod_slot t (Topology.pod_of_leaf topo sl) >= 0)
  in
  if leaf_count t > Bool.to_int (leaf_slot t sl >= 0) then incr count;
  if other_pods > 0 then count := !count + 1 + other_pods;
  !count
