type t = {
  topo : Topology.t;
  mutable members : int array;
      (* capacity buffer: indices [0, nmembers) hold the sorted member
         hosts; the tail is scratch so the delta fast path never
         reallocates on the common case *)
  mutable nmembers : int;
  leaf_bitmaps : (int * Bitmap.t) list;
  spine_bitmaps : (int * Bitmap.t) list;
  core_bitmap : Bitmap.t;
}

(* The end of the run of [a.(i..n-1)] below [limit]. *)
(* elmo-lint: zero-alloc *)
let rec run_end (a : int array) n limit i =
  if i < n && Array.unsafe_get a i < limit then run_end a n limit (i + 1) else i

(* Leaf and pod ids are monotone in host id, so an ascending host array
   meets each leaf in one run and each pod in one run of leaves: one
   division and one bitmap per leaf, and every bitmap list comes out
   ascending without a sort. *)
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
  let core_bitmap = Bitmap.create (Topology.core_downstream_width topo) in
  let leaves = ref [] and spines = ref [] and i = ref 0 in
  while !i < n do
    let l = hosts.(!i) / hpl in
    let base = l * hpl in
    let j = run_end hosts n (base + hpl) (!i + 1) in
    leaves := (l, Bitmap.of_slice hpl hosts ~pos:!i ~len:(j - !i) ~base) :: !leaves;
    let p = l / lpp in
    let spine_bm =
      match !spines with
      | (p', bm) :: _ when p' = p -> bm
      | _ ->
          let bm = Bitmap.create lpp in
          spines := (p, bm) :: !spines;
          Bitmap.set core_bitmap p;
          bm
    in
    Bitmap.set spine_bm (l - (p * lpp));
    i := j
  done;
  {
    topo;
    members = hosts;
    nmembers = n;
    leaf_bitmaps = List.rev !leaves;
    spine_bitmaps = List.rev !spines;
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

let leaves t = List.map fst t.leaf_bitmaps
let pods t = List.map fst t.spine_bitmaps

(* elmo-lint: zero-alloc *)
let member_count t = t.nmembers

let member_array t = Array.sub t.members 0 t.nmembers
let member_list t = Array.to_list (member_array t)

let iter_members f t =
  for i = 0 to t.nmembers - 1 do
    f (Array.unsafe_get t.members i)
  done

let leaf_count t = List.length t.leaf_bitmaps
let pod_count t = List.length t.spine_bitmaps

(* elmo-lint: zero-alloc *)
let mem_host t h = Int_array.search t.members h ~lo:0 ~hi:(t.nmembers - 1) >= 0

let leaf_bitmap t l = Int_list.assoc_opt l t.leaf_bitmaps
let spine_bitmap t p = Int_list.assoc_opt p t.spine_bitmaps

let equal_bitmaps a b =
  List.equal (fun ((i : int), x) (j, y) -> i = j && Bitmap.equal x y) a b

let copy t =
  {
    t with
    members = member_array t;  (* compacts the capacity tail *)
    leaf_bitmaps = List.map (fun (l, bm) -> (l, Bitmap.copy bm)) t.leaf_bitmaps;
    spine_bitmaps = List.map (fun (p, bm) -> (p, Bitmap.copy bm)) t.spine_bitmaps;
    core_bitmap = Bitmap.copy t.core_bitmap;
  }

(* Incremental membership (the encoder's delta fast path). The leaf bitmap
   and the members buffer are mutated IN PLACE — deliberately: singleton
   p-rules and s-rules alias the tree's bitmaps, so an in-place flip
   updates those rules for free, and the capacity-backed members buffer
   makes the steady-state join/leave allocation-free (checked by the
   zero-alloc lint rule and the Gc.minor_words harness). Both return
   [false] when the change is structural (a new leaf appears / a leaf
   empties) and leave the tree untouched; the caller must re-encode. *)

(* Allocation-free assoc lookup for the leaf bitmap: [no_bitmap] is the
   "leaf not participating" sentinel (an option result would allocate). *)
let no_bitmap = Bitmap.create 0

(* elmo-lint: zero-alloc *)
let rec find_leaf_bm bms (l : int) =
  match bms with
  | [] -> no_bitmap
  | (l', bm) :: rest -> if l' = l then bm else find_leaf_bm rest l

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
  let bm = find_leaf_bm t.leaf_bitmaps (Topology.leaf_of_host t.topo h) in
  if bm == no_bitmap then false
  else begin
    Bitmap.set bm (Topology.host_port_on_leaf t.topo h);
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
  let bm = find_leaf_bm t.leaf_bitmaps (Topology.leaf_of_host t.topo h) in
  if bm == no_bitmap || Bitmap.popcount bm <= 1 then false
  else begin
    Bitmap.clear bm (Topology.host_port_on_leaf t.topo h);
    Array.blit t.members (pos + 1) t.members pos (t.nmembers - pos - 1);
    t.nmembers <- t.nmembers - 1;
    true
  end

let ideal_link_transmissions t ~sender =
  let topo = t.topo in
  let sl = Topology.leaf_of_host topo sender in
  let sp = Topology.pod_of_leaf topo sl in
  (* Hypervisor to leaf. *)
  let count = ref 1 in
  let deliveries_at l =
    match leaf_bitmap t l with Some bm -> Bitmap.popcount bm | None -> 0
  in
  (* Sender leaf delivers to local members, minus the sender itself. *)
  let local = deliveries_at sl in
  let local = if mem_host t sender then local - 1 else local in
  count := !count + local;
  let other_leaves_in_pod =
    List.filter (fun (l, _) -> l <> sl && Topology.pod_of_leaf topo l = sp)
      t.leaf_bitmaps
  in
  let other_pods = List.filter (fun (p, _) -> p <> sp) t.spine_bitmaps in
  let beyond_leaf =
    not (List.is_empty other_leaves_in_pod && List.is_empty other_pods)
  in
  if beyond_leaf then begin
    (* Leaf up to one pod spine. *)
    incr count;
    List.iter
      (fun (l, _) -> count := !count + 1 + deliveries_at l)
      other_leaves_in_pod;
    if not (List.is_empty other_pods) then begin
      (* Spine up to one core. *)
      incr count;
      List.iter
        (fun (p, spine_bm) ->
          (* Core down to pod spine. *)
          incr count;
          Bitmap.iter
            (fun port ->
              let l = (p * topo.Topology.leaves_per_pod) + port in
              count := !count + 1 + deliveries_at l)
            spine_bm)
        other_pods
    end
  end;
  !count
