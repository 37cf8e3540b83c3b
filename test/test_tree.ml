let topo = Topology.running_example ()
let h = topo.Topology.hosts_per_leaf

(* The Figure 3a group: Ha,Hb (L0); Hk (L5); Hm,Hn (L6); Hp (L7). *)
let fig3_members = [ 0; 1; (5 * h) + 2; (6 * h) + 4; (6 * h) + 5; (7 * h) + 7 ]
let fig3 = Tree.of_members topo fig3_members

let test_structure () =
  Alcotest.(check (list int)) "leaves" [ 0; 5; 6; 7 ] (Tree.leaves fig3);
  Alcotest.(check (list int)) "pods" [ 0; 2; 3 ] (Tree.pods fig3);
  Alcotest.(check int) "members" 6 (Tree.member_count fig3);
  Alcotest.(check int) "leaf count" 4 (Tree.leaf_count fig3);
  Alcotest.(check int) "pod count" 3 (Tree.pod_count fig3)

let test_bitmaps () =
  let bm l = Option.map Bitmap.to_string (Tree.leaf_bitmap fig3 l) in
  Alcotest.(check (option string)) "L0" (Some "11000000") (bm 0);
  Alcotest.(check (option string)) "L5" (Some "00100000") (bm 5);
  Alcotest.(check (option string)) "L6" (Some "00001100") (bm 6);
  Alcotest.(check (option string)) "L7" (Some "00000001") (bm 7);
  Alcotest.(check (option string)) "L1 not in tree" None (bm 1);
  let sbm p = Option.map Bitmap.to_string (Tree.spine_bitmap fig3 p) in
  Alcotest.(check (option string)) "P0: leaf 0 only" (Some "10") (sbm 0);
  Alcotest.(check (option string)) "P2: leaf 5 = port 1" (Some "01") (sbm 2);
  Alcotest.(check (option string)) "P3: both leaves" (Some "11") (sbm 3);
  Alcotest.(check (option string)) "P1 not in tree" None (sbm 1);
  Alcotest.(check string) "core bitmap" "1011" (Bitmap.to_string fig3.Tree.core_bitmap)

let test_mem_host () =
  List.iter
    (fun m -> Alcotest.(check bool) "member" true (Tree.mem_host fig3 m))
    fig3_members;
  Alcotest.(check bool) "non-member" false (Tree.mem_host fig3 2);
  Alcotest.(check bool) "below all members" false (Tree.mem_host fig3 62);
  Alcotest.(check bool) "largest member found" true (Tree.mem_host fig3 ((7 * h) + 7))

let test_dedup_and_sort () =
  let t = Tree.of_members topo [ 5; 3; 5; 3; 1 ] in
  Alcotest.(check int) "deduplicated" 3 (Tree.member_count t);
  Alcotest.(check (array int)) "sorted" [| 1; 3; 5 |] (Tree.member_array t)

let test_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Tree.of_members: empty group")
    (fun () -> ignore (Tree.of_members topo []));
  Alcotest.check_raises "range" (Invalid_argument "Tree.of_members: host out of range")
    (fun () -> ignore (Tree.of_members topo [ 64 ]))

(* Ideal transmissions, hand-computed.

   Single leaf, sender a member: host->leaf (1) + leaf->other members. *)
let test_ideal_single_leaf () =
  let t = Tree.of_members topo [ 0; 1; 2 ] in
  Alcotest.(check int) "sender member" 3 (Tree.ideal_link_transmissions t ~sender:0);
  (* Sender on same leaf but not a member: 1 + 3 deliveries. *)
  Alcotest.(check int) "sender non-member same leaf" 4
    (Tree.ideal_link_transmissions t ~sender:7)

let test_ideal_same_pod () =
  (* Members on L0 and L1 (both pod 0), sender = host 0.
     1 (up) + 1 (local delivery to host 1) + 1 (leaf->spine)
     + 1 (spine->L1) + 1 (L1->host 8) = 5 *)
  let t = Tree.of_members topo [ 0; 1; 8 ] in
  Alcotest.(check int) "same pod" 5 (Tree.ideal_link_transmissions t ~sender:0)

let test_ideal_cross_pod () =
  (* Members: host 0 (L0/pod0), host 40+2 (L5/pod2). Sender host 0.
     1 up + 1 leaf->spine + 1 spine->core + 1 core->spineP2 + 1 spine->L5
     + 1 L5->host = 6 *)
  let t = Tree.of_members topo [ 0; (5 * h) + 2 ] in
  Alcotest.(check int) "cross pod" 6 (Tree.ideal_link_transmissions t ~sender:0)

let test_ideal_fig3 () =
  (* Figure 3a from Ha: 1 (host->L0) + 1 (L0->Hb) + 1 (L0->spine)
     + 1 (spine->core) + 2 (core->P2,P3) + 1 (P2->L5) + 1 (L5->Hk)
     + 2 (P3->L6,L7) + 2 (L6->Hm,Hn) + 1 (L7->Hp) = 13 *)
  Alcotest.(check int) "fig3 from Ha" 13 (Tree.ideal_link_transmissions fig3 ~sender:0);
  (* From Hk (L5, pod 2): 1 + 0 local + 1 up + 1 core + 2 (core->P0,P3)
     + 1 (P0->L0) + 2 (L0->Ha,Hb) + 2 (P3->L6,L7) + 2 + 1 = 13 *)
  Alcotest.(check int) "fig3 from Hk" 13
    (Tree.ideal_link_transmissions fig3 ~sender:((5 * h) + 2))

let fabric = Topology.facebook_fabric ()

let prop_ideal_lower_bound =
  (* Every member other than the sender needs at least its delivery link,
     plus the sender's uplink. *)
  QCheck.Test.make ~name:"ideal transmissions >= members" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 40) (int_range 0 (Topology.num_hosts fabric - 1)))
    (fun members ->
      QCheck.assume (members <> []);
      let t = Tree.of_members fabric members in
      let sender = List.hd members in
      let n = Tree.ideal_link_transmissions t ~sender in
      n >= Tree.member_count t)

let prop_leaf_bitmaps_partition_members =
  QCheck.Test.make ~name:"leaf bitmaps partition the members" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 40) (int_range 0 (Topology.num_hosts fabric - 1)))
    (fun members ->
      QCheck.assume (members <> []);
      let t = Tree.of_members fabric members in
      let total =
        Array.fold_left (fun acc bm -> acc + Bitmap.popcount bm) 0 t.Tree.leaf_bms
      in
      total = Tree.member_count t)

let prop_spine_bitmaps_cover_leaves =
  QCheck.Test.make ~name:"spine bitmaps cover exactly the tree leaves" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 40) (int_range 0 (Topology.num_hosts fabric - 1)))
    (fun members ->
      QCheck.assume (members <> []);
      let t = Tree.of_members fabric members in
      let from_spines =
        List.concat_map
          (fun s ->
            List.map
              (fun port -> (t.Tree.pod_ids.(s) * fabric.Topology.leaves_per_pod) + port)
              (Bitmap.to_list t.Tree.spine_bms.(s)))
          (List.init (Tree.pod_count t) Fun.id)
        |> List.sort compare
      in
      from_spines = Tree.leaves t)

(* The earlier [Tree.of_members]: sort and dedup the host list, then one
   Hashtbl per layer whose bindings are sorted by switch id. Kept as the
   oracle for the bitmap walk. *)
let reference_of_members topo member_list =
  if member_list = [] then invalid_arg "Tree.of_members: empty group";
  let members = Array.of_list (List.sort_uniq compare member_list) in
  Array.iter
    (fun h ->
      if h < 0 || h >= Topology.num_hosts topo then
        invalid_arg "Tree.of_members: host out of range")
    members;
  let group_by tbl width key port items =
    List.iter
      (fun x ->
        let k = key x in
        let bm =
          match Hashtbl.find_opt tbl k with
          | Some bm -> bm
          | None ->
              let bm = Bitmap.create width in
              Hashtbl.add tbl k bm;
              bm
        in
        Bitmap.set bm (port x))
      items;
    Hashtbl.fold (fun k bm acc -> (k, bm) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let leaf_bitmaps =
    group_by (Hashtbl.create 16) (Topology.leaf_downstream_width topo)
      (Topology.leaf_of_host topo) (Topology.host_port_on_leaf topo)
      (Array.to_list members)
  in
  let spine_bitmaps =
    group_by (Hashtbl.create 8) (Topology.spine_downstream_width topo)
      (Topology.pod_of_leaf topo) (Topology.leaf_port_on_spine topo)
      (List.map fst leaf_bitmaps)
  in
  let core_bitmap = Bitmap.create (Topology.core_downstream_width topo) in
  List.iter (fun (p, _) -> Bitmap.set core_bitmap p) spine_bitmaps;
  let ids layer = Array.of_list (List.map fst layer) in
  let bms layer = Array.of_list (List.map snd layer) in
  {
    Tree.topo;
    members;
    nmembers = Array.length members;
    leaf_ids = ids leaf_bitmaps;
    leaf_bms = bms leaf_bitmaps;
    pod_ids = ids spine_bitmaps;
    spine_bms = bms spine_bitmaps;
    core_bitmap;
  }

let outcome f = match f () with t -> Ok t | exception Invalid_argument m -> Error m

(* No two of [bms] are one physical bitmap. *)
let distinct_bitmaps bms =
  let n = Array.length bms in
  let rec from i = i >= n || (distinct_from i (i + 1) && from (i + 1))
  and distinct_from i j = j >= n || (bms.(i) != bms.(j) && distinct_from i (j + 1)) in
  from 0

(* Unsorted host lists with repeats; a few draws carry an out-of-range host
   or are empty, so the raised messages are compared too. *)
let gen_members topo =
  let n = Topology.num_hosts topo in
  QCheck.Gen.(
    let* k = int_range 0 60 in
    let* hosts = list_repeat k (int_range 0 (n - 1)) in
    let* dups = list_repeat (k / 3) (oneofl (if hosts = [] then [ 0 ] else hosts)) in
    let* bad = frequency [ (12, return []); (1, map (fun h -> [ h ]) (oneofl [ -1; n; n + 7 ])) ] in
    shuffle_l (bad @ dups @ hosts))

let prop_of_members_matches_reference (name, topo) =
  QCheck.Test.make ~name:("of_members == Hashtbl+sort reference: " ^ name) ~count:300
    (QCheck.make ~print:QCheck.Print.(list int) (gen_members topo))
    (fun members ->
      match
        (outcome (fun () -> Tree.of_members topo members),
         outcome (fun () -> reference_of_members topo members))
      with
      | Error a, Error b -> a = b
      | Ok t, Ok r ->
          Tree.member_array t = Tree.member_array r
          && Tree.equal t r
          && Bitmap.equal t.Tree.core_bitmap r.Tree.core_bitmap
          (* Encoding's fast path flips a leaf's bitmap in place, so no two
             leaves may share one. *)
          && distinct_bitmaps t.Tree.leaf_bms
      | _ -> false)

(* Hosts where runs start and end: the first and last host of a leaf and
   of a pod, and the first and last host of the fabric. *)
let boundary_hosts topo =
  let hpl = topo.Topology.hosts_per_leaf in
  let per_pod = hpl * topo.Topology.leaves_per_pod in
  let n = Topology.num_hosts topo in
  List.sort_uniq Int.compare
    ([ 0; n - 1 ]
    @ List.concat_map
        (fun l -> [ l * hpl; (l * hpl) + hpl - 1 ])
        (List.init (Topology.num_leaves topo) Fun.id)
    @ List.concat_map
        (fun p -> [ p * per_pod; (p * per_pod) + per_pod - 1 ])
        (List.init topo.Topology.pods Fun.id))

(* Unsorted lists with repeats, drawn from the boundary hosts and at
   random, plus a single host and a full leaf (with a neighbour's host). *)
let gen_boundary_members topo =
  let n = Topology.num_hosts topo and hpl = topo.Topology.hosts_per_leaf in
  let edges = boundary_hosts topo in
  QCheck.Gen.(
    frequency
      [
        ( 4,
          let* k = int_range 1 50 in
          let* hosts = list_repeat k (oneof [ oneofl edges; int_range 0 (n - 1) ]) in
          let* dups = list_repeat (k / 4) (oneofl hosts) in
          shuffle_l (dups @ hosts) );
        (1, map (fun h -> [ h ]) (oneof [ oneofl edges; int_range 0 (n - 1) ]));
        ( 1,
          let* l = int_range 0 (Topology.num_leaves topo - 1) in
          let* extra = int_range 0 (n - 1) in
          shuffle_l (extra :: List.init hpl (fun i -> (l * hpl) + i)) );
      ])

let same_tree a b =
  Tree.member_array a = Tree.member_array b
  && Tree.equal a b
  && Bitmap.equal a.Tree.core_bitmap b.Tree.core_bitmap
  && distinct_bitmaps a.Tree.leaf_bms

let prop_of_sorted_matches (name, topo) =
  QCheck.Test.make ~name:("of_sorted = of_members = hash-table reference: " ^ name)
    ~count:300
    (QCheck.make ~print:QCheck.Print.(list int) (gen_boundary_members topo))
    (fun members ->
      let sorted = Array.of_list (List.sort_uniq Int.compare members) in
      let reference = reference_of_members topo members in
      same_tree (Tree.of_sorted topo sorted) reference
      && same_tree (Tree.of_members topo members) reference)

(* {1 The tree's index against a linear scan}

   After every [add_member]/[remove_member] of a random sequence, the
   leaf and pod slots and bitmaps must be what a linear scan of
   [member_array] gives, the id arrays strictly ascending, and a
   [Tree.copy] must share no array and no bitmap with the tree. *)

let position x l =
  let rec go i = function
    | [] -> -1
    | y :: rest -> if y = x then i else go (i + 1) rest
  in
  go 0 l

let scan_leaves topo members =
  List.sort_uniq Int.compare
    (List.map (Topology.leaf_of_host topo) (Array.to_list members))

let scan_pods topo members =
  List.sort_uniq Int.compare
    (List.map (Topology.pod_of_leaf topo) (scan_leaves topo members))

let scan_leaf_bitmap topo members l =
  match
    List.filter (fun h -> Topology.leaf_of_host topo h = l) (Array.to_list members)
  with
  | [] -> None
  | hosts ->
      Some
        (Bitmap.of_list (Topology.leaf_downstream_width topo)
           (List.map (Topology.host_port_on_leaf topo) hosts))

let scan_spine_bitmap topo members p =
  match
    List.filter (fun l -> Topology.pod_of_leaf topo l = p) (scan_leaves topo members)
  with
  | [] -> None
  | leaves ->
      Some
        (Bitmap.of_list (Topology.spine_downstream_width topo)
           (List.map (Topology.leaf_port_on_spine topo) leaves))

let rec strictly_ascending i (a : int array) =
  i + 1 >= Array.length a || (a.(i) < a.(i + 1) && strictly_ascending (i + 1) a)

(* The index agrees with the scan at the leaves in [probe] (and their
   pods). *)
let index_matches_scan topo t probe =
  let members = Tree.member_array t in
  let leaves = scan_leaves topo members and pods = scan_pods topo members in
  let same_bm = Option.equal Bitmap.equal in
  Array.to_list t.Tree.leaf_ids = leaves
  && Array.to_list t.Tree.pod_ids = pods
  && Array.length t.Tree.leaf_bms = List.length leaves
  && Array.length t.Tree.spine_bms = List.length pods
  && strictly_ascending 0 t.Tree.leaf_ids
  && strictly_ascending 0 t.Tree.pod_ids
  && List.for_all
       (fun l ->
         let p = Topology.pod_of_leaf topo l in
         Tree.leaf_slot t l = position l leaves
         && Tree.pod_slot t p = position p pods
         && same_bm (Tree.leaf_bitmap t l) (scan_leaf_bitmap topo members l)
         && same_bm (Tree.spine_bitmap t p) (scan_spine_bitmap topo members p))
       probe

let copy_shares_nothing (t : Tree.t) =
  let c = Tree.copy t in
  let bitmaps (t : Tree.t) =
    (t.Tree.core_bitmap :: Array.to_list t.Tree.leaf_bms) @ Array.to_list t.Tree.spine_bms
  in
  Tree.equal c t
  && Tree.member_array c = Tree.member_array t
  && c.Tree.members != t.Tree.members
  && c.Tree.leaf_ids != t.Tree.leaf_ids
  && c.Tree.leaf_bms != t.Tree.leaf_bms
  && c.Tree.pod_ids != t.Tree.pod_ids
  && c.Tree.spine_bms != t.Tree.spine_bms
  && List.for_all (fun bm -> not (List.memq bm (bitmaps t))) (bitmaps c)

(* A boundary-straddling member set and a sequence of hosts to toggle:
   mostly hosts on the set's own leaves (the fast path's case), the rest
   boundary or random hosts. *)
let gen_index_case topo =
  let n = Topology.num_hosts topo and hpl = topo.Topology.hosts_per_leaf in
  let edges = boundary_hosts topo in
  QCheck.Gen.(
    let* members = gen_boundary_members topo in
    let* ops =
      list_size (int_range 0 30)
        (frequency
           [
             ( 3,
               let* h = oneofl members in
               let* port = int_range 0 (hpl - 1) in
               return ((h / hpl * hpl) + port) );
             (1, oneofl edges);
             (1, int_range 0 (n - 1));
           ])
    in
    return (members, ops))

let prop_index_matches_scan (name, topo) =
  QCheck.Test.make ~name:("tree index = linear reference: " ^ name) ~count:200
    (QCheck.make
       ~print:QCheck.Print.(pair (list int) (list int))
       (gen_index_case topo))
    (fun (members, ops) ->
      let t = Tree.of_members topo members in
      (* Every leaf a host of the case sits on, and its neighbours. *)
      let probe =
        List.concat_map
          (fun h ->
            let l = Topology.leaf_of_host topo h in
            [ l - 1; l; l + 1 ])
          (members @ ops)
        |> List.filter (fun l -> l >= 0 && l < Topology.num_leaves topo)
        |> List.sort_uniq Int.compare
      in
      let step ok h =
        ok
        &&
        let members = Tree.member_array t in
        let on_leaf =
          Array.fold_left
            (fun acc m ->
              acc + Bool.to_int (Topology.leaf_of_host topo m = Topology.leaf_of_host topo h))
            0 members
        in
        let applied, want =
          if Tree.mem_host t h then (Tree.remove_member t h, on_leaf >= 2)
          else (Tree.add_member t h, on_leaf >= 1)
        in
        applied = want && index_matches_scan topo t probe && copy_shares_nothing t
      in
      index_matches_scan topo t probe
      && copy_shares_nothing t
      && List.fold_left step true ops)

let test_of_sorted_refuses () =
  let n = Topology.num_hosts topo in
  let refuses what msg hosts =
    Alcotest.check_raises what (Invalid_argument msg) (fun () ->
        ignore (Tree.of_sorted topo hosts))
  in
  refuses "empty" "Tree.of_sorted: empty group" [||];
  List.iter
    (fun hosts -> refuses "unsorted" "Tree.of_sorted: hosts not ascending and distinct" hosts)
    [ [| 3; 1 |]; [| 0; 9; 8; 20 |]; [| 5; 6; 7; 0 |] ];
  List.iter
    (fun hosts -> refuses "duplicate" "Tree.of_sorted: hosts not ascending and distinct" hosts)
    [ [| 1; 1 |]; [| 0; 8; 8; 9 |] ];
  List.iter
    (fun hosts -> refuses "out of range" "Tree.of_sorted: host out of range" hosts)
    [ [| -1 |]; [| n |]; [| -3; 0; 5 |]; [| 0; 5; n + 7 |] ]

let tests =
  [
    Alcotest.test_case "fig3 structure" `Quick test_structure;
    Alcotest.test_case "fig3 bitmaps" `Quick test_bitmaps;
    Alcotest.test_case "mem_host" `Quick test_mem_host;
    Alcotest.test_case "dedup and sort" `Quick test_dedup_and_sort;
    Alcotest.test_case "invalid input" `Quick test_invalid;
    Alcotest.test_case "of_sorted refuses bad arrays" `Quick test_of_sorted_refuses;
    Alcotest.test_case "ideal: single leaf" `Quick test_ideal_single_leaf;
    Alcotest.test_case "ideal: same pod" `Quick test_ideal_same_pod;
    Alcotest.test_case "ideal: cross pod" `Quick test_ideal_cross_pod;
    Alcotest.test_case "ideal: figure 3" `Quick test_ideal_fig3;
    QCheck_alcotest.to_alcotest prop_ideal_lower_bound;
    QCheck_alcotest.to_alcotest prop_leaf_bitmaps_partition_members;
    QCheck_alcotest.to_alcotest prop_spine_bitmaps_cover_leaves;
  ]
  @ List.map
      (fun fabric -> QCheck_alcotest.to_alcotest (prop_of_members_matches_reference fabric))
      [
        ( "perfbench clos",
          Topology.create ~pods:8 ~leaves_per_pod:8 ~spines_per_pod:4 ~hosts_per_leaf:32
            ~cores_per_plane:4 );
        ("leaf-spine", Topology.leaf_spine ~leaves:8 ~spines:4 ~hosts_per_leaf:8);
        ("running example", Topology.running_example ());
      ]
  @ List.map
      (fun fabric -> QCheck_alcotest.to_alcotest (prop_index_matches_scan fabric))
      [
        ("running example", Topology.running_example ());
        ( "clos",
          Topology.create ~pods:8 ~leaves_per_pod:8 ~spines_per_pod:4 ~hosts_per_leaf:32
            ~cores_per_plane:4 );
        ("facebook_fabric", fabric);
      ]
  @ List.map
      (fun fabric -> QCheck_alcotest.to_alcotest (prop_of_sorted_matches fabric))
      [
        ("running example", Topology.running_example ());
        ( "clos",
          Topology.create ~pods:8 ~leaves_per_pod:8 ~spines_per_pod:4 ~hosts_per_leaf:32
            ~cores_per_plane:4 );
        ("facebook_fabric", fabric);
      ]
