(* The batch install: Controller.install_all is checked up front, then
   gives exactly the encodings, occupancy and updates of an add_group loop
   in ascending gid order, for every seed, parameter set and batch
   order. *)

let topo =
  Topology.create ~pods:2 ~leaves_per_pod:2 ~spines_per_pod:2 ~hosts_per_leaf:4
    ~cores_per_plane:1

(* {1 Controller.install_all: validation} *)

let params = Params.create ~fmax:50 ()

let test_install_all_rejects_duplicates () =
  let ctrl = Controller.create topo params in
  let m = [ (0, Controller.Both); (1, Controller.Receiver) ] in
  Alcotest.check_raises "duplicate group in batch"
    (Invalid_argument "Controller.install_all: group exists") (fun () ->
      ignore (Controller.install_all ctrl [ (1, m); (1, m) ]));
  Alcotest.(check int) "no partial state" 0 (Controller.group_count ctrl);
  ignore (Controller.add_group ctrl ~group:7 m);
  Alcotest.check_raises "group already installed"
    (Invalid_argument "Controller.install_all: group exists") (fun () ->
      ignore (Controller.install_all ctrl [ (7, m) ]));
  Alcotest.check_raises "duplicate member host"
    (Invalid_argument "Controller.install_all: duplicate member host")
    (fun () ->
      ignore
        (Controller.install_all ctrl
           [ (8, [ (0, Controller.Both); (0, Controller.Receiver) ]) ]));
  Alcotest.(check int) "only the add_group landed" 1 (Controller.group_count ctrl);
  (* The bad group comes last: nothing before it may be installed. *)
  let ctrl = Controller.create topo params in
  Alcotest.check_raises "duplicate group after a good one"
    (Invalid_argument "Controller.install_all: group exists") (fun () ->
      ignore (Controller.install_all ctrl [ (1, m); (2, m); (2, m) ]));
  Alcotest.(check int) "no prefix installed (duplicate group)" 0
    (Controller.group_count ctrl);
  Alcotest.check_raises "duplicate host in the last group"
    (Invalid_argument "Controller.install_all: duplicate member host")
    (fun () ->
      ignore
        (Controller.install_all ctrl
           [ (1, m); (2, m); (3, [ (2, Controller.Both); (2, Controller.Sender) ]) ]));
  Alcotest.(check int) "no prefix installed (duplicate host)" 0
    (Controller.group_count ctrl)

let test_install_all_empty_and_senders_only () =
  let ctrl = Controller.create topo params in
  let u = Controller.install_all ctrl [] in
  Alcotest.(check bool) "empty batch, no updates" true (u = Controller.no_updates);
  let u =
    Controller.install_all ctrl [ (3, [ (0, Controller.Sender) ]) ]
  in
  Alcotest.(check int) "sender-only group installed" 1
    (Controller.group_count ctrl);
  Alcotest.(check bool) "no receivers, no encoding" true
    (Controller.encoding ctrl ~group:3 = None);
  Alcotest.(check (list int)) "no switch updates" [] u.Controller.leaves

(* {1 Batch order matrix: install_all == the gid-ordered add_group loop}

   [install_all] sorts its batch by gid and installs each group as
   [add_group] does, merging the updates in bitmaps, so any order of one
   batch — as given (ascending), reversed, or shuffled — must reproduce
   the loop bit for bit. *)

let matrix_topo =
  Topology.create ~pods:4 ~leaves_per_pod:4 ~spines_per_pod:2 ~hosts_per_leaf:8
    ~cores_per_plane:2

(* Loose: everything fits; exercises the pure p-rule paths. Tight: one
   p-rule per layer and a 3-entry group table; most groups fight over
   s-rule slots, so batch order decides who gets them. *)
let param_sets =
  [
    ("loose", Params.create ~r:6 ~header_budget:None ());
    ( "tight",
      Params.create ~hmax_leaf:1 ~hmax_spine:1 ~fmax:3 ~header_budget:None () );
  ]

let role_of_int = function
  | 0 -> Controller.Sender
  | 1 -> Controller.Receiver
  | _ -> Controller.Both

let make_batch seed =
  let rng = Rng.create seed in
  (* Fixed tenant sizes: the default sampler's heavy tail (up to 5,000 VMs)
     can overflow this small fabric. *)
  let tenant_sizes = Array.init 15 (fun i -> 10 + (5 * i)) in
  let placement =
    Vm_placement.place rng matrix_topo ~strategy:(Vm_placement.Pack_up_to 12)
      ~host_capacity:20 ~tenant_sizes
  in
  let wrng = Rng.create (seed + 1) in
  let groups = Workload.generate wrng placement ~kind:Group_dist.Wve ~total_groups:150 in
  let role_rng = Rng.create (seed + 2) in
  let role () = role_of_int (Rng.int role_rng 3) in
  Array.to_list groups
  |> List.map (fun g ->
         ( g.Workload.group_id,
           Array.to_list g.Workload.member_hosts
           |> List.map (fun h -> (h, role ())) ))

let prule_eq (a : Prule.prule) (b : Prule.prule) =
  Bitmap.equal a.Prule.bitmap b.Prule.bitmap
  && a.Prule.switches = b.Prule.switches

let clustering_eq (a : Clustering.result) (b : Clustering.result) =
  List.length a.Clustering.prules = List.length b.Clustering.prules
  && List.for_all2 prule_eq a.Clustering.prules b.Clustering.prules
  && List.length a.Clustering.srules = List.length b.Clustering.srules
  && List.for_all2
       (fun (i, x) (j, y) -> i = j && Bitmap.equal x y)
       a.Clustering.srules b.Clustering.srules
  &&
  match (a.Clustering.default, b.Clustering.default) with
  | None, None -> true
  | Some (ids1, b1), Some (ids2, b2) -> ids1 = ids2 && Bitmap.equal b1 b2
  | _ -> false

let encoding_eq (a : Encoding.t) (b : Encoding.t) =
  clustering_eq a.Encoding.d_leaf b.Encoding.d_leaf
  && clustering_eq a.Encoding.d_spine b.Encoding.d_spine

(* The reference semantics: add_group per group in ascending group order.
   Returns the per-group updates' union twice: folded by [merge_updates],
   and as the [sort_uniq] of their concatenation. *)
let run_sequential params batch =
  let ctrl = Controller.create matrix_topo params in
  let sorted = List.sort (fun (g1, _) (g2, _) -> compare g1 g2) batch in
  let per_group =
    List.map (fun (group, members) -> Controller.add_group ctrl ~group members) sorted
  in
  let merged = List.fold_left Controller.merge_updates Controller.no_updates per_group in
  let union field = List.sort_uniq compare (List.concat_map field per_group) in
  let unioned =
    {
      Controller.hypervisors = union (fun u -> u.Controller.hypervisors);
      leaves = union (fun u -> u.Controller.leaves);
      pods = union (fun u -> u.Controller.pods);
    }
  in
  (ctrl, merged, unioned)

let check_identical ~label ref_ctrl (merged, unioned) params batch =
  let ctrl = Controller.create matrix_topo params in
  let updates = Controller.install_all ctrl batch in
  Alcotest.(check int)
    (label ^ ": group count")
    (Controller.group_count ref_ctrl)
    (Controller.group_count ctrl);
  Alcotest.(check bool) (label ^ ": merged updates") true (updates = merged);
  Alcotest.(check bool) (label ^ ": union of per-group updates") true (updates = unioned);
  List.iter
    (fun (group, _) ->
      match
        (Controller.encoding ref_ctrl ~group, Controller.encoding ctrl ~group)
      with
      | None, None -> ()
      | Some a, Some b ->
          if not (encoding_eq a b) then
            Alcotest.failf "%s: encoding of group %d diverges" label group
      | _ -> Alcotest.failf "%s: encoding presence of group %d diverges" label group)
    batch;
  let occ s = (Srule_state.leaf_occupancy s, Srule_state.spine_occupancy s) in
  Alcotest.(check bool)
    (label ^ ": s-rule occupancy")
    true
    (occ (Controller.srule_state ref_ctrl) = occ (Controller.srule_state ctrl));
  Alcotest.(check int)
    (label ^ ": total s-rules")
    (Srule_state.total_srules (Controller.srule_state ref_ctrl))
    (Srule_state.total_srules (Controller.srule_state ctrl));
  Alcotest.(check bool)
    (label ^ ": ledger invariants")
    true
    (Srule_state.check (Controller.srule_state ctrl))

let test_batch_order_matrix () =
  List.iter
    (fun seed ->
      let batch = make_batch seed in
      let shuffled = Array.of_list batch in
      Rng.shuffle (Rng.create (seed + 3)) shuffled;
      let orders =
        [
          ("given", batch);
          ("reversed", List.rev batch);
          ("shuffled", Array.to_list shuffled);
        ]
      in
      List.iter
        (fun (pname, params) ->
          let ref_ctrl, merged, unioned = run_sequential params batch in
          List.iter
            (fun (order, batch) ->
              let label = Printf.sprintf "seed %d/%s/%s" seed pname order in
              check_identical ~label ref_ctrl (merged, unioned) params batch)
            orders)
        param_sets)
    [ 11; 23; 37 ]

(* {1 Per-group oracles} *)

(* Distinct hosts in random order, each with a random role. *)
let gen_members =
  let n = Topology.num_hosts matrix_topo in
  QCheck.Gen.(
    let* k = int_range 1 40 in
    let* hosts = shuffle_l (List.init n Fun.id) in
    let* roles = list_repeat k (map role_of_int (int_range 0 2)) in
    return (List.combine (List.filteri (fun i _ -> i < k) hosts) roles))

let print_members =
  QCheck.Print.(list (fun (h, _) -> string_of_int h))

let prop_add_group_hypervisors =
  QCheck.Test.make ~name:"add_group: hypervisors == sort_uniq of member hosts"
    ~count:300 (QCheck.make ~print:print_members gen_members) (fun members ->
      let ctrl = Controller.create matrix_topo (snd (List.hd param_sets)) in
      let u = Controller.add_group ctrl ~group:0 members in
      u.Controller.hypervisors = List.sort_uniq compare (List.map fst members))

(* {1 The controller's host scratch}

   One host bitmap orders a group's receivers for its tree, its
   hypervisors for the update and the view's lists, and checks a new
   group for repeated hosts. A bit left set by a refused call would show
   up in the next group's tree, hypervisors or view, or refuse the next
   group that holds the host. The probe group spans the first to the last
   host, so every bit of the scratch lies in the range it drains. *)

let probe_group =
  [
    (0, Controller.Both);
    (5, Controller.Receiver);
    (6, Controller.Receiver);
    (3, Controller.Sender);
    (9, Controller.Sender);
    (12, Controller.Both);
    (15, Controller.Receiver);
  ]

let sorted_role keep members =
  List.sort Int.compare (List.filter_map (fun (h, r) -> if keep r then Some h else None) members)

let receives = function Controller.Receiver | Controller.Both -> true | Controller.Sender -> false
let sends = function Controller.Sender | Controller.Both -> true | Controller.Receiver -> false

let check_views what ctrl =
  Array.iter
    (fun (v : Installed_config.group_view) ->
      let members = Controller.members ctrl ~group:v.Installed_config.gid in
      Alcotest.(check (list int))
        (Printf.sprintf "%s: group %d receivers" what v.Installed_config.gid)
        (sorted_role receives members)
        (Array.to_list v.Installed_config.receivers);
      Alcotest.(check (list int))
        (Printf.sprintf "%s: group %d senders" what v.Installed_config.gid)
        (sorted_role sends members)
        (Array.to_list v.Installed_config.senders))
    (Installed_config.groups (Controller.installed_config ctrl))

let test_host_scratch_stays_clear () =
  let n = Topology.num_hosts topo in
  let m = [ (1, Controller.Both); (2, Controller.Receiver) ] in
  let refusals =
    [
      ("add_group: repeated host", fun c ->
          Controller.add_group c ~group:50
            [ (3, Controller.Both); (7, Controller.Receiver); (14, Controller.Sender); (3, Controller.Sender) ]);
      ("add_group: host past the last", fun c ->
          Controller.add_group c ~group:50 [ (2, Controller.Both); (11, Controller.Receiver); (n, Controller.Receiver) ]);
      ("add_group: negative host", fun c ->
          Controller.add_group c ~group:50 [ (4, Controller.Receiver); (13, Controller.Both); (-1, Controller.Both) ]);
      ("add_group: existing gid", fun c -> Controller.add_group c ~group:1 [ (8, Controller.Both) ]);
      ("install_all: existing gid", fun c ->
          Controller.install_all c [ (51, [ (6, Controller.Both) ]); (1, [ (8, Controller.Both) ]) ]);
      ("install_all: gid repeated in the batch", fun c ->
          Controller.install_all c [ (52, [ (10, Controller.Both) ]); (52, [ (11, Controller.Receiver) ]) ]);
      ("install_all: bad group last", fun c ->
          Controller.install_all c
            [ (53, [ (7, Controller.Both); (9, Controller.Receiver) ]);
              (54, [ (10, Controller.Receiver) ]);
              (55, [ (12, Controller.Both); (15, Controller.Sender); (12, Controller.Receiver) ]) ]);
      ("install_all: host out of range last", fun c ->
          Controller.install_all c
            [ (56, [ (4, Controller.Both) ]); (57, [ (5, Controller.Receiver); (n + 3, Controller.Both) ]) ]);
    ]
  in
  List.iteri
    (fun i (what, refuse) ->
      (* [twin] sees the same successful calls and none of the refusals. *)
      let ctrl = Controller.create topo params and twin = Controller.create topo params in
      ignore (Controller.add_group ctrl ~group:1 m);
      ignore (Controller.add_group twin ~group:1 m);
      (match refuse ctrl with
      | _ -> Alcotest.failf "%s: accepted" what
      | exception Invalid_argument _ -> ());
      Alcotest.(check int) (what ^ ": nothing installed") 1 (Controller.group_count ctrl);
      let g = 100 + i in
      let u = Controller.add_group ctrl ~group:g probe_group in
      let expect = Controller.add_group twin ~group:g probe_group in
      Alcotest.(check (list int)) (what ^ ": hypervisors") expect.Controller.hypervisors
        u.Controller.hypervisors;
      Alcotest.(check (list int)) (what ^ ": hypervisors = sorted hosts")
        (sorted_role (fun _ -> true) probe_group) u.Controller.hypervisors;
      (match (Controller.encoding ctrl ~group:g, Controller.encoding twin ~group:g) with
      | Some a, Some b ->
          Alcotest.(check bool) (what ^ ": encoding") true (encoding_eq a b);
          Alcotest.(check (array int)) (what ^ ": tree members")
            (Tree.member_array b.Encoding.tree) (Tree.member_array a.Encoding.tree)
      | _ -> Alcotest.failf "%s: probe group has no encoding" what);
      check_views what ctrl;
      (* A group on two of the refused hosts installs and is removed (both
         entry points sort through the scratch); the views stay exact. *)
      ignore (Controller.add_group ctrl ~group:(g + 100) [ (7, Controller.Both); (3, Controller.Receiver) ]);
      let r = Controller.remove_group ctrl ~group:(g + 100) in
      Alcotest.(check (list int)) (what ^ ": remove_group hypervisors") [ 3; 7 ]
        r.Controller.hypervisors;
      check_views (what ^ ", after more calls") ctrl)
    refusals

let tests =
  [
    Alcotest.test_case "install_all: duplicate validation" `Quick
      test_install_all_rejects_duplicates;
    Alcotest.test_case "host scratch stays clear" `Quick test_host_scratch_stays_clear;
    Alcotest.test_case "install_all: empty and sender-only" `Quick
      test_install_all_empty_and_senders_only;
    Alcotest.test_case "install_all: any batch order == gid-ordered loop" `Slow
      test_batch_order_matrix;
    QCheck_alcotest.to_alcotest prop_add_group_hypervisors;
  ]

(* {1 The ledger after a batch} *)

let installed_entries ctrl batch =
  List.fold_left
    (fun n (group, _) ->
      match Controller.encoding ctrl ~group with
      | Some e -> n + Encoding.srule_entries e
      | None -> n)
    0 batch

let test_install_all_ledger_matches_encodings () =
  List.iter
    (fun (pname, params) ->
      let batch = make_batch 5 in
      let ctrl = Controller.create matrix_topo params in
      ignore (Controller.install_all ctrl batch);
      let s = Controller.srule_state ctrl in
      Alcotest.(check int)
        (pname ^ ": ledger = sum of installed encodings")
        (installed_entries ctrl batch) (Srule_state.total_srules s);
      Alcotest.(check bool) (pname ^ ": within fmax") true (Srule_state.check s))
    param_sets

let test_remove_all_empties_ledger () =
  let params = List.assoc "tight" param_sets in
  let batch = make_batch 7 in
  let ctrl = Controller.create matrix_topo params in
  ignore (Controller.install_all ctrl batch);
  Alcotest.(check bool) "tight batch holds s-rules" true
    (Srule_state.total_srules (Controller.srule_state ctrl) > 0);
  List.iter (fun (group, _) -> ignore (Controller.remove_group ctrl ~group)) batch;
  let s = Controller.srule_state ctrl in
  Alcotest.(check int) "no group left" 0 (Controller.group_count ctrl);
  Alcotest.(check int) "every entry released" 0 (Srule_state.total_srules s);
  Alcotest.(check bool) "every leaf counter zero" true
    (Array.for_all (( = ) 0) (Srule_state.leaf_occupancy s))

let tests =
  tests
  @ [
      Alcotest.test_case "install_all: ledger == installed encodings" `Quick
        test_install_all_ledger_matches_encodings;
      Alcotest.test_case "remove every group: ledger empties" `Quick
        test_remove_all_empties_ledger;
    ]
