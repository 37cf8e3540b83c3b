(* Parallel building blocks and the batch install: Domain_pool, the Domains
   helper, Srule_state transactions, and Controller.install_all — checked
   up front, then exactly the encodings, occupancy and updates of an
   add_group loop in ascending gid order, for every seed and parameter
   set. *)

(* {1 Domain_pool} *)

let test_pool_map_basic () =
  Domain_pool.with_pool 3 (fun pool ->
      let input = Array.init 100 Fun.id in
      let out = Domain_pool.map pool (fun x -> x * x) input in
      Alcotest.(check (array int)) "squares" (Array.map (fun x -> x * x) input) out)

let test_pool_map_empty () =
  Domain_pool.with_pool 2 (fun pool ->
      Alcotest.(check (array int)) "empty" [||] (Domain_pool.map pool succ [||]))

let test_pool_chunk_larger_than_input () =
  Domain_pool.with_pool 2 (fun pool ->
      let out = Domain_pool.map ~chunk:1000 pool succ [| 1; 2; 3 |] in
      Alcotest.(check (array int)) "one chunk" [| 2; 3; 4 |] out)

let test_pool_exception_propagates () =
  Domain_pool.with_pool 2 (fun pool ->
      Alcotest.check_raises "worker exception reaches caller"
        (Invalid_argument "boom") (fun () ->
          ignore
            (Domain_pool.map ~chunk:1 pool
               (fun x -> if x = 5 then invalid_arg "boom" else x)
               (Array.init 16 Fun.id)));
      (* The pool survives a failed map. *)
      let out = Domain_pool.map pool succ [| 1; 2 |] in
      Alcotest.(check (array int)) "pool reusable after failure" [| 2; 3 |] out)

let test_pool_create_invalid () =
  Alcotest.check_raises "zero domains"
    (Invalid_argument "Domain_pool.create: need at least one domain")
    (fun () -> ignore (Domain_pool.create 0))

let test_pool_submit_after_shutdown () =
  let pool = Domain_pool.create 1 in
  Domain_pool.shutdown pool;
  Domain_pool.shutdown pool;
  (* idempotent *)
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Domain_pool: pool is shut down") (fun () ->
      Domain_pool.submit pool ignore)

(* {1 Domains helper} *)

let test_domains_clamp () =
  Alcotest.(check int) "clamp 0" 1 (Domains.clamp 0);
  Alcotest.(check int) "clamp -5" 1 (Domains.clamp (-5));
  Alcotest.(check int) "clamp 1" 1 (Domains.clamp 1);
  Alcotest.(check bool) "recommended positive" true (Domains.recommended () > 0)

let test_domains_from_env () =
  Unix.putenv "ELMO_DOMAINS" "2";
  Alcotest.(check int) "parses env" 2 (Domains.from_env 1);
  Unix.putenv "ELMO_DOMAINS" "bogus";
  Alcotest.(check int) "malformed falls back" 3 (Domains.from_env 3);
  Unix.putenv "ELMO_DOMAINS" "-1";
  Alcotest.(check int) "non-positive falls back" 2 (Domains.from_env 2);
  Unix.putenv "ELMO_DOMAINS" "";
  Alcotest.(check int) "empty falls back" 4 (Domains.from_env 4)

(* {1 Srule_state transactions} *)

let topo =
  Topology.create ~pods:2 ~leaves_per_pod:2 ~spines_per_pod:2 ~hosts_per_leaf:4
    ~cores_per_plane:1

let test_txn_snapshot_isolation () =
  let s = Srule_state.create topo ~fmax:2 in
  let txn = Srule_state.txn (Srule_state.snapshot s) in
  Alcotest.(check bool) "granted" true (Srule_state.txn_reserve_leaf txn 0);
  Alcotest.(check bool) "live ledger untouched" true
    ((Srule_state.leaf_occupancy s).(0) = 0);
  Alcotest.(check int) "one reservation pending" 1 (Srule_state.txn_reserved txn);
  (match Srule_state.commit s txn with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "commit on unchanged ledger must succeed");
  Alcotest.(check int) "applied on commit" 1 (Srule_state.leaf_occupancy s).(0);
  Alcotest.(check bool) "invariants" true (Srule_state.check s)

let test_txn_conflict () =
  let s = Srule_state.create topo ~fmax:1 in
  let snap = Srule_state.snapshot s in
  let t1 = Srule_state.txn snap and t2 = Srule_state.txn snap in
  Alcotest.(check bool) "t1 granted" true (Srule_state.txn_reserve_leaf t1 0);
  Alcotest.(check bool) "t2 granted (same snapshot)" true
    (Srule_state.txn_reserve_leaf t2 0);
  (match Srule_state.commit s t1 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "first commit must succeed");
  (match Srule_state.commit s t2 with
  | Ok () -> Alcotest.fail "second commit must detect the lost slot"
  | Error site ->
      Alcotest.(check bool) "conflict on leaf 0" true
        (site = Srule_state.Leaf 0));
  Alcotest.(check int) "loser left no trace" 1 (Srule_state.leaf_occupancy s).(0);
  Alcotest.(check bool) "invariants" true (Srule_state.check s)

let test_txn_denial_must_match_too () =
  (* A txn that was *denied* capacity also conflicts if the live ledger
     would have granted it: the sequential encode would have branched
     differently. *)
  let s = Srule_state.create topo ~fmax:1 in
  Srule_state.reserve_leaf s 0;
  let snap = Srule_state.snapshot s in
  let txn = Srule_state.txn snap in
  Alcotest.(check bool) "denied on full snapshot" false
    (Srule_state.txn_reserve_leaf txn 0);
  Srule_state.release_leaf s 0;
  (match Srule_state.commit s txn with
  | Ok () -> Alcotest.fail "commit must notice the freed slot"
  | Error site ->
      Alcotest.(check bool) "divergence on leaf 0" true
        (site = Srule_state.Leaf 0))

let test_txn_double_commit () =
  let s = Srule_state.create topo ~fmax:1 in
  let txn = Srule_state.txn (Srule_state.snapshot s) in
  ignore (Srule_state.txn_reserve_pod txn 0);
  (match Srule_state.commit s txn with Ok () -> () | Error _ -> Alcotest.fail "ok");
  Alcotest.check_raises "double commit"
    (Invalid_argument "Srule_state.commit: transaction already committed")
    (fun () -> ignore (Srule_state.commit s txn))

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

let encoding_bytes enc =
  let w = Byteio.Writer.create () in
  Encoding.write w enc;
  Byteio.Writer.to_bytes w

(* Sequences of receiver sets under a 2-entry group table and one p-rule
   per layer, with some leaves ineligible for s-rules: the ledger fills
   within a few trees, so grants and denials both occur. *)
let prop_live_encode_matches_txn =
  let params = Params.create ~hmax_leaf:1 ~hmax_spine:1 ~fmax:2 ~header_budget:None () in
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 1 25) (map (List.map fst) gen_members))
        (list_size (int_range 0 4) (int_range 0 (Topology.num_leaves matrix_topo - 1))))
  in
  let print = QCheck.Print.(pair (list (list int)) (list int)) in
  QCheck.Test.make ~name:"encode on the live ledger == encode_txn on a snapshot + commit"
    ~count:200 (QCheck.make ~print gen) (fun (trees, denied) ->
      let srule_ok_leaf l = not (List.mem l denied) in
      let live = Srule_state.create matrix_topo ~fmax:2 in
      let ledger = Srule_state.create matrix_topo ~fmax:2 in
      let occ s = (Srule_state.leaf_occupancy s, Srule_state.spine_occupancy s) in
      List.for_all
        (fun hosts ->
          let tree = Tree.of_members matrix_topo hosts in
          let a = Encoding.encode ~srule_ok_leaf params live tree in
          let txn = Srule_state.txn (Srule_state.snapshot ledger) in
          let b = Encoding.encode_txn ~srule_ok_leaf params txn tree in
          Srule_state.commit ledger txn = Ok ()
          && Bytes.equal (encoding_bytes a) (encoding_bytes b)
          && occ live = occ ledger)
        trees)

let tests =
  [
    Alcotest.test_case "pool: map" `Quick test_pool_map_basic;
    Alcotest.test_case "pool: empty input" `Quick test_pool_map_empty;
    Alcotest.test_case "pool: chunk > n" `Quick test_pool_chunk_larger_than_input;
    Alcotest.test_case "pool: exception propagation" `Quick
      test_pool_exception_propagates;
    Alcotest.test_case "pool: create 0 rejected" `Quick test_pool_create_invalid;
    Alcotest.test_case "pool: submit after shutdown" `Quick
      test_pool_submit_after_shutdown;
    Alcotest.test_case "domains: clamp" `Quick test_domains_clamp;
    Alcotest.test_case "domains: from_env" `Quick test_domains_from_env;
    Alcotest.test_case "txn: snapshot isolation" `Quick test_txn_snapshot_isolation;
    Alcotest.test_case "txn: commit conflict" `Quick test_txn_conflict;
    Alcotest.test_case "txn: denial must match too" `Quick
      test_txn_denial_must_match_too;
    Alcotest.test_case "txn: double commit" `Quick test_txn_double_commit;
    Alcotest.test_case "install_all: duplicate validation" `Quick
      test_install_all_rejects_duplicates;
    Alcotest.test_case "install_all: empty and sender-only" `Quick
      test_install_all_empty_and_senders_only;
    Alcotest.test_case "install_all: any batch order == gid-ordered loop" `Slow
      test_batch_order_matrix;
    QCheck_alcotest.to_alcotest prop_add_group_hypervisors;
    QCheck_alcotest.to_alcotest prop_live_encode_matches_txn;
  ]
