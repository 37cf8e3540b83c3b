(* Randomized oracle for the incremental encoding engine: drive long mixed
   join/leave streams through an incremental controller and check, after
   EVERY event, that the live (fast-path-mutated) state and a from-scratch
   controller over the same membership compile to the same symbolic delivery
   predicate — and that neither loses a receiver (compile == intent) — and
   that every sender's header shares one down that matches the live rules
   ([Test_verify.check_shared_down]). The
   heavier structural checks (budgets, ledger occupancy, exact bitmaps) and
   packet-level delivery checks still run periodically. *)

let topo = Topology.running_example ()
let h = topo.Topology.hosts_per_leaf
let group = 7

let make params =
  let fabric = Fabric.create topo in
  let hooks = Fabric.controller_hooks fabric in
  (Controller.create ~fabric_hooks:hooks topo params, fabric)

let receivers members =
  List.filter_map
    (fun (host, r) ->
      match r with
      | Controller.Receiver | Controller.Both -> Some host
      | Controller.Sender -> None)
    members

let senders members =
  List.filter_map
    (fun (host, r) ->
      match r with
      | Controller.Sender | Controller.Both -> Some host
      | Controller.Receiver -> None)
    members

let check_bool msg b = Alcotest.(check bool) msg true b

(* Every switch referenced by a clustering layer, each exactly once. *)
let layer_assignments (res : Clustering.result) =
  List.concat_map (fun r -> r.Prule.switches) res.Clustering.prules
  @ List.map fst res.Clustering.srules
  @ (match res.Clustering.default with Some (ids, _) -> ids | None -> [])

let check_layer msg params (res : Clustering.result) exact_bitmaps =
  let ids = List.map fst exact_bitmaps in
  let assigned = layer_assignments res in
  Alcotest.(check (list int))
    (msg ^ ": each switch in exactly one rule")
    (List.sort compare ids)
    (List.sort compare assigned);
  List.iter
    (fun (id, exact) ->
      match Clustering.assigned_bitmap res id with
      | None -> Alcotest.fail (msg ^ ": switch unassigned")
      | Some bm ->
          check_bool (msg ^ ": assigned covers exact") (Bitmap.subset exact bm))
    exact_bitmaps;
  List.iter
    (fun (r : Prule.prule) ->
      check_bool
        (msg ^ ": kmax respected")
        (List.length r.Prule.switches <= params.Params.kmax);
      let exacts =
        List.map (fun id -> List.assoc id exact_bitmaps) r.Prule.switches
      in
      check_bool
        (msg ^ ": redundancy within budget")
        (Clustering.rule_within_budget ~r:params.Params.r
           ~semantics:params.Params.r_semantics ~exacts r.Prule.bitmap))
    res.Clustering.prules;
  List.iter
    (fun (id, bm) ->
      check_bool
        (msg ^ ": s-rule bitmap exact")
        (Bitmap.equal bm (List.assoc id exact_bitmaps)))
    res.Clustering.srules

(* The live encoding must agree with a from-scratch tree of the same
   receiver set and respect every budget the encoder enforces. *)
(* A tree layer as (switch id, exact bitmap) pairs, ascending. *)
let pairs ids bms = List.combine (Array.to_list ids) (Array.to_list bms)

let check_equivalent msg params ctrl ~group =
  let rcvs = receivers (Controller.members ctrl ~group) in
  match Controller.encoding ctrl ~group with
  | None -> check_bool (msg ^ ": encoding absent iff no receivers") (rcvs = [])
  | Some enc ->
      let oracle = Tree.of_members topo rcvs in
      let tree = enc.Encoding.tree in
      Alcotest.(check (list int))
        (msg ^ ": members match oracle")
        (Tree.member_list oracle) (Tree.member_list tree);
      Alcotest.(check (list int))
        (msg ^ ": same leaves")
        (Tree.leaves oracle) (Tree.leaves tree);
      List.iter
        (fun (l, exact) ->
          match Tree.leaf_bitmap tree l with
          | None -> Alcotest.fail (msg ^ ": leaf missing")
          | Some bm -> check_bool (msg ^ ": exact leaf bitmap") (Bitmap.equal exact bm))
        (pairs oracle.Tree.leaf_ids oracle.Tree.leaf_bms);
      List.iter
        (fun (p, exact) ->
          match Tree.spine_bitmap tree p with
          | None -> Alcotest.fail (msg ^ ": pod missing")
          | Some bm ->
              check_bool (msg ^ ": exact spine bitmap") (Bitmap.equal exact bm))
        (pairs oracle.Tree.pod_ids oracle.Tree.spine_bms);
      check_bool (msg ^ ": core bitmap")
        (Bitmap.equal oracle.Tree.core_bitmap tree.Tree.core_bitmap);
      check_layer (msg ^ " [leaf]") params enc.Encoding.d_leaf
        (pairs oracle.Tree.leaf_ids oracle.Tree.leaf_bms);
      check_layer (msg ^ " [spine]") params enc.Encoding.d_spine
        (pairs oracle.Tree.pod_ids oracle.Tree.spine_bms);
      (if params.Params.header_budget = None then begin
         check_bool
           (msg ^ ": hmax_leaf")
           (List.length enc.Encoding.d_leaf.Clustering.prules
           <= params.Params.hmax_leaf);
         check_bool
           (msg ^ ": hmax_spine")
           (List.length enc.Encoding.d_spine.Clustering.prules
           <= params.Params.hmax_spine)
       end);
      (* Fmax: per-switch group-table occupancy, and the global ledger must
         match what the encoding claims to hold. *)
      let st = Controller.srule_state ctrl in
      for l = 0 to Topology.num_leaves topo - 1 do
        check_bool (msg ^ ": leaf fmax") (Srule_state.leaf_used st l <= params.Params.fmax)
      done;
      for p = 0 to topo.Topology.pods - 1 do
        check_bool (msg ^ ": pod fmax") (Srule_state.pod_used st p <= params.Params.fmax)
      done;
      Alcotest.(check int)
        (msg ^ ": srule ledger matches encoding")
        (Encoding.srule_entries enc)
        (Srule_state.total_srules st)

let check_delivery msg ctrl fabric ~group =
  match Controller.encoding ctrl ~group with
  | None -> ()
  | Some enc ->
      List.iter
        (fun sender ->
          match Controller.header ctrl ~group ~sender with
          | None -> Alcotest.fail (msg ^ ": sender has no header")
          | Some header ->
              let report =
                Fabric.inject fabric ~sender ~group ~header ~payload:64
              in
              check_bool
                (msg ^ ": exact delivery")
                (Fabric.deliveries_correct report ~tree:enc.Encoding.tree ~sender
                && report.Fabric.lost = 0))
        (senders (Controller.members ctrl ~group))

let random_role rng =
  match Rng.int rng 3 with
  | 0 -> Controller.Sender
  | 1 -> Controller.Receiver
  | _ -> Controller.Both

(* The exhaustive symbolic oracle, incrementalized: the cached checker
   proves [compile = intent] for every group after every event, but only
   re-checks the groups the event touched ([Controller.drain_dirty]) —
   untouched groups pass from the cache. Each touched group is
   additionally compared against a from-scratch controller re-encoding its
   membership: any correct encoding of one membership compiles to the same
   canonical predicate (both interned in one fresh universe), so the
   reference controller needs only the touched groups, not the whole
   configuration. Runs after every single event — no sampling. *)
let check_symbolic cache msg ctrl =
  let live = Controller.installed_config ctrl in
  let dirty = Controller.drain_dirty ctrl in
  (match Verify.check_config_cached cache live ~dirty with
  | Ok _ -> ()
  | Error w ->
      Alcotest.failf "%s: installed state loses a receiver, witness %a" msg
        Verify.pp_witness w);
  let gids = Installed_config.group_ids live in
  let touched = List.filter (fun gid -> List.mem gid gids) dirty in
  if touched <> [] then begin
    let ctx = Pred.create_ctx () in
    let scratch =
      Controller.create (Controller.topology ctrl) (Controller.params ctrl)
    in
    List.iter
      (fun gid ->
        match Controller.members ctrl ~group:gid with
        | [] -> ()
        | ms -> ignore (Controller.add_group scratch ~group:gid ms))
      touched;
    let scfg = Controller.installed_config scratch in
    List.iter
      (fun gid ->
        let inc = Verify.compile ctx live ~group:gid in
        let scr = Verify.compile ctx scfg ~group:gid in
        match Verify.check_equiv ~group:gid inc scr with
        | Ok () -> ()
        | Error w ->
            Alcotest.failf "%s: incremental != scratch, witness %a" msg
              Verify.pp_witness w)
      touched
  end

(* One oracle run: [events] uniformly mixed joins/leaves on a single group,
   symbolically checked after every event, structurally checked every 50
   and delivery-checked (packet level) every 100. *)
let run_stream ~seed ~events params =
  let ctrl, fabric = make params in
  let cache = Verify.create_cache () in
  let rng = Rng.create seed in
  let n = Topology.num_hosts topo in
  let initial =
    List.init 12 (fun i -> (i * 11) mod n)
    |> List.sort_uniq compare
    |> List.map (fun host -> (host, random_role rng))
  in
  ignore (Controller.add_group ctrl ~group initial);
  let downs = Test_verify.down_oracle () in
  Test_verify.check_shared_down downs (Printf.sprintf "seed %d setup" seed) ctrl
    ~groups:[ group ];
  for ev = 1 to events do
    let members = Controller.members ctrl ~group in
    let count = List.length members in
    let want_join = count = 0 || (count < n && Rng.bool rng) in
    let host, u =
      if want_join then begin
        let rec fresh () =
          let host = Rng.int rng n in
          if List.mem_assoc host members then fresh () else host
        in
        (* The role is drawn before the host, as the arguments of one
           application evaluate right to left. *)
        let role = random_role rng in
        let host = fresh () in
        (host, Controller.join ctrl ~group ~host ~role)
      end
      else begin
        let host, _ = List.nth members (Rng.int rng count) in
        (host, Controller.leave ctrl ~group ~host)
      end
    in
    let msg = Printf.sprintf "seed %d event %d" seed ev in
    check_symbolic cache msg ctrl;
    Test_verify.check_view_memo msg ctrl;
    Test_verify.check_shared_down ~event:(group, host, u) downs msg ctrl
      ~groups:[ group ];
    if ev mod 50 = 0 || ev = events then check_equivalent msg params ctrl ~group;
    if ev mod 100 = 0 || ev = events then check_delivery msg ctrl fabric ~group
  done;
  Controller.churn_stats ctrl

let test_oracle_default () =
  let stats = run_stream ~seed:42 ~events:600 Params.default in
  check_bool "fast path exercised" (stats.Controller.fast_path > 0);
  check_bool "slow path exercised" (stats.Controller.reencoded > 0)

let test_oracle_tight_budgets () =
  (* Small Hmax + tiny Fmax: p-rule sharing, s-rule spill and the default
     rule are all in play, so every fast-path site gets exercised. *)
  let params =
    Params.create ~r:4 ~r_semantics:Params.Per_bitmap ~hmax_leaf:2 ~hmax_spine:1
      ~header_budget:None ~kmax:2 ~fmax:4 ()
  in
  List.iter
    (fun seed ->
      let stats = run_stream ~seed ~events:500 params in
      check_bool "fast path exercised" (stats.Controller.fast_path > 0))
    [ 1; 271828 ]

let test_oracle_frequent_staleness () =
  (* A small staleness bound forces constant interleaving of both paths. *)
  let params =
    Params.create ~r:8 ~kmax:3 ~header_budget:None ~staleness_limit:16 ()
  in
  let stats = run_stream ~seed:314159 ~events:500 params in
  check_bool "fast path exercised" (stats.Controller.fast_path > 0);
  check_bool "staleness forces re-encodes"
    (stats.Controller.reencoded * params.Params.staleness_limit
    >= stats.Controller.fast_path)

(* {1 Direct [apply_delta] unit tests} *)

let enc_of params hosts =
  let srules = Srule_state.create topo ~fmax:params.Params.fmax in
  Encoding.encode params srules (Tree.of_members topo hosts)

let join host = Encoding.delta_of_host topo ~joining:true host
let leave host = Encoding.delta_of_host topo ~joining:false host

let members_of enc = Tree.member_list enc.Encoding.tree

let test_delta_new_leaf () =
  let enc = enc_of Params.default [ 0; 1 ] in
  (match Encoding.apply_delta enc (join ((2 * h) + 3)) with
  | Encoding.Reencode Encoding.New_leaf -> ()
  | _ -> Alcotest.fail "expected Reencode New_leaf");
  Alcotest.(check (list int)) "nothing mutated" [ 0; 1 ] (members_of enc);
  Alcotest.(check int) "not stale" 0 enc.Encoding.stale

let test_delta_emptied_leaf () =
  let enc = enc_of Params.default [ 0; h ] in
  (match Encoding.apply_delta enc (leave h) with
  | Encoding.Reencode Encoding.Emptied_leaf -> ()
  | _ -> Alcotest.fail "expected Reencode Emptied_leaf");
  Alcotest.(check (list int)) "nothing mutated" [ 0; h ] (members_of enc)

let test_delta_stale () =
  let params = Params.create ~staleness_limit:0 ~header_budget:None () in
  let enc = enc_of params [ 0; 1 ] in
  match Encoding.apply_delta enc (join 2) with
  | Encoding.Reencode Encoding.Stale -> ()
  | _ -> Alcotest.fail "staleness_limit 0 must disable the fast path"

let test_delta_prule_join () =
  let enc = enc_of Params.default [ 0; 1; h ] in
  (match Encoding.apply_delta enc (join 2) with
  | Encoding.Applied a ->
      check_bool "site is a p-rule" (a.Encoding.site = Encoding.Site_prule);
      check_bool "the singleton rule's own bitmap gained the port"
        a.Encoding.header_changed
  | Encoding.Reencode _ -> Alcotest.fail "expected the fast path");
  Alcotest.(check (list int)) "member added" [ 0; 1; 2; h ] (members_of enc);
  Alcotest.(check int) "stale incremented" 1 enc.Encoding.stale;
  match Tree.leaf_bitmap enc.Encoding.tree 0 with
  | Some bm -> check_bool "port bit set" (Bitmap.get bm 2)
  | None -> Alcotest.fail "leaf 0 vanished"

let test_delta_srule_site () =
  (* hmax_leaf 1 over three leaves: one p-rule, the rest spill to s-rules
     (Fmax leaves room). Join a fresh host behind an s-rule leaf. *)
  let params = Params.create ~hmax_leaf:1 ~header_budget:None () in
  let enc = enc_of params [ 0; h; 2 * h ] in
  match enc.Encoding.d_leaf.Clustering.srules with
  | [] -> Alcotest.fail "setup should spill to s-rules"
  | (l, bm) :: _ -> (
      let host = (l * h) + 5 in
      match Encoding.apply_delta enc (join host) with
      | Encoding.Applied a ->
          check_bool "site is an s-rule" (a.Encoding.site = Encoding.Site_srule);
          check_bool "s-rule change is header-neutral"
            (not a.Encoding.header_changed);
          check_bool "s-rule bitmap updated" (Bitmap.get bm 5)
      | Encoding.Reencode _ -> Alcotest.fail "expected the fast path")

let test_delta_default_site () =
  (* Fmax 0: no s-rule space, spill lands in the default p-rule. *)
  let params = Params.create ~hmax_leaf:1 ~fmax:0 ~header_budget:None () in
  let enc = enc_of params [ 0; h; 2 * h ] in
  match enc.Encoding.d_leaf.Clustering.default with
  | None -> Alcotest.fail "setup should use the default rule"
  | Some (ids, bm) -> (
      let l = List.hd ids in
      let host = (l * h) + 6 in
      match Encoding.apply_delta enc (join host) with
      | Encoding.Applied a ->
          check_bool "site is the default rule"
            (a.Encoding.site = Encoding.Site_default);
          check_bool "default bitmap updated" (Bitmap.get bm 6)
      | Encoding.Reencode _ -> Alcotest.fail "expected the fast path")

let test_delta_budget_exceeded () =
  (* Three leaves with identical one-port bitmaps, hmax 1, r 0: two of them
     share a p-rule. Joining a second port behind a sharing leaf would cost
     redundancy the budget forbids — and must mutate nothing. *)
  let params = Params.create ~r:0 ~hmax_leaf:1 ~header_budget:None () in
  let enc = enc_of params [ 0; h; 2 * h ] in
  let shared =
    List.find_opt
      (fun (r : Prule.prule) -> List.length r.Prule.switches > 1)
      enc.Encoding.d_leaf.Clustering.prules
  in
  match shared with
  | None -> Alcotest.fail "setup should produce a shared rule"
  | Some r -> (
      let l = List.hd r.Prule.switches in
      let before = Bitmap.copy r.Prule.bitmap in
      match Encoding.apply_delta enc (join ((l * h) + 3)) with
      | Encoding.Reencode Encoding.Budget_exceeded ->
          Alcotest.(check (list int)) "nothing mutated"
            [ 0; h; 2 * h ] (members_of enc);
          check_bool "rule bitmap untouched" (Bitmap.equal before r.Prule.bitmap)
      | _ -> Alcotest.fail "expected Reencode Budget_exceeded")

let tests =
  [
    Alcotest.test_case "oracle: default params" `Quick test_oracle_default;
    Alcotest.test_case "oracle: tight budgets" `Quick test_oracle_tight_budgets;
    Alcotest.test_case "oracle: frequent staleness" `Quick
      test_oracle_frequent_staleness;
    Alcotest.test_case "delta: new leaf re-encodes" `Quick test_delta_new_leaf;
    Alcotest.test_case "delta: emptied leaf re-encodes" `Quick
      test_delta_emptied_leaf;
    Alcotest.test_case "delta: staleness limit" `Quick test_delta_stale;
    Alcotest.test_case "delta: p-rule join" `Quick test_delta_prule_join;
    Alcotest.test_case "delta: s-rule site" `Quick test_delta_srule_site;
    Alcotest.test_case "delta: default site" `Quick test_delta_default_site;
    Alcotest.test_case "delta: budget exceeded" `Quick
      test_delta_budget_exceeded;
  ]
