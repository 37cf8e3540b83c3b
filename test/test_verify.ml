(* The symbolic forwarding-equivalence layer: canonical predicate algebra
   (hash-consing, subsumption, witnesses) and — the load-bearing property —
   agreement between the symbolic per-sender compiler and an actual packet
   injection on randomized memberships, health states and sender choices. *)

let topo = Topology.running_example ()
let h = topo.Topology.hosts_per_leaf

(* {1 Predicate algebra} *)

let test_hash_consing () =
  let ctx = Pred.create_ctx () in
  let a = Pred.of_pairs ctx [ (Pred.Leaf 3, 1); (Pred.Core, 2); (Pred.Spine 1, 0) ] in
  let b = Pred.of_pairs ctx [ (Pred.Spine 1, 0); (Pred.Leaf 3, 1); (Pred.Core, 2) ] in
  Alcotest.(check bool) "order-insensitive interning" true (Pred.equiv a b);
  let c = Pred.of_pairs ctx [ (Pred.Leaf 3, 1); (Pred.Core, 2) ] in
  Alcotest.(check bool) "distinct sets distinct" false (Pred.equiv a c);
  Alcotest.(check int) "duplicates collapse" 3
    (Pred.cardinal (Pred.of_pairs ctx [ (Pred.Core, 0); (Pred.Core, 0); (Pred.Core, 1); (Pred.Leaf 0, 0) ]));
  Alcotest.(check bool) "empty is empty" true
    (Pred.is_empty (Pred.of_pairs ctx []))

let test_canonical_order_and_pp () =
  let ctx = Pred.create_ctx () in
  let p = Pred.of_pairs ctx [ (Pred.Leaf 4, 7); (Pred.Spine 2, 0); (Pred.Core, 2) ] in
  (* core sorts before spines before leaves: the topmost layer first *)
  Alcotest.(check string) "render" "{core/2, spine2/0, leaf4/7}"
    (Format.asprintf "%a" Pred.pp p);
  Alcotest.(check (list int)) "leaf endpoints" [ (4 * h) + 7 ]
    (Pred.leaf_endpoints p ~topo)

let test_subsumes_and_witnesses () =
  let ctx = Pred.create_ctx () in
  let big = Pred.of_pairs ctx [ (Pred.Core, 1); (Pred.Spine 1, 0); (Pred.Leaf 2, 3); (Pred.Leaf 2, 5) ] in
  let small = Pred.of_pairs ctx [ (Pred.Leaf 2, 3); (Pred.Spine 1, 0) ] in
  Alcotest.(check bool) "subsumes" true (Pred.subsumes ~big ~small);
  Alcotest.(check bool) "not the converse" false
    (Pred.subsumes ~big:small ~small:big);
  (match Pred.first_missing ~big:small ~small:big with
  | Some (Pred.Core, 1) -> ()
  | _ -> Alcotest.fail "first missing edge should be the topmost (core/1)");
  (match Verify.diff ~group:9 big small with
  | Some w ->
      Alcotest.(check string) "diff witness" "9/core/1"
        (Format.asprintf "%a" Verify.pp_witness w)
  | None -> Alcotest.fail "diff must find the core edge");
  Alcotest.(check bool) "diff of equal is None" true
    (Verify.diff ~group:0 big big = None)

(* {1 Compile / intent / check_config} *)

let mk_ctrl params =
  let fabric = Fabric.create topo in
  ( Controller.create ~fabric_hooks:(Fabric.controller_hooks fabric) topo params,
    fabric )

let both hosts = List.map (fun x -> (x, Controller.Both)) hosts

let test_compile_matches_intent_healthy () =
  let ctrl, _ = mk_ctrl Params.default in
  ignore (Controller.add_group ctrl ~group:0 (both [ 0; 1; h; (3 * h) + 2 ]));
  ignore (Controller.add_group ctrl ~group:1 (both [ 2; 3 ]));
  ignore (Controller.add_group ctrl ~group:2 (both [ (6 * h) + 1; (7 * h) + 4 ]));
  match Verify.check_controller ctrl with
  | Ok n -> Alcotest.(check int) "three groups checked" 3 n
  | Error w ->
      Alcotest.failf "healthy controller fails its own check: %a"
        Verify.pp_witness w

let test_check_config_finds_lost_receiver () =
  let ctrl, _ = mk_ctrl Params.default in
  ignore (Controller.add_group ctrl ~group:0 (both [ 0; 1; h ]));
  let cfg = Controller.installed_config ctrl in
  (* Corrupt a copy of the view (views are shared with later calls): drop
     host 1's port from every leaf-layer rule of group 0 — the symbolic
     check must name exactly that endpoint. *)
  let corrupt (g : Installed_config.group_view) =
    match g.Installed_config.enc with
    | None -> g
    | Some enc ->
        let enc = Encoding.copy enc in
        List.iter
          (fun (r : Prule.prule) ->
            if Prule.rule_mem r 0 then Bitmap.clear r.Prule.bitmap 1)
          enc.Encoding.d_leaf.Clustering.prules;
        List.iter
          (fun (l, bm) -> if l = 0 then Bitmap.clear bm 1)
          enc.Encoding.d_leaf.Clustering.srules;
        { g with Installed_config.enc = Some enc }
  in
  let cfg = { cfg with Installed_config.groups = Array.map corrupt cfg.Installed_config.groups } in
  match Verify.check_config cfg with
  | Ok _ -> Alcotest.fail "corrupted config must fail the check"
  | Error w ->
      Alcotest.(check string) "witness names the lost endpoint" "0/leaf0/1"
        (Format.asprintf "%a" Verify.pp_witness w)

let test_snapshot_view_matches_live () =
  let ctrl, _ = mk_ctrl Params.default in
  ignore (Controller.add_group ctrl ~group:3 (both [ 0; (2 * h) + 1; (5 * h) + 5 ]));
  ignore (Controller.fail_spine ctrl 1);
  let ctx = Pred.create_ctx () in
  let live = Controller.installed_config ctrl in
  let snap = Controller.installed_config_of_snapshot (Controller.snapshot ctrl) in
  Alcotest.(check bool) "snapshot view compiles identically" true
    (Verify.equiv
       (Verify.compile ctx live ~group:3)
       (Verify.compile ctx snap ~group:3));
  match Verify.compile_sender ctx live ~group:3 ~sender:0,
        Verify.compile_sender ctx snap ~group:3 ~sender:0 with
  | Some a, Some b ->
      Alcotest.(check bool) "per-sender too (incl. overrides/health)" true
        (Verify.equiv a b)
  | _ -> Alcotest.fail "multicast path expected on both views"

(* {1 Memoized checkpoint entries}

   [Controller.installed_config] and [Controller.snapshot] hand out one
   memoized deep copy per group that only [mark_dirty] evicts, so a
   mutation that forgot to mark its group would serve a stale copy — and
   the predicate-cache oracle, which trusts [drain_dirty] too, would not
   notice. Both producers read the same memo, so comparing one with the
   other proves nothing; the oracle compares every entry against the live
   controller's own accessors:
   members, encoding bytes and role-derived host lists per entry, and, for
   overrides, the header bytes of every (group, sender) of a controller
   restored from the snapshot. *)

let encoding_bytes = function
  | None -> None
  | Some enc ->
      let w = Byteio.Writer.create () in
      Encoding.write w enc;
      Some (Byteio.Writer.to_bytes w)

let check_view_memo msg ctrl =
  let snap = Controller.snapshot ctrl in
  let entries = Controller.snapshot_groups snap in
  let gids = List.map (fun (_, v) -> v.Installed_config.gid) entries in
  if
    List.length gids <> Controller.group_count ctrl
    || not (List.equal Int.equal gids (List.sort_uniq Int.compare gids))
  then Alcotest.failf "%s: memoized entries list other groups" msg;
  List.iter
    (fun (members, (v : Installed_config.group_view)) ->
      let group = v.Installed_config.gid in
      let same what ok =
        if not ok then
          Alcotest.failf "%s: group %d: memoized entry differs in %s" msg group
            what
      in
      let live = Controller.members ctrl ~group in
      same "members" (members = live);
      let hosts want =
        List.filter_map (fun (h, r) -> if want r then Some h else None) live
        |> List.sort_uniq Int.compare
      in
      same "receivers"
        (List.equal Int.equal v.Installed_config.receivers
           (hosts (function
             | Controller.Receiver | Controller.Both -> true
             | Controller.Sender -> false)));
      same "senders"
        (List.equal Int.equal v.Installed_config.senders
           (hosts (function
             | Controller.Sender | Controller.Both -> true
             | Controller.Receiver -> false)));
      same "encoding bytes"
        (Option.equal Bytes.equal
           (encoding_bytes v.Installed_config.enc)
           (encoding_bytes (Controller.encoding ctrl ~group))))
    entries;
  if
    not
      (Test_fault.same_state_on_groups (Controller.restore snap) ctrl gids)
  then Alcotest.failf "%s: restored snapshot builds other headers" msg

(* {1 Shared-down oracle}

   Every sender's header of one encoding version carries the same
   [Prule.down], built once from copies of the rule bitmaps. After every
   event, for every sender of each checked group:
   - the header's bytes equal the reference section walk over its own
     fields ([Test_codec.reference_encode]), so the spliced wire agrees
     with the rules it was built from;
   - all of them share one down ([==]), and its rules are the encoding's
     live rules;
   - an event that changed the encoding (a fast-path [apply_delta] or a
     re-encode) yields a new down, one that did not keeps it;
   - the down seen before the event is unchanged, bytes and bitmaps, and a
     hypervisor holding the old header that was not re-installed still
     encapsulates and injects exactly the bytes it was given. *)

type seen_down = {
  enc : Encoding.t;
  stale : int;  (** fast-path mutations of [enc] when seen *)
  down : Prule.down;
  header : Prule.header;
  bytes : bytes;  (** [header]'s wire when installed *)
  hv : Hypervisor.t;  (** holds [header], never re-installed *)
}

type down_oracle = { scratch : Fabric.t; seen : (int, seen_down) Hashtbl.t }

let down_oracle () = { scratch = Fabric.create topo; seen = Hashtbl.create 8 }

let same_rules a b = List.equal Prule.equal a b

let same_default a (res : Clustering.result) =
  Option.equal Bitmap.equal a (Option.map snd res.Clustering.default)

let check_shared_down oracle msg ctrl ~groups =
  List.iter
    (fun group ->
      let fail fmt = Alcotest.failf ("%s: group %d: " ^^ fmt) msg group in
      (match Hashtbl.find_opt oracle.seen group with
      | None -> ()
      | Some old ->
          if not (Bytes.equal (Test_codec.reference_encode topo old.header) old.bytes)
          then fail "the previous down's rules changed under its headers";
          if not (Bytes.equal (Header_codec.encode topo old.header) old.bytes) then
            fail "the previous down's wire changed";
          match Hypervisor.encap old.hv ~group ~payload:Bytes.empty with
          | Some b when Bytes.equal b old.bytes -> ()
          | Some _ | None -> fail "a hypervisor not re-installed changed its blob");
      match (Controller.encoding ctrl ~group, Controller.members ctrl ~group) with
      | None, _ | _, [] -> Hashtbl.remove oracle.seen group
      | Some enc, ((first, _) :: _ as members) ->
          let senders =
            List.filter_map
              (fun (h, r) ->
                match r with
                | Controller.Sender | Controller.Both -> Some h
                | Controller.Receiver -> None)
              members
          in
          let base = Encoding.header_for_sender enc ~sender:first in
          let down = base.Prule.downstream in
          let headers =
            List.filter_map (fun s -> Controller.header ctrl ~group ~sender:s) senders
          in
          List.iter
            (fun (h : Prule.header) ->
              if not (h.Prule.downstream == down) then
                fail "two senders' headers carry different downs";
              if
                not
                  (Bytes.equal (Header_codec.encode topo h)
                     (Test_codec.reference_encode topo h))
              then fail "header bytes differ from the reference walk")
            headers;
          if
            not
              (same_rules down.Prule.d_spine enc.Encoding.d_spine.Clustering.prules
              && same_default down.Prule.d_spine_default enc.Encoding.d_spine
              && same_rules down.Prule.d_leaf enc.Encoding.d_leaf.Clustering.prules
              && same_default down.Prule.d_leaf_default enc.Encoding.d_leaf)
          then fail "the shared down is not the encoding's live rules";
          (match Hashtbl.find_opt oracle.seen group with
          | None -> ()
          | Some old ->
              let changed = not (old.enc == enc && old.stale = enc.Encoding.stale) in
              if changed && old.down == down then
                fail "a changed encoding kept its old down";
              if (not changed) && not (old.down == down) then
                fail "an unchanged encoding built a second down");
          let header = match headers with h :: _ -> h | [] -> base in
          let hv = Hypervisor.create oracle.scratch ~host:first in
          Hypervisor.install_sender hv ~group header;
          Hashtbl.replace oracle.seen group
            {
              enc;
              stale = enc.Encoding.stale;
              down;
              header;
              bytes = Header_codec.encode topo header;
              hv;
            })
    groups

(* Churn across several groups interleaved with spine/core/link failure
   and recovery, group removal and re-creation, a wedgeable leaf (its
   installs exhaust their budget, so it is denied) and bursts of install
   and removal timeouts, with the memo oracle after every event. Returns
   whether stale markers, failed elements and a denied leaf were live at
   some point. Denials are permanent, so each seed gets a fresh fabric. *)
let view_memo_fault_stream ~seed ~events =
  let params =
    Params.create ~hmax_leaf:1 ~hmax_spine:1 ~header_budget:None ~fmax:6
      ~install_retries:1 ~install_backoff_us:8 ()
  in
  let rng = Rng.create seed in
  (* A burst long enough to exhaust an operation's budget and the
     reconcile pass's retry right after it leaves a stale marker behind
     when it hits a removal. *)
  let script =
    List.concat
      (List.init 100 (fun _ ->
           List.init (10 + Rng.int rng 30) (fun _ -> Fault.Applied)
           @ List.init (4 + Rng.int rng 4) (fun _ -> Fault.Timeout)))
  in
  let fault = Fault.create ~schedule:(Fault.Scripted script) (Fabric.create topo) in
  let ctrl = Controller.create ~fabric_hooks:(Fault.hooks fault) topo params in
  let n = Topology.num_hosts topo in
  let roles = [| Controller.Sender; Controller.Receiver; Controller.Both |] in
  let random_members () =
    List.init 10 (fun _ -> Rng.int rng n)
    |> List.sort_uniq Int.compare
    |> List.map (fun host -> (host, roles.(Rng.int rng 3)))
  in
  let groups = 4 in
  for group = 0 to groups - 1 do
    ignore (Controller.add_group ctrl ~group (random_members ()))
  done;
  check_view_memo (Printf.sprintf "seed %d setup" seed) ctrl;
  let downs = down_oracle () in
  let all_groups = List.init groups Fun.id in
  check_shared_down downs (Printf.sprintf "seed %d setup" seed) ctrl ~groups:all_groups;
  let spines = Topology.num_spines topo
  and cores = Topology.num_cores topo
  and leaves = Topology.num_leaves topo
  and planes = topo.Topology.spines_per_pod in
  let spine_ok = Array.make spines true
  and core_ok = Array.make cores true
  and link_ok = Array.make (leaves * planes) true
  and wedged = ref false in
  let saw_stale = ref false and saw_failure = ref false in
  for ev = 1 to events do
    (match Rng.int rng 10 with
    | 0 ->
        let s = Rng.int rng spines in
        if spine_ok.(s) then ignore (Controller.fail_spine ctrl s)
        else ignore (Controller.recover_spine ctrl s);
        spine_ok.(s) <- not spine_ok.(s)
    | 1 ->
        let c = Rng.int rng cores in
        if core_ok.(c) then ignore (Controller.fail_core ctrl c)
        else ignore (Controller.recover_core ctrl c);
        core_ok.(c) <- not core_ok.(c)
    | 2 ->
        let leaf = Rng.int rng leaves and plane = Rng.int rng planes in
        let i = (leaf * planes) + plane in
        if link_ok.(i) then ignore (Controller.fail_link ctrl ~leaf ~plane)
        else ignore (Controller.recover_link ctrl ~leaf ~plane);
        link_ok.(i) <- not link_ok.(i)
    | 3 ->
        wedged := not !wedged;
        Fault.wedge_leaf fault 0 !wedged
    | 4 ->
        let group = Rng.int rng groups in
        ignore (Controller.remove_group ctrl ~group);
        ignore (Controller.add_group ctrl ~group (random_members ()))
    | _ -> (
        let group = Rng.int rng groups in
        let members = Controller.members ctrl ~group in
        let host = Rng.int rng n in
        match List.assoc_opt host members with
        | Some _ when List.length members > 1 ->
            ignore (Controller.leave ctrl ~group ~host)
        | Some _ -> ()
        | None ->
            ignore
              (Controller.join ctrl ~group ~host ~role:roles.(Rng.int rng 3))));
    check_view_memo (Printf.sprintf "seed %d event %d" seed ev) ctrl;
    check_shared_down downs (Printf.sprintf "seed %d event %d" seed ev) ctrl
      ~groups:all_groups;
    if (Controller.install_stats ctrl).Controller.stale_entries > 0 then
      saw_stale := true;
    if
      Array.exists not spine_ok || Array.exists not core_ok
      || Array.exists not link_ok
    then saw_failure := true
  done;
  let denied =
    Array.exists Fun.id
      (Controller.installed_config ctrl).Installed_config.denied_leaf
  in
  (!saw_stale, !saw_failure, denied)

let test_view_memo_fault_stream () =
  let runs =
    List.map
      (fun seed -> view_memo_fault_stream ~seed ~events:80)
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  let any f = List.exists f runs in
  Alcotest.(check bool) "stale markers were live" true (any (fun (s, _, _) -> s));
  Alcotest.(check bool) "failures were live" true (any (fun (_, f, _) -> f));
  Alcotest.(check bool) "a leaf was denied" true (any (fun (_, _, d) -> d))

(* Clean groups keep their record across calls; a join re-copies only its
   own group; a clean re-view allocates a few words per group instead of a
   deep copy; a restored controller starts with nothing memoized. *)
let test_view_memo_identity_and_allocation () =
  let ctrl = Controller.create topo Params.default in
  let rng = Rng.create 31 in
  let n = Topology.num_hosts topo in
  let groups = 300 in
  for group = 0 to groups - 1 do
    List.init (2 + Rng.int rng 6) (fun _ -> Rng.int rng n)
    |> List.sort_uniq Int.compare |> both
    |> Controller.add_group ctrl ~group
    |> ignore
  done;
  let v1 = Controller.installed_config ctrl in
  let v2 = Controller.installed_config ctrl in
  Alcotest.(check bool) "no mutation: every record shared" true
    (Array.for_all2 ( == ) v1.Installed_config.groups v2.Installed_config.groups);
  Alcotest.(check int) "every group memoized" groups
    (Controller.memoized_views ctrl);
  let joined = 17 in
  let members = Controller.members ctrl ~group:joined in
  let host =
    List.find (fun x -> not (List.mem_assoc x members)) (List.init n Fun.id)
  in
  ignore (Controller.join ctrl ~group:joined ~host ~role:Controller.Receiver);
  let v3 = Controller.installed_config ctrl in
  Array.iteri
    (fun i (g : Installed_config.group_view) ->
      Alcotest.(check bool)
        (Printf.sprintf "group %d shared iff untouched" g.Installed_config.gid)
        (g.Installed_config.gid <> joined)
        (g == v2.Installed_config.groups.(i)))
    v3.Installed_config.groups;
  let report =
    Allocs.probe ~warmup:1 ~events:1 (fun _ ->
        ignore (Sys.opaque_identity (Controller.installed_config ctrl)))
  in
  let per_group = report.Allocs.total_words /. float_of_int groups in
  if per_group >= 50.0 then
    Alcotest.failf "clean re-view allocated %.1f minor words per group"
      per_group;
  let restored = Controller.restore (Controller.snapshot ctrl) in
  Alcotest.(check int) "restored controller: empty memo" 0
    (Controller.memoized_views restored);
  Alcotest.(check bool) "restored views are fresh copies" true
    (Array.for_all2 ( != )
       (Controller.installed_config restored).Installed_config.groups
       v3.Installed_config.groups)

(* The same for snapshots: a clean re-snapshot shares every entry with
   the previous snapshot and with the installed view; a join re-copies
   only its own group; shared entries serialize to the bytes a cold
   controller writes; a restored controller starts with nothing memoized
   and copies out of the snapshot rather than sharing with it. *)
let test_snapshot_memo_identity () =
  let ctrl = Controller.create topo Params.default in
  let rng = Rng.create 37 in
  let n = Topology.num_hosts topo in
  let groups = 300 in
  for group = 0 to groups - 1 do
    List.init (2 + Rng.int rng 6) (fun _ -> Rng.int rng n)
    |> List.sort_uniq Int.compare |> both
    |> Controller.add_group ctrl ~group
    |> ignore
  done;
  let views snap = List.map snd (Controller.snapshot_groups snap) in
  let s1 = Controller.snapshot ctrl in
  let s2 = Controller.snapshot ctrl in
  Alcotest.(check bool) "clean re-snapshot: every entry shared" true
    (List.for_all2 ( == ) (views s1) (views s2));
  Alcotest.(check bool) "member lists shared too" true
    (List.for_all2 ( == )
       (List.map fst (Controller.snapshot_groups s1))
       (List.map fst (Controller.snapshot_groups s2)));
  Alcotest.(check bool) "installed view shares the snapshot's copies" true
    (List.for_all2 ( == ) (views s2)
       (Array.to_list (Controller.installed_config ctrl).Installed_config.groups));
  Alcotest.(check int) "every group memoized" groups
    (Controller.memoized_views ctrl);
  (* Writing caches every entry's segment; the next snapshot blits them. *)
  ignore (Test_fault.snapshot_bytes s2);
  let joined = 17 in
  let members = Controller.members ctrl ~group:joined in
  let host =
    List.find (fun x -> not (List.mem_assoc x members)) (List.init n Fun.id)
  in
  ignore (Controller.join ctrl ~group:joined ~host ~role:Controller.Receiver);
  Alcotest.(check int) "the join evicted one entry" (groups - 1)
    (Controller.memoized_views ctrl);
  let s3 = Controller.snapshot ctrl in
  List.iter2
    (fun (a : Installed_config.group_view) b ->
      Alcotest.(check bool)
        (Printf.sprintf "group %d shared iff untouched" a.Installed_config.gid)
        (a.Installed_config.gid <> joined)
        (a == b))
    (views s3) (views s2);
  let restored = Controller.restore s3 in
  Alcotest.(check int) "restored controller: empty memo" 0
    (Controller.memoized_views restored);
  Alcotest.(check bool) "cached segments write a cold controller's bytes" true
    (Bytes.equal
       (Test_fault.snapshot_bytes s3)
       (Test_fault.snapshot_bytes (Controller.snapshot restored)));
  Alcotest.(check bool) "restored entries are fresh copies" true
    (List.for_all2 ( != ) (views (Controller.snapshot restored)) (views s3))

(* {1 Symbolic walk vs. packet injection} *)

(* Random membership + random health + every member as sender: the
   endpoints of [compile_sender] must equal the delivered-host set of a
   real [Fabric.inject] of the controller's own header, whenever the
   controller still has a multicast path. Fabric and controller health are
   flipped in lockstep, as the control plane does. *)
let gen_scenario =
  QCheck.Gen.(
    let hosts = Topology.num_hosts topo in
    triple
      (list_size (int_range 2 12) (int_range 0 (hosts - 1)))
      (list_size (int_range 0 4) (int_range 0 (Topology.num_spines topo - 1)))
      (list_size (int_range 0 6)
         (pair
            (int_range 0 (Topology.num_leaves topo - 1))
            (int_range 0 (topo.Topology.spines_per_pod - 1)))))

let arb_scenario =
  QCheck.make
    ~print:(fun (ms, spines, links) ->
      Printf.sprintf "members=[%s] spines=[%s] links=[%s]"
        (String.concat ";" (List.map string_of_int ms))
        (String.concat ";" (List.map string_of_int spines))
        (String.concat ";"
           (List.map (fun (l, p) -> Printf.sprintf "%d.%d" l p) links)))
    gen_scenario

let prop_symbolic_agrees_with_injection =
  QCheck.Test.make
    ~name:"compile_sender endpoints == injected delivery, any health" ~count:60
    arb_scenario (fun (ms, spines, links) ->
      let members = List.sort_uniq Int.compare ms in
      QCheck.assume (List.length members >= 2);
      let ctrl, fabric = mk_ctrl Params.default in
      ignore (Controller.add_group ctrl ~group:0 (both members));
      List.iter
        (fun s ->
          Fabric.fail_spine fabric s;
          ignore (Controller.fail_spine ctrl s))
        (List.sort_uniq Int.compare spines);
      List.iter
        (fun (leaf, plane) ->
          Fabric.fail_link fabric ~leaf ~plane;
          ignore (Controller.fail_link ctrl ~leaf ~plane))
        (List.sort_uniq (fun (a, b) (c, d) ->
             match Int.compare a c with 0 -> Int.compare b d | n -> n)
           links);
      let cfg = Controller.installed_config ctrl in
      let ctx = Pred.create_ctx () in
      List.for_all
        (fun sender ->
          match Verify.compile_sender ctx cfg ~group:0 ~sender with
          | None -> Controller.header ctrl ~group:0 ~sender = None
          | Some pred -> (
              match Controller.header ctrl ~group:0 ~sender with
              | None ->
                  QCheck.Test.fail_reportf
                    "sender %d: symbolic path but unicast header" sender
              | Some header ->
                  let report =
                    Fabric.inject fabric ~sender ~group:0 ~header ~payload:64
                  in
                  let injected =
                    List.map fst report.Fabric.delivered
                    |> List.sort_uniq Int.compare
                  in
                  let symbolic = Pred.leaf_endpoints pred ~topo in
                  if injected <> symbolic then
                    QCheck.Test.fail_reportf
                      "sender %d: injected [%s] vs symbolic [%s]" sender
                      (String.concat ";" (List.map string_of_int injected))
                      (String.concat ";" (List.map string_of_int symbolic))
                  else true))
        members)

(* {1 Zero-blackhole sweep vs. the per-sender fold}

   [Verify.sender_blackholes] memoizes route parts per group and checks
   host bitmaps; the reference below interns one [compile_sender] and one
   [receiver_endpoints] predicate per (group, sender), in ascending gid and
   then sender order, and keeps the first missing edge of each. The two
   must agree witness for witness. *)

let reference_blackholes cfg =
  let ctx = Pred.create_ctx () in
  Installed_config.group_ids cfg
  |> List.concat_map (fun group ->
         let g = Option.get (Installed_config.group cfg group) in
         List.sort_uniq Int.compare g.Installed_config.senders
         |> List.filter_map (fun sender ->
                match Verify.compile_sender ctx cfg ~group ~sender with
                | None -> None
                | Some big -> (
                    let small =
                      Verify.receiver_endpoints ctx cfg ~group ~sender
                    in
                    match Verify.check_subsumes ~group ~big ~small with
                    | Ok () -> None
                    | Error w -> Some w)))

let render ws = List.map (Format.asprintf "%a" Verify.pp_witness) ws

(* One p-rule per layer and two group-table entries per switch: views mix
   p-rules, s-rules and default p-rules. *)
let tight_params =
  Params.create ~hmax_leaf:1 ~hmax_spine:1 ~header_budget:None ~fmax:2 ()

let dead_mask n dead =
  let a = Array.make n true in
  List.iter (fun i -> a.(i) <- false) dead;
  a

(* The view of [groups] installed on a healthy controller, re-made with
   the given dead cores and links and stale sites, and each group record
   passed through [edit]. The controller chose its routes on a healthy
   fabric, so the view's health can cut paths that no override routes
   around. *)
let view ?(dead_cores = []) ?(dead_links = []) ?(stale_sites = [])
    ?(edit = Fun.id) groups =
  let ctrl = Controller.create topo Params.default in
  List.iter
    (fun (group, members) ->
      ignore (Controller.add_group ctrl ~group members))
    groups;
  let cfg = Controller.installed_config ctrl in
  let spp = topo.Topology.spines_per_pod in
  Installed_config.make
    ~core_ok:(dead_mask (Topology.num_cores topo) dead_cores)
    ~link_ok:
      (dead_mask
         (Topology.num_leaves topo * spp)
         (List.map (fun (leaf, plane) -> (leaf * spp) + plane) dead_links))
    ~stale_sites topo Params.default
    (List.map edit (Array.to_list cfg.Installed_config.groups))

(* The group's encoding with [leaves] dropped from the leaf layer's
   p-rules and s-rules: with no default p-rule, those switches forward
   nothing. *)
let unassign_leaves ~group leaves (g : Installed_config.group_view) =
  let kept l = not (List.mem l leaves) in
  match g.Installed_config.enc with
  | Some enc when g.Installed_config.gid = group ->
      let layer = enc.Encoding.d_leaf in
      let d_leaf =
        {
          layer with
          Clustering.prules =
            List.map
              (fun (r : Prule.prule) ->
                { r with Prule.switches = List.filter kept r.Prule.switches })
              layer.Clustering.prules;
          srules = List.filter (fun (l, _) -> kept l) layer.Clustering.srules;
        }
      in
      { g with Installed_config.enc = Some { enc with Encoding.d_leaf } }
  | Some _ | None -> g

let with_overrides overrides (g : Installed_config.group_view) =
  { g with Installed_config.overrides }

let check_sweep msg expected cfg =
  Alcotest.(check (list string))
    (msg ^ ": sweep") expected
    (render (Verify.sender_blackholes cfg));
  Alcotest.(check (list string))
    (msg ^ ": reference fold") expected
    (render (reference_blackholes cfg))

let senders hosts = List.map (fun x -> (x, Controller.Sender)) hosts
let receivers hosts = List.map (fun x -> (x, Controller.Receiver)) hosts

(* Hosts 0 and 1 share leaf 0; host 9 is on leaf 1 of the same pod. With
   leaf 0's uplinks dead, sender 1 reaches only its co-located peer and
   sender 9 cannot reach leaf 0. Sender 0 has the same fate, but its
   unicast override hands it to the hypervisor: it is skipped. *)
let test_sweep_skips_unicast () =
  let unicast =
    {
      Installed_config.up_leaf_ports =
        Bitmap.create topo.Topology.spines_per_pod;
      up_spine_ports = None;
      unicast = true;
    }
  in
  let cut = view ~dead_links:[ (0, 0); (0, 1) ] in
  let groups = [ (0, both [ 0; 1; h + 1 ]) ] in
  check_sweep "unicast sender skipped"
    [ "0/leaf1/1"; "0/leaf0/0" ]
    (cut ~edit:(with_overrides [ (0, unicast) ]) groups);
  check_sweep "without the override it is checked"
    [ "0/leaf1/1"; "0/leaf1/1"; "0/leaf0/0" ]
    (cut groups)

(* Sender 0 (pod 0) to receivers 16 and 17 on leaf 2 (pod 1): its ECMP
   plane's chosen core carries the whole cross-pod part. *)
let cross_group = [ (0, senders [ 0 ] @ receivers [ 2 * h; (2 * h) + 1 ]) ]

let test_sweep_dead_chosen_core () =
  let hash = Ecmp.flow_hash ~group:0 ~sender:0 in
  let plane = Ecmp.spine_choice topo ~hash in
  let chosen = Ecmp.core_choice topo ~hash ~plane in
  let other_plane = 1 - plane in
  let cpp = topo.Topology.cores_per_plane in
  check_sweep "healthy" [] (view cross_group);
  check_sweep "dead chosen core: receiver in another pod"
    [ "0/leaf2/0" ]
    (view ~dead_cores:[ chosen ] cross_group);
  check_sweep "cores of the other plane do not matter" []
    (view
       ~dead_cores:(List.init cpp (fun q -> (other_plane * cpp) + q))
       cross_group)

let test_sweep_override_cores () =
  let cpp = topo.Topology.cores_per_plane in
  let ports = Bitmap.create cpp in
  List.iter (Bitmap.set ports) [ 0; 1 ];
  let up_leaf_ports = Bitmap.create topo.Topology.spines_per_pod in
  Bitmap.set up_leaf_ports 1;
  let ov =
    {
      Installed_config.up_leaf_ports;
      up_spine_ports = Some ports;
      unicast = false;
    }
  in
  let edit = with_overrides [ (0, ov) ] in
  (* plane 1's cores are cpp and cpp + 1 *)
  check_sweep "one dead, one live chosen core still covers" []
    (view ~edit ~dead_cores:[ cpp ] cross_group);
  check_sweep "both chosen cores dead" [ "0/leaf2/0" ]
    (view ~edit ~dead_cores:[ cpp; cpp + 1 ] cross_group)

(* Leaf 1 loses its rules; marking the site stale makes the switch resolve
   to the compensated truthful bitmap instead. *)
let test_sweep_stale_site () =
  let groups = [ (0, senders [ 0 ] @ receivers [ h; h + 1 ]) ] in
  let edit = unassign_leaves ~group:0 [ 1 ] in
  check_sweep "unassigned leaf" [ "0/leaf1/0" ] (view ~edit groups);
  check_sweep "stale site: truthful bitmap" []
    (view ~edit ~stale_sites:[ (0, Srule_state.Leaf 1) ] groups)

(* Groups installed out of order, two of them sabotaged: witnesses come
   out by gid, then by sender. *)
let test_sweep_multi_group_order () =
  let groups =
    [
      (3, both [ 0; 2 * h; 3 * h ]);
      (1, both [ 0; h; h + 1 ]);
      (2, both [ 0; 1 ]);
    ]
  in
  let edit g =
    g |> unassign_leaves ~group:1 [ 1 ] |> unassign_leaves ~group:3 [ 2; 3 ]
  in
  check_sweep "sabotaged groups 1 and 3"
    [ "1/leaf1/0"; "3/leaf2/0"; "3/leaf3/0"; "3/leaf2/0" ]
    (view ~edit groups)

(* Random views: up to three groups (reusing [gen_scenario]) with mixed
   roles, their spine and link failures plus core failures applied through
   the controller (which installs overrides and unicast degrades), then
   optionally one core failed in the view only (one the controller has not
   routed around), one s-rule or default bitmap emptied in a copied
   encoding and one tree site marked stale. *)
type sweep_case = {
  scenarios : (int list * int list * (int * int) list) list;
  dead_cores : int list;
  unseen_core : int option;
  sabotage : (int * int) option;  (* group index, site bitmap index *)
  stale : (int * int) option;  (* group index, tree site index *)
  tight : bool;
}

let gen_sweep_case =
  QCheck.Gen.(
    map
      (fun ((scenarios, dead_cores, unseen_core), (sabotage, stale, tight)) ->
        { scenarios; dead_cores; unseen_core; sabotage; stale; tight })
      (pair
         (let core = int_range 0 (Topology.num_cores topo - 1) in
          triple
            (list_size (int_range 1 3) gen_scenario)
            (list_size (int_range 0 3) core)
            (opt core))
         (triple
            (opt (pair nat nat))
            (opt (pair nat nat))
            bool)))

let print_sweep_case c =
  let ints l = String.concat ";" (List.map string_of_int l) in
  let opt = function
    | None -> "-"
    | Some (a, b) -> Printf.sprintf "%d.%d" a b
  in
  let scenario =
    QCheck.Print.(triple (list int) (list int) (list (pair int int)))
  in
  Printf.sprintf "%s cores=[%s] unseen_core=%s sabotage=%s stale=%s tight=%b"
    (String.concat " " (List.map scenario c.scenarios))
    (ints c.dead_cores)
    (Option.fold ~none:"-" ~some:string_of_int c.unseen_core)
    (opt c.sabotage) (opt c.stale) c.tight

let role_of ~group host =
  match (host + group) mod 3 with
  | 0 -> Controller.Both
  | 1 -> Controller.Sender
  | _ -> Controller.Receiver

let site_bitmaps (enc : Encoding.t) =
  let layer (l : Clustering.result) =
    List.map snd l.Clustering.srules
    @ Option.to_list (Option.map snd l.Clustering.default)
  in
  layer enc.Encoding.d_leaf @ layer enc.Encoding.d_spine

let tree_sites (enc : Encoding.t) =
  let tree = enc.Encoding.tree in
  List.map (fun l -> Srule_state.Leaf l) (Tree.leaves tree)
  @ List.map (fun p -> Srule_state.Pod p) (Tree.pods tree)

let sweep_case_view c =
  let params = if c.tight then tight_params else Params.default in
  let ctrl = Controller.create topo params in
  let uniq cmp l = List.sort_uniq cmp l in
  List.iteri
    (fun group (ms, _, _) ->
      uniq Int.compare ms
      |> List.map (fun host -> (host, role_of ~group host))
      |> Controller.add_group ctrl ~group
      |> ignore)
    c.scenarios;
  List.iter
    (fun s -> ignore (Controller.fail_spine ctrl s))
    (uniq Int.compare (List.concat_map (fun (_, s, _) -> s) c.scenarios));
  List.iter
    (fun (leaf, plane) -> ignore (Controller.fail_link ctrl ~leaf ~plane))
    (uniq compare (List.concat_map (fun (_, _, l) -> l) c.scenarios));
  List.iter
    (fun core -> ignore (Controller.fail_core ctrl core))
    (uniq Int.compare c.dead_cores);
  let cfg = Controller.installed_config ctrl in
  let groups = Array.copy cfg.Installed_config.groups in
  let pick (k, j) f =
    if Array.length groups > 0 then
      let i = k mod Array.length groups in
      match groups.(i).Installed_config.enc with
      | Some enc -> f i enc j
      | None -> ()
  in
  Option.iter
    (fun kj ->
      pick kj (fun i enc j ->
          let enc = Encoding.copy enc in
          (match site_bitmaps enc with
          | [] -> ()
          | bms -> Bitmap.reset (List.nth bms (j mod List.length bms)));
          groups.(i) <- { (groups.(i)) with Installed_config.enc = Some enc }))
    c.sabotage;
  let stale = ref (Array.to_list cfg.Installed_config.stale_sites) in
  Option.iter
    (fun kj ->
      pick kj (fun i enc j ->
          let sites = tree_sites enc in
          let site = List.nth sites (j mod List.length sites) in
          stale := (groups.(i).Installed_config.gid, site) :: !stale))
    c.stale;
  let core_ok = Array.copy cfg.Installed_config.core_ok in
  Option.iter (fun core -> core_ok.(core) <- false) c.unseen_core;
  Installed_config.make ~spine_ok:cfg.Installed_config.spine_ok ~core_ok
    ~link_ok:cfg.Installed_config.link_ok
    ~denied_leaf:cfg.Installed_config.denied_leaf
    ~denied_pod:cfg.Installed_config.denied_pod ~stale_sites:!stale topo params
    (Array.to_list groups)

let sweep_agrees c =
  let cfg = sweep_case_view c in
  let fast = render (Verify.sender_blackholes cfg)
  and reference = render (reference_blackholes cfg) in
  if fast <> reference then
    QCheck.Test.fail_reportf "sweep [%s] vs reference fold [%s]"
      (String.concat "; " fast)
      (String.concat "; " reference)
  else (cfg, reference)

let prop_sweep_matches_reference =
  QCheck.Test.make ~name:"sender_blackholes == per-sender fold, any view"
    ~count:200
    (QCheck.make ~print:print_sweep_case gen_sweep_case)
    (fun c -> ignore (sweep_agrees c); true)

(* The property above is only as strong as the views it draws: over a
   fixed sample, some must report witnesses, carry multi-plane or
   explicit-core overrides, degrade a sender to unicast and mark a stale
   site. *)
let test_sweep_oracle_not_vacuous () =
  let rand = Random.State.make [| 15 |] in
  let cases = QCheck.Gen.generate ~rand ~n:200 gen_sweep_case in
  let witnesses = ref 0 and overrides = ref 0 and unicast = ref 0
  and stale = ref 0 in
  List.iter
    (fun c ->
      let cfg, reference = sweep_agrees c in
      if reference <> [] then incr witnesses;
      if Array.length cfg.Installed_config.stale_sites > 0 then incr stale;
      Array.iter
        (fun (g : Installed_config.group_view) ->
          List.iter
            (fun (_, (o : Installed_config.override)) ->
              if o.Installed_config.unicast then incr unicast
              else incr overrides)
            g.Installed_config.overrides)
        cfg.Installed_config.groups)
    cases;
  let some what n =
    if n = 0 then Alcotest.failf "no sampled view has %s" what
  in
  some "a witness" !witnesses;
  some "an override" !overrides;
  some "a unicast sender" !unicast;
  some "a stale site" !stale

(* {1 Header-only interpretation} *)

let test_header_pred_walks_the_header () =
  let tree = Tree.of_members topo [ 0; 1; (2 * h) + 3; (6 * h) + 2 ] in
  let srules = Srule_state.create topo ~fmax:100 in
  let enc = Encoding.encode Params.default srules tree in
  let ctx = Pred.create_ctx () in
  let header = Encoding.header_for_sender enc ~sender:0 in
  let p = Verify.header_pred ctx topo ~sender:0 header in
  (* co-located member 1 appears; the sender itself never does *)
  let eps = Pred.leaf_endpoints p ~topo in
  Alcotest.(check bool) "member 1 delivered" true (List.mem 1 eps);
  Alcotest.(check bool) "sender not delivered" false (List.mem 0 eps);
  Alcotest.(check bool) "remote pod member delivered" true
    (List.mem ((6 * h) + 2) eps)

let tests =
  [
    Alcotest.test_case "hash-consing" `Quick test_hash_consing;
    Alcotest.test_case "canonical order and rendering" `Quick
      test_canonical_order_and_pp;
    Alcotest.test_case "subsumption and witnesses" `Quick
      test_subsumes_and_witnesses;
    Alcotest.test_case "compile == intent on a healthy controller" `Quick
      test_compile_matches_intent_healthy;
    Alcotest.test_case "check_config pinpoints a lost receiver" `Quick
      test_check_config_finds_lost_receiver;
    Alcotest.test_case "snapshot view compiles like the live one" `Quick
      test_snapshot_view_matches_live;
    QCheck_alcotest.to_alcotest prop_symbolic_agrees_with_injection;
    Alcotest.test_case "sweep: unicast-degraded sender skipped" `Quick
      test_sweep_skips_unicast;
    Alcotest.test_case "sweep: dead chosen core cuts cross-pod" `Quick
      test_sweep_dead_chosen_core;
    Alcotest.test_case "sweep: override cores, one dead one live" `Quick
      test_sweep_override_cores;
    Alcotest.test_case "sweep: stale site resolves truthful" `Quick
      test_sweep_stale_site;
    Alcotest.test_case "sweep: witnesses in (gid, sender) order" `Quick
      test_sweep_multi_group_order;
    QCheck_alcotest.to_alcotest prop_sweep_matches_reference;
    Alcotest.test_case "sweep: differential oracle is not vacuous" `Quick
      test_sweep_oracle_not_vacuous;
    Alcotest.test_case "header-only interpretation" `Quick
      test_header_pred_walks_the_header;
    Alcotest.test_case "view memo: oracle on a fault stream" `Quick
      test_view_memo_fault_stream;
    Alcotest.test_case "view memo: identity and allocation" `Quick
      test_view_memo_identity_and_allocation;
    Alcotest.test_case "snapshot memo: identity and cached bytes" `Quick
      test_snapshot_memo_identity;
  ]
