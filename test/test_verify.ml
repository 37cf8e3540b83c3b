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

(* A private deep copy of an encoding, for sabotage: a view borrows the
   controller's live encodings, so altering one in place would corrupt the
   controller itself. *)
let private_copy (enc : Encoding.t) =
  Encoding.(of_choices enc.params (Tree.copy enc.tree) (choices enc))

let test_check_config_finds_lost_receiver () =
  let ctrl, _ = mk_ctrl Params.default in
  ignore (Controller.add_group ctrl ~group:0 (both [ 0; 1; h ]));
  let cfg = Controller.installed_config ctrl in
  (* Corrupt a private copy of group 0's encoding: drop host 1's port from
     every leaf-layer rule — the symbolic check must name exactly that
     endpoint. *)
  let corrupt (g : Installed_config.group_view) =
    match g.Installed_config.enc with
    | None -> g
    | Some enc ->
        let enc = private_copy enc in
        List.iter
          (fun (r : Prule.prule) ->
            if Prule.rule_mem r 0 then Bitmap.clear r.Prule.bitmap 1)
          enc.Encoding.d_leaf.Clustering.prules;
        List.iter
          (fun (l, bm) -> if l = 0 then Bitmap.clear bm 1)
          enc.Encoding.d_leaf.Clustering.srules;
        { g with Installed_config.enc = Some enc }
  in
  let cfg =
    Installed_config.with_groups cfg (Array.map corrupt (Installed_config.groups cfg))
  in
  (match Verify.check_config cfg with
  | Ok _ -> Alcotest.fail "corrupted config must fail the check"
  | Error w ->
      Alcotest.(check string) "witness names the lost endpoint" "0/leaf0/1"
        (Format.asprintf "%a" Verify.pp_witness w));
  Alcotest.(check bool) "the sabotage did not reach the controller" true
    (Verify.check_controller ctrl = Ok 1)

let test_snapshot_view_matches_live () =
  let ctrl, _ = mk_ctrl Params.default in
  ignore (Controller.add_group ctrl ~group:3 (both [ 0; (2 * h) + 1; (5 * h) + 5 ]));
  ignore (Controller.fail_spine ctrl 1);
  let ctx = Pred.create_ctx () in
  let live = Controller.installed_config ctrl in
  let snap =
    Controller.installed_config
      (Controller.restore
         (Test_fault.decode_snapshot (Test_fault.snapshot_bytes ctrl)))
  in
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

(* {1 Memoized views and segments}

   [Controller.installed_config] hands out one kept view record per group
   (sorted member and override lists beside the borrowed encoding, in a
   gid-ordered index) and [Controller.write_snapshot] one memoized segment
   per group; only [mark_dirty] marks either stale, so a mutation that
   forgot to mark its group would serve stale lists or stale bytes — and
   the predicate-cache oracle, which trusts [drain_dirty] too, would not
   notice. The oracle compares every view against the live controller's
   own accessors (role host lists and the encoding itself, [==]), and, for
   members and overrides, the header bytes of every (group, sender) of a
   controller restored from the live controller's checkpoint. *)

let render_verdict = function
  | Ok n -> string_of_int n
  | Error w -> Format.asprintf "%a" Verify.pp_witness w

(* The cached check of the controller's fresh view, with the drained
   dirty set, says what a full [check_config] of the same view says: the
   same [Ok n] or the same witness; a passing call counts every group
   once, as a hit or a miss. *)
let check_cached_oracle msg cache ctrl =
  let cfg = Controller.installed_config ctrl in
  let dirty = Controller.drain_dirty ctrl in
  let hits0, misses0 = Verify.cache_stats cache in
  let cached = Verify.check_config_cached cache cfg ~dirty in
  let hits1, misses1 = Verify.cache_stats cache in
  let full = Verify.check_config cfg in
  if not (String.equal (render_verdict cached) (render_verdict full)) then
    Alcotest.failf "%s: cached check %s, full check %s" msg
      (render_verdict cached) (render_verdict full);
  (match cached with
  | Ok n when hits1 - hits0 + (misses1 - misses0) <> n ->
      Alcotest.failf "%s: %d hits + %d misses for %d groups" msg
        (hits1 - hits0) (misses1 - misses0) n
  | Ok _ | Error _ -> ())

let check_view_memo msg ctrl =
  let views = Installed_config.groups (Controller.installed_config ctrl) in
  let gids =
    Array.to_list (Array.map (fun v -> v.Installed_config.gid) views)
  in
  if List.length gids <> Controller.group_count ctrl then
    Alcotest.failf "%s: memoized views list other groups" msg;
  Array.iter
    (fun (v : Installed_config.group_view) ->
      let group = v.Installed_config.gid in
      let same what ok =
        if not ok then
          Alcotest.failf "%s: group %d: memoized view differs in %s" msg group
            what
      in
      let live = Controller.members ctrl ~group in
      let hosts want =
        List.filter_map (fun (h, r) -> if want r then Some h else None) live
        |> List.sort_uniq Int.compare
      in
      same "receivers"
        (List.equal Int.equal (Array.to_list v.Installed_config.receivers)
           (hosts (function
             | Controller.Receiver | Controller.Both -> true
             | Controller.Sender -> false)));
      same "senders"
        (List.equal Int.equal (Array.to_list v.Installed_config.senders)
           (hosts (function
             | Controller.Sender | Controller.Both -> true
             | Controller.Receiver -> false)));
      same "encoding (a view borrows the live one)"
        (v.Installed_config.enc == Controller.encoding ctrl ~group))
    views;
  let restored =
    Controller.restore
      (Test_fault.decode_snapshot (Test_fault.snapshot_bytes ctrl))
  in
  if not (Test_fault.same_state_on_groups restored ctrl gids) then
    Alcotest.failf "%s: restored checkpoint builds other headers" msg

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
     encapsulates and injects exactly the bytes it was given;
   - [Encoding.header_for_sender]'s upstream rules and core rule equal
     [reference_prefix]'s, field by field; senders on one leaf share their
     upstream spine and core rules ([==]), and no two senders share an
     upstream leaf down.
   Given the update a join or leave returned, it also checks the update
   set: sorted, unique, holding the event's host and every sender whose
   [Controller.header] bytes changed. *)

type seen_down = {
  enc : Encoding.t;
  stale : int;  (** fast-path mutations of [enc] when seen *)
  down : Prule.down;
  header : Prule.header;
  bytes : bytes;  (** [header]'s wire when installed *)
  hv : Hypervisor.t;  (** holds [header], never re-installed *)
}

type down_oracle = {
  scratch : Fabric.t;
  seen : (int, seen_down) Hashtbl.t;
  sent : (int * int, bytes option) Hashtbl.t;
      (** (group, sender) -> [Controller.header]'s bytes when last checked *)
}

let down_oracle () =
  { scratch = Fabric.create topo; seen = Hashtbl.create 8; sent = Hashtbl.create 64 }

let same_rules a b = List.equal Prule.equal a b

let same_default a (res : Clustering.result) =
  Option.equal Bitmap.equal a (Option.map snd res.Clustering.default)

(* The reference per-sender prefix: every part built from the live tree on
   every call, with nothing memoized or shared. *)
let reference_prefix (enc : Encoding.t) ~sender =
  let tree = enc.Encoding.tree in
  let sl = Topology.leaf_of_host topo sender in
  let sp = Topology.pod_of_leaf topo sl in
  let other_leaves_in_pod =
    List.exists
      (fun l -> l <> sl && Topology.pod_of_leaf topo l = sp)
      (Tree.leaves tree)
  in
  let other_pods = List.exists (fun p -> p <> sp) (Tree.pods tree) in
  let beyond_leaf = other_leaves_in_pod || other_pods in
  let u_leaf_down =
    match Tree.leaf_bitmap tree sl with
    | None -> Bitmap.create (Topology.leaf_downstream_width topo)
    | Some bm ->
        let bm = Bitmap.copy bm in
        Bitmap.clear bm (Topology.host_port_on_leaf topo sender);
        bm
  in
  let u_leaf =
    {
      Prule.down = u_leaf_down;
      up = Bitmap.create (Topology.leaf_upstream_width topo);
      multipath = beyond_leaf;
    }
  in
  let u_spine =
    if not beyond_leaf then None
    else begin
      let down =
        match Tree.spine_bitmap tree sp with
        | None -> Bitmap.create (Topology.spine_downstream_width topo)
        | Some bm ->
            let bm = Bitmap.copy bm in
            Bitmap.clear bm (Topology.leaf_port_on_spine topo sl);
            bm
      in
      Some
        {
          Prule.down;
          up = Bitmap.create (Topology.spine_upstream_width topo);
          multipath = other_pods;
        }
    end
  in
  let core =
    if not other_pods then None
    else begin
      let bm = Bitmap.copy tree.Tree.core_bitmap in
      Bitmap.clear bm sp;
      Some bm
    end
  in
  (u_leaf, u_spine, core)

let same_uprule (a : Prule.uprule) (b : Prule.uprule) =
  Bitmap.equal a.Prule.down b.Prule.down
  && Bitmap.equal a.Prule.up b.Prule.up
  && Bool.equal a.Prule.multipath b.Prule.multipath

(* Each sender's prefix against the reference, and the sharing contract
   between the headers of [senders]. *)
let check_prefixes msg ~group enc senders =
  let fail fmt = Alcotest.failf ("%s: group %d: " ^^ fmt) msg group in
  let headers =
    List.map (fun s -> (s, Encoding.header_for_sender enc ~sender:s)) senders
  in
  List.iter
    (fun (s, (h : Prule.header)) ->
      let u_leaf, u_spine, core = reference_prefix enc ~sender:s in
      if not (same_uprule h.Prule.u_leaf u_leaf) then
        fail "sender %d: upstream leaf rule differs from the reference" s;
      if not (Option.equal same_uprule h.Prule.u_spine u_spine) then
        fail "sender %d: upstream spine rule differs from the reference" s;
      if not (Option.equal Bitmap.equal h.Prule.core core) then
        fail "sender %d: core rule differs from the reference" s;
      let leaf = Topology.leaf_of_host topo s in
      List.iter
        (fun (s', (h' : Prule.header)) ->
          if s <> s' then begin
            if h.Prule.u_leaf.Prule.down == h'.Prule.u_leaf.Prule.down then
              fail "senders %d and %d share an upstream leaf down" s s';
            if
              Topology.leaf_of_host topo s' = leaf
              && not
                   (h.Prule.u_spine == h'.Prule.u_spine
                   && h.Prule.core == h'.Prule.core)
            then fail "senders %d and %d on one leaf do not share their upper rules" s s'
          end)
        headers)
    headers

let group_senders ctrl ~group =
  List.filter_map
    (fun (h, r) ->
      match r with
      | Controller.Sender | Controller.Both -> Some h
      | Controller.Receiver -> None)
    (Controller.members ctrl ~group)

let sent_bytes ctrl ~group ~sender =
  Option.map (Header_codec.encode topo) (Controller.header ctrl ~group ~sender)

(* The update a join or leave of [host] returned, against the bytes each
   sender's header had before it. *)
let check_update_set oracle msg ctrl ~group ~host (u : Controller.updates) =
  let fail fmt = Alcotest.failf ("%s: group %d: " ^^ fmt) msg group in
  let hyp = u.Controller.hypervisors in
  if not (List.equal Int.equal (List.sort_uniq Int.compare hyp) hyp) then
    fail "the update set is not sorted and unique";
  if not (List.mem host hyp) then fail "the update set misses the event's host %d" host;
  List.iter
    (fun s ->
      let before = Hashtbl.find_opt oracle.sent (group, s) in
      let now = sent_bytes ctrl ~group ~sender:s in
      if
        not (Option.equal (Option.equal Bytes.equal) before (Some now))
        && not (List.mem s hyp)
      then fail "sender %d's header changed but the update set misses it" s)
    (group_senders ctrl ~group)

let record_sent oracle ctrl ~group =
  Hashtbl.filter_map_inplace
    (fun (g, _) b -> if g = group then None else Some b)
    oracle.sent;
  List.iter
    (fun s ->
      Hashtbl.replace oracle.sent (group, s) (sent_bytes ctrl ~group ~sender:s))
    (group_senders ctrl ~group)

let check_shared_down ?event oracle msg ctrl ~groups =
  (match event with
  | None -> ()
  | Some (group, host, u) -> check_update_set oracle msg ctrl ~group ~host u);
  List.iter
    (fun group ->
      record_sent oracle ctrl ~group;
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
      | Some enc, (first, _) :: _ ->
          let senders = group_senders ctrl ~group in
          check_prefixes msg ~group enc senders;
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

(* Every s-rule of every installed encoding sits in the fabric as an equal
   bitmap of the fabric's own, never the controller's object, unless the
   site is stale-marked (its entry is a compensation, reconciled later). *)
let check_fabric_owns_srules msg ctrl fabric =
  let view = Controller.installed_config ctrl in
  Array.iter
    (fun (v : Installed_config.group_view) ->
      let group = v.Installed_config.gid in
      let check site bm entry =
        if not (Installed_config.is_stale view ~group site) then
          match entry with
          | Some e when e == bm ->
              Alcotest.failf "%s: group %d: the fabric holds the controller's bitmap"
                msg group
          | Some e when Bitmap.equal e bm -> ()
          | Some _ | None ->
              Alcotest.failf "%s: group %d: an installed s-rule differs from the fabric's"
                msg group
      in
      match v.Installed_config.enc with
      | None -> ()
      | Some enc ->
          List.iter
            (fun (leaf, bm) ->
              check (Srule_state.Leaf leaf) bm (Fabric.leaf_srule fabric ~leaf ~group))
            enc.Encoding.d_leaf.Clustering.srules;
          List.iter
            (fun (pod, bm) ->
              check (Srule_state.Pod pod) bm (Fabric.pod_srule fabric ~pod ~group))
            enc.Encoding.d_spine.Clustering.srules)
    (Installed_config.groups view)

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
  let fabric = Fabric.create topo in
  let fault = Fault.create ~schedule:(Fault.Scripted script) fabric in
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
  let cache = Verify.create_cache () in
  check_cached_oracle (Printf.sprintf "seed %d setup" seed) cache ctrl;
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
  (* A controller restored from the live one's checkpoint (again every 20
     events) replays each event as a journal op: its memo starts as the
     segments it was decoded from, and replay evicts what it touches. *)
  let restore_twin () =
    Controller.restore (Test_fault.decode_snapshot (Test_fault.snapshot_bytes ctrl))
  in
  let twin = ref (restore_twin ()) in
  let mirror op = Journal.apply !twin op in
  for ev = 1 to events do
    let event = ref None in
    (match Rng.int rng 10 with
    | 0 ->
        let s = Rng.int rng spines in
        if spine_ok.(s) then begin
          ignore (Controller.fail_spine ctrl s);
          mirror (Journal.Fail_spine s)
        end
        else begin
          ignore (Controller.recover_spine ctrl s);
          mirror (Journal.Recover_spine s)
        end;
        spine_ok.(s) <- not spine_ok.(s)
    | 1 ->
        let c = Rng.int rng cores in
        if core_ok.(c) then begin
          ignore (Controller.fail_core ctrl c);
          mirror (Journal.Fail_core c)
        end
        else begin
          ignore (Controller.recover_core ctrl c);
          mirror (Journal.Recover_core c)
        end;
        core_ok.(c) <- not core_ok.(c)
    | 2 ->
        let leaf = Rng.int rng leaves and plane = Rng.int rng planes in
        let i = (leaf * planes) + plane in
        if link_ok.(i) then begin
          ignore (Controller.fail_link ctrl ~leaf ~plane);
          mirror (Journal.Fail_link { leaf; plane })
        end
        else begin
          ignore (Controller.recover_link ctrl ~leaf ~plane);
          mirror (Journal.Recover_link { leaf; plane })
        end;
        link_ok.(i) <- not link_ok.(i)
    | 3 ->
        wedged := not !wedged;
        Fault.wedge_leaf fault 0 !wedged
    | 4 ->
        let group = Rng.int rng groups in
        let members = random_members () in
        ignore (Controller.remove_group ctrl ~group);
        ignore (Controller.add_group ctrl ~group members);
        mirror (Journal.Remove_group { group });
        mirror (Journal.Add_group { group; members })
    | _ -> (
        let group = Rng.int rng groups in
        let members = Controller.members ctrl ~group in
        let host = Rng.int rng n in
        match List.assoc_opt host members with
        | Some _ when List.length members > 1 ->
            event := Some (group, host, Controller.leave ctrl ~group ~host);
            mirror (Journal.Leave { group; host })
        | Some _ -> ()
        | None ->
            let role = roles.(Rng.int rng 3) in
            event := Some (group, host, Controller.join ctrl ~group ~host ~role);
            mirror (Journal.Join { group; host; role })));
    let msg = Printf.sprintf "seed %d event %d" seed ev in
    ignore (Test_fault.check_segment_memo (msg ^ ", restored twin") !twin : int);
    ignore (Test_fault.check_segment_memo msg ctrl : int);
    if ev mod 20 = 0 then twin := restore_twin ();
    check_view_memo (Printf.sprintf "seed %d event %d" seed ev) ctrl;
    check_fabric_owns_srules msg ctrl fabric;
    check_cached_oracle (Printf.sprintf "seed %d event %d" seed ev) cache ctrl;
    check_shared_down ?event:!event downs (Printf.sprintf "seed %d event %d" seed ev)
      ctrl ~groups:all_groups;
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

(* A stale marker outlives its event only when a timeout burst exhausts a
   removal and still runs when the event's reconcile retries it. Read-backs
   are honest, so a burst's first timeouts mostly go to an install (a
   fast-path mirror included) whose exhaustion denies its leaf, and the
   re-encode's removals take the rest: the reconcile after them usually
   succeeds. At 300 events two seeds of the eight keep a marker live past
   an event (seeds 2 and 8); at 80 none did. *)
let test_view_memo_fault_stream () =
  let runs =
    List.map
      (fun seed -> view_memo_fault_stream ~seed ~events:300)
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  let any f = List.exists f runs in
  Alcotest.(check bool) "stale markers were live" true (any (fun (s, _, _) -> s));
  Alcotest.(check bool) "failures were live" true (any (fun (_, f, _) -> f));
  Alcotest.(check bool) "a leaf was denied" true (any (fun (_, _, d) -> d))

(* Clean groups keep their record across calls; a join rebuilds only its
   own group's record; a clean re-view allocates a few words per group; a
   restored controller starts with nothing memoized. *)
(* The health and denial flags a view carries: one copy, shared by the
   views taken while no flag changes; a failure, a recovery or a denial
   gives the next view a new copy and leaves every earlier view as it
   was. *)
let test_view_flags_shared_until_changed () =
  let ctrl, _, fault, leaf, host = Test_fault.srule_leaf_setup Fault.Reliable in
  let view () = Controller.installed_config ctrl in
  let v1 = view () in
  let v2 = view () in
  let flags (v : Installed_config.t) =
    Installed_config.[ v.spine_ok; v.core_ok; v.link_ok; v.denied_leaf; v.denied_pod ]
  in
  Alcotest.(check bool) "no change: every flag array shared" true
    (List.for_all2 ( == ) (flags v1) (flags v2));
  ignore (Controller.fail_spine ctrl 0);
  let v3 = view () in
  Alcotest.(check bool) "the failure shows in the next view" false
    v3.Installed_config.spine_ok.(0);
  Alcotest.(check bool) "an earlier view keeps its flags" true
    v1.Installed_config.spine_ok.(0);
  ignore (Controller.recover_spine ctrl 0);
  Alcotest.(check bool) "the recovery shows in the next view" true
    (view ()).Installed_config.spine_ok.(0);
  Alcotest.(check bool) "the failed view keeps its flags" false
    v3.Installed_config.spine_ok.(0);
  Fault.wedge_leaf fault leaf true;
  ignore (Controller.join ctrl ~group:1 ~host ~role:Controller.Both);
  Alcotest.(check bool) "the denial shows in the next view" true
    (view ()).Installed_config.denied_leaf.(leaf);
  Alcotest.(check bool) "an earlier view keeps its denials" false
    v1.Installed_config.denied_leaf.(leaf)

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
    (Array.for_all2 ( == ) (Installed_config.groups v1) (Installed_config.groups v2));
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
        (g == (Installed_config.groups v2).(i)))
    (Installed_config.groups v3);
  let report =
    Allocs.probe ~warmup:1 ~events:1 (fun _ ->
        ignore (Sys.opaque_identity (Controller.installed_config ctrl)))
  in
  let per_group = report.Allocs.total_words /. float_of_int groups in
  if per_group >= 50.0 then
    Alcotest.failf "clean re-view allocated %.1f minor words per group"
      per_group;
  let restored =
    Controller.restore
      (Test_fault.decode_snapshot (Test_fault.snapshot_bytes ctrl))
  in
  Alcotest.(check int) "restored controller: empty memo" 0
    (Controller.memoized_views restored);
  Alcotest.(check bool) "restored views are the restored controller's own" true
    (Array.for_all2 ( != )
       (Installed_config.groups (Controller.installed_config restored))
       (Installed_config.groups v3))

(* Churn mixed with group additions and removals, and now and then a
   controller restored from the live one's checkpoint (its views come
   from another generation counter, so the cache must walk them whole).
   After every event: the cached verdict equals a full check of the same
   view; a clean re-check on the same controller re-checks exactly the
   dirty groups the view lists; and every view taken so far still holds
   the very records it was handed, although the index behind it moved
   on. *)
let view_index_churn ~seed ~events =
  let rng = Rng.create seed in
  let n = Topology.num_hosts topo in
  let roles = [| Controller.Sender; Controller.Receiver; Controller.Both |] in
  let random_members () =
    List.init (2 + Rng.int rng 8) (fun _ -> Rng.int rng n)
    |> List.sort_uniq Int.compare
    |> List.map (fun host -> (host, roles.(Rng.int rng 3)))
  in
  let ctrl = ref (Controller.create topo Params.default) in
  let next_gid = ref 0 in
  let add () =
    ignore (Controller.add_group !ctrl ~group:!next_gid (random_members ()));
    incr next_gid
  in
  for _ = 1 to 24 do
    add ()
  done;
  let cache = Verify.create_cache () in
  let held = ref [] and restores = ref 0 and regroups = ref 0 in
  for ev = 1 to events do
    let msg = Printf.sprintf "seed %d event %d" seed ev in
    let gids = Installed_config.group_ids (Controller.installed_config !ctrl) in
    let pick () = List.nth gids (Rng.int rng (List.length gids)) in
    let restored = ref false in
    (match Rng.int rng 12 with
    | 0 ->
        add ();
        incr regroups
    | 1 when List.length gids > 8 ->
        ignore (Controller.remove_group !ctrl ~group:(pick ()));
        incr regroups
    | 2 ->
        let group = pick () in
        ignore (Controller.remove_group !ctrl ~group);
        ignore (Controller.add_group !ctrl ~group (random_members ()));
        incr regroups
    | 3 ->
        ctrl :=
          Controller.restore
            (Test_fault.decode_snapshot (Test_fault.snapshot_bytes !ctrl));
        restored := true;
        incr restores
    | _ -> (
        let group = pick () in
        let members = Controller.members !ctrl ~group in
        let host = Rng.int rng n in
        match List.assoc_opt host members with
        | Some _ when List.length members > 1 ->
            ignore (Controller.leave !ctrl ~group ~host)
        | Some _ -> ()
        | None ->
            ignore
              (Controller.join !ctrl ~group ~host ~role:roles.(Rng.int rng 3))));
    let before = Verify.cache_stats cache in
    let cfg = Controller.installed_config !ctrl in
    let dirty = Controller.drain_dirty !ctrl in
    let listed =
      List.length
        (List.filter (fun gid -> Option.is_some (Installed_config.group cfg gid)) dirty)
    in
    (* A restored controller's own dirty set names every group; handing
       over none shows that the cache still trusts nothing it passed on
       another controller. *)
    let cached =
      Verify.check_config_cached cache cfg ~dirty:(if !restored then [] else dirty)
    in
    let full = Verify.check_config cfg in
    if not (String.equal (render_verdict cached) (render_verdict full)) then
      Alcotest.failf "%s: cached check %s, full check %s" msg
        (render_verdict cached) (render_verdict full);
    let groups = Array.length (Installed_config.groups cfg) in
    let hits, misses = Verify.cache_stats cache in
    let hits = hits - fst before and misses = misses - snd before in
    let want = if !restored then (0, groups) else (groups - listed, listed) in
    if (hits, misses) <> want then
      Alcotest.failf "%s: %d hits / %d misses, want %d / %d" msg hits misses
        (fst want) (snd want);
    held :=
      (msg, cfg, Array.init (Installed_config.count cfg) (Installed_config.nth cfg))
      :: !held;
    List.iter
      (fun (at, (v : Installed_config.t), records) ->
        let same i r =
          r == Installed_config.nth v i
          &&
          match Installed_config.group v r.Installed_config.gid with
          | Some g -> g == r
          | None -> false
        in
        if
          not
            (Array.for_all2 ( == ) (Installed_config.groups v) records
            && Array.for_all Fun.id (Array.mapi same records))
        then Alcotest.failf "%s: the view taken at %s changed" msg at)
      !held
  done;
  (* A fresh cache trusts nothing: even with nothing dirty it checks every
     group. *)
  let cfg = Controller.installed_config !ctrl in
  let fresh = Verify.create_cache () in
  let groups = Array.length (Installed_config.groups cfg) in
  Alcotest.(check string)
    (Printf.sprintf "seed %d: fresh cache verdict" seed)
    (render_verdict (Verify.check_config cfg))
    (render_verdict (Verify.check_config_cached fresh cfg ~dirty:[]));
  Alcotest.(check (pair int int))
    (Printf.sprintf "seed %d: fresh cache checks every group" seed)
    (0, groups) (Verify.cache_stats fresh);
  (!restores, !regroups)

let test_view_index_churn () =
  let runs =
    List.map (fun seed -> view_index_churn ~seed ~events:120) [ 1; 2; 3; 4 ]
  in
  Alcotest.(check bool) "restores were live" true
    (List.exists (fun (r, _) -> r > 0) runs);
  Alcotest.(check bool) "group-set changes were live" true
    (List.exists (fun (_, g) -> g > 0) runs)

(* The cached check's dirty-only walk returns the full walk's witness:
   that of the smallest failing gid. Two dirty groups are sabotaged (in
   private copies, in a view that shares the controller's generation, so
   the cache takes its dirty-only path) and the dirty list is handed over
   unsorted. The walk stops at the first: the groups before it count as
   hits, the two dirty ones up to it as misses. The next call walks whole,
   since a group failed. *)
let test_verify_cache_dirty_witness () =
  let ctrl, _ = mk_ctrl Params.default in
  let members g = [ g mod h; h + (g mod h); (3 * h) + (g mod h) ] in
  for group = 0 to 9 do
    ignore (Controller.add_group ctrl ~group (both (members group)))
  done;
  let cache = Verify.create_cache () in
  ignore (Verify.check_controller_cached cache ctrl);
  Alcotest.(check (pair int int)) "cold: every group re-checked" (0, 10)
    (Verify.cache_stats cache);
  let joined = [ 4; 7 ] in
  List.iter
    (fun group ->
      ignore (Controller.join ctrl ~group ~host:((6 * h) + group) ~role:Controller.Both))
    joined;
  let cfg = Controller.installed_config ctrl in
  let dirty = Controller.drain_dirty ctrl in
  Alcotest.(check (list int)) "the joins dirtied their groups" joined dirty;
  let sabotage (g : Installed_config.group_view) =
    if not (List.mem g.Installed_config.gid joined) then g
    else
      let enc = private_copy (Option.get g.Installed_config.enc) in
      let host = (6 * h) + g.Installed_config.gid in
      let leaf = Topology.leaf_of_host topo host
      and port = Topology.host_port_on_leaf topo host in
      let layer = enc.Encoding.d_leaf in
      List.iter
        (fun (r : Prule.prule) ->
          if Prule.rule_mem r leaf then Bitmap.clear r.Prule.bitmap port)
        layer.Clustering.prules;
      List.iter
        (fun (l, bm) -> if l = leaf then Bitmap.clear bm port)
        layer.Clustering.srules;
      (match layer.Clustering.default with
      | Some (_, bm) -> Bitmap.clear bm port
      | None -> ());
      { g with Installed_config.enc = Some enc }
  in
  let bad =
    Installed_config.with_groups cfg (Array.map sabotage (Installed_config.groups cfg))
  in
  let full = Verify.check_config bad in
  Alcotest.(check string) "the full walk names group 4" "4/leaf6/4"
    (render_verdict full);
  Alcotest.(check string) "the dirty-only walk names the same witness"
    (render_verdict full)
    (render_verdict (Verify.check_config_cached cache bad ~dirty:(List.rev dirty)));
  Alcotest.(check (pair int int)) "one event: hits before the witness, misses up to it"
    (4, 11) (Verify.cache_stats cache);
  Alcotest.(check bool) "the failing group left the cache" false
    (Verify.is_cached cache 4);
  Alcotest.(check string) "after a failure the next call walks every group" "10"
    (render_verdict (Verify.check_config_cached cache cfg ~dirty:[]));
  Alcotest.(check (pair int int)) "the walk re-checks groups 4 and 7 only" (12, 13)
    (Verify.cache_stats cache);
  (* A dirty list that misses a new group does not add up to the view: the
     cache drops what it passed and walks every group. *)
  ignore (Controller.add_group ctrl ~group:10 (both (members 10)));
  Alcotest.(check string) "a short dirty list: every group checked" "11"
    (render_verdict
       (Verify.check_config_cached cache (Controller.installed_config ctrl) ~dirty:[]));
  Alcotest.(check (pair int int)) "eleven re-checks" (12, 24) (Verify.cache_stats cache)

(* A view borrows the controller's encodings, so it is read before the
   next mutation: after a join, every [Verify] entry point refuses the
   old view, while a fresh one checks clean. A view built by hand has no
   controller behind it and never goes stale; its groups come from a
   restored twin, so no later mutation reaches their encodings. *)
let test_stale_view_raises () =
  let ctrl, _ = mk_ctrl Params.default in
  ignore (Controller.add_group ctrl ~group:0 (both [ 0; 1; h ]));
  ignore (Controller.add_group ctrl ~group:1 (both [ 2; 3 ]));
  let old = Controller.installed_config ctrl in
  let twin = Test_fault.(decode_snapshot (snapshot_bytes ctrl)) in
  let hand =
    Installed_config.groups Controller.(installed_config (restore twin))
    |> Array.to_list |> Installed_config.make topo Params.default
  in
  ignore (Controller.join ctrl ~group:1 ~host:(2 * h) ~role:Controller.Both);
  let ctx = Pred.create_ctx () and cache = Verify.create_cache () in
  List.iter
    (fun (name, f) ->
      match f () with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "%s accepted a view older than its controller" name)
    [
      ("check_config", fun () -> ignore (Verify.check_config old));
      ("cached", fun () -> ignore (Verify.check_config_cached cache old ~dirty:[]));
      ("sender_blackholes", fun () -> ignore (Verify.sender_blackholes old));
      ("compile", fun () -> ignore (Verify.compile ctx old ~group:0));
      ( "compile_sender",
        fun () -> ignore (Verify.compile_sender ctx old ~group:0 ~sender:0) );
    ];
  let checked cfg = Result.value (Verify.check_config cfg) ~default:(-1) in
  Alcotest.(check int) "a fresh view checks clean" 2
    (checked (Controller.installed_config ctrl));
  ignore (Controller.leave ctrl ~group:0 ~host:1);
  Alcotest.(check int) "a hand-made view never goes stale" 2 (checked hand)

(* The same for checkpoint segments: a clean re-write gives the same
   bytes; after a join, the cached segments of the untouched groups write
   the bytes of every segment encoded afresh; a restored controller starts
   with no view memoized and every segment it was decoded from. *)
let test_segment_memo_cached_bytes () =
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
  let cold = Test_fault.snapshot_bytes ctrl in
  Alcotest.(check bool) "clean re-write: the same bytes" true
    (Bytes.equal cold (Test_fault.snapshot_bytes ctrl));
  ignore (Controller.installed_config ctrl);
  let joined = 17 in
  let members = Controller.members ctrl ~group:joined in
  let host =
    List.find (fun x -> not (List.mem_assoc x members)) (List.init n Fun.id)
  in
  ignore (Controller.join ctrl ~group:joined ~host ~role:Controller.Receiver);
  Alcotest.(check int) "the join evicted one view" (groups - 1)
    (Controller.memoized_views ctrl);
  let cached = Test_fault.snapshot_bytes ctrl in
  Alcotest.(check bool) "the join changed the checkpoint" false
    (Bytes.equal cold cached);
  Alcotest.(check bool) "cached segments write a cold controller's bytes" true
    (Bytes.equal cached (Test_fault.cold_snapshot_bytes ctrl));
  let restored = Controller.restore (Test_fault.decode_snapshot cached) in
  Alcotest.(check int) "restored controller: no view memoized" 0
    (Controller.memoized_views restored);
  Alcotest.(check int) "restored controller: every decoded segment memoized"
    groups
    (Test_fault.check_segment_memo "restored" restored);
  Alcotest.(check bool) "restored segments write the checkpoint's bytes" true
    (Bytes.equal cached (Test_fault.snapshot_bytes restored))

(* {1 Symbolic walk vs. packet injection} *)

(* Random membership + random health + every member as sender: the
   endpoints of [compile_sender] must equal the delivered-host set of a
   real [Fabric.inject] of the controller's own header, whenever the
   controller still has a multicast path. Fabric and controller health are
   flipped in lockstep, as the control plane does. *)
let gen_scenario_on topo =
  QCheck.Gen.(
    let hosts = Topology.num_hosts topo in
    triple
      (list_size (int_range 2 12) (int_range 0 (hosts - 1)))
      (list_size (int_range 0 4) (int_range 0 (Topology.num_spines topo - 1)))
      (list_size (int_range 0 6)
         (pair
            (int_range 0 (Topology.num_leaves topo - 1))
            (int_range 0 (topo.Topology.spines_per_pod - 1)))))

let gen_scenario = gen_scenario_on topo

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

   [Verify.sender_blackholes] decides each sender on the leaf sets its
   group's route parts reach; the reference below interns one
   [compile_sender] and one [receiver_endpoints] predicate per (group,
   sender), in ascending gid and then sender order, and keeps the first
   missing edge of each. The two must agree witness for witness. *)

let reference_blackholes cfg =
  let ctx = Pred.create_ctx () in
  Installed_config.group_ids cfg
  |> List.concat_map (fun group ->
         let g = Option.get (Installed_config.group cfg group) in
         List.sort_uniq Int.compare (Array.to_list g.Installed_config.senders)
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
    (List.map edit (Array.to_list (Installed_config.groups cfg)))

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

(* {2 The leaf-set test's failure paths}

   The sweep passes a sender on leaf [sl] when [sl]'s tree bitmap holds
   every receiver port on it, no other leaf's assignment misses one, and
   the sender's parts reach every other receiver leaf. Each case below
   fails one of the three, or reaches a leaf on one plane only. The
   edits put fresh bitmaps in fresh records, so the tree and the rules,
   which can share a bitmap, are sabotaged one at a time. *)

let without port bm =
  let bm = Bitmap.copy bm in
  Bitmap.clear bm port;
  bm

let edit_enc ~group f (g : Installed_config.group_view) =
  match g.Installed_config.enc with
  | Some enc when g.Installed_config.gid = group ->
      { g with Installed_config.enc = Some (f enc) }
  | Some _ | None -> g

(* [port] cleared from leaf [leaf]'s tree bitmap; its rules keep it. *)
let drop_tree_port ~group ~leaf port =
  edit_enc ~group (fun enc ->
      let tree = enc.Encoding.tree in
      let leaf_bms =
        Array.mapi
          (fun s bm -> if tree.Tree.leaf_ids.(s) = leaf then without port bm else bm)
          tree.Tree.leaf_bms
      in
      { enc with Encoding.tree = { tree with Tree.leaf_bms } })

(* [port] cleared from every rule of [site]'s layer that can assign the
   switch: its p-rules, its s-rule and the default. *)
let drop_assigned_port ~group site port =
  edit_enc ~group (fun enc ->
      let drop (layer : Clustering.result) id =
        {
          Clustering.prules =
            List.map
              (fun (r : Prule.prule) ->
                if Prule.rule_mem r id then
                  { r with Prule.bitmap = without port r.Prule.bitmap }
                else r)
              layer.Clustering.prules;
          srules =
            List.map
              (fun (i, bm) -> (i, if i = id then without port bm else bm))
              layer.Clustering.srules;
          default =
            Option.map
              (fun (ids, bm) -> (ids, without port bm))
              layer.Clustering.default;
        }
      in
      match site with
      | Srule_state.Leaf l -> { enc with Encoding.d_leaf = drop enc.Encoding.d_leaf l }
      | Srule_state.Pod p ->
          { enc with Encoding.d_spine = drop enc.Encoding.d_spine p })

(* Hosts 0, 1 and 2 share leaf 0; host 1's port leaves the tree's leaf
   bitmap but not the leaf's rules. Senders 0 and 2 lose host 1; sender 1
   owes itself nothing, and sender [h] reaches it through leaf 0's rules. *)
let test_sweep_local_bad_leaf () =
  let groups = [ (0, both [ 0; 1; 2; h ]) ] in
  check_sweep "healthy" [] (view groups);
  check_sweep "receiver outside the sender leaf's tree bitmap"
    [ "0/leaf0/1"; "0/leaf0/1" ]
    (view ~edit:(drop_tree_port ~group:0 ~leaf:0 1) groups)

(* Host 1's port leaves leaf 0's rules but not its tree bitmap: the
   co-located senders 0 and 1 still cover it, sender [h] does not, unless
   it is degraded to unicast. *)
let test_sweep_bad_own_leaf () =
  let groups = [ (0, both [ 0; 1; h ]) ] in
  let edit = drop_assigned_port ~group:0 (Srule_state.Leaf 0) 1 in
  check_sweep "only the sender's own leaf is bad" [ "0/leaf0/1" ]
    (view ~edit groups);
  let unicast =
    {
      Installed_config.up_leaf_ports =
        Bitmap.create topo.Topology.spines_per_pod;
      up_spine_ports = None;
      unicast = true;
    }
  in
  check_sweep "the remote sender degraded to unicast" []
    (view ~edit:(fun g -> g |> edit |> with_overrides [ (h, unicast) ]) groups)

(* Sender 0 climbs on both planes of pod 0; receivers 8 and 9 sit on leaf
   1 of the same pod. A dead leaf-1 link on either plane alone leaves the
   other plane's spine to reach it. *)
let test_sweep_one_plane_reaches () =
  let up_leaf_ports = Bitmap.create topo.Topology.spines_per_pod in
  List.iter (Bitmap.set up_leaf_ports) [ 0; 1 ];
  let ov =
    { Installed_config.up_leaf_ports; up_spine_ports = None; unicast = false }
  in
  let groups = [ (0, senders [ 0 ] @ receivers [ h; h + 1 ]) ] in
  let edit = with_overrides [ (0, ov) ] in
  check_sweep "plane 0's link dead: plane 1 reaches" []
    (view ~edit ~dead_links:[ (1, 0) ] groups);
  check_sweep "plane 1's link dead: plane 0 reaches" []
    (view ~edit ~dead_links:[ (1, 1) ] groups);
  check_sweep "both dead" [ "0/leaf1/0" ]
    (view ~edit ~dead_links:[ (1, 0); (1, 1) ] groups)

(* Receivers on leaves 2 and 3 (pod 1), pod 1's spine assignment without
   leaf 3's port. Sender 0 (pod 0) goes through that assignment and
   misses leaf 3; sender [2h + 1] stays in pod 1, where the tree's own
   spine bitmap routes. *)
let test_sweep_remote_pod_omits_leaf () =
  let groups = [ (0, senders [ 0; (2 * h) + 1 ] @ receivers [ 2 * h; 3 * h ]) ] in
  check_sweep "healthy" [] (view groups);
  check_sweep "remote spine assignment omits a tree leaf" [ "0/leaf3/0" ]
    (view ~edit:(drop_assigned_port ~group:0 (Srule_state.Pod 1) 1) groups)

(* Random views on the running example or, for [single_pod], a two-tier
   leaf-spine fabric (no cross-pod reachability): up to three groups
   (reusing [gen_scenario_on]) with mixed roles, their spine and link
   failures plus core failures applied through the controller (which
   installs overrides and unicast degrades), then optionally one core
   failed in the view only (one the controller has not routed around), up
   to two sabotages of a group's encoding (each in a copy; two can hit
   different pods, layers or groups) and one tree site marked stale. *)
type sabotage =
  | Reset_site of int  (** an s-rule or default bitmap emptied *)
  | Clear_prule_bit of int * int
      (** one set bit cleared in a p-rule bitmap: (p-rule, set bit) *)
  | Clear_tree_bit of int * int
      (** one set bit cleared in the core, a spine or a leaf bitmap of the
          encoding's tree: (bitmap, set bit) *)
  | Drop_enc  (** the encoding removed, the receivers kept *)

type sweep_case = {
  single_pod : bool;
  scenarios : (int list * int list * (int * int) list) list;
  dead_cores : int list;
  unseen_core : int option;
  sabotage : (int * sabotage) list;  (* group index, what *)
  stale : (int * int) option;  (* group index, tree site index *)
  tight : bool;
}

let single_pod_topo = Topology.leaf_spine ~leaves:4 ~spines:2 ~hosts_per_leaf:8
let sweep_topo ~single_pod = if single_pod then single_pod_topo else topo

let gen_sabotage =
  QCheck.Gen.(
    oneof
      [
        map (fun j -> Reset_site j) nat;
        map2 (fun j b -> Clear_prule_bit (j, b)) nat nat;
        map2 (fun j b -> Clear_tree_bit (j, b)) nat nat;
        return Drop_enc;
      ])

let gen_sweep_case =
  QCheck.Gen.(
    bool >>= fun single_pod ->
    let t = sweep_topo ~single_pod in
    let cores =
      match Topology.num_cores t with
      | 0 -> return ([], None)
      | n ->
          let core = int_range 0 (n - 1) in
          pair (list_size (int_range 0 3) core) (opt core)
    in
    map
      (fun ((scenarios, (dead_cores, unseen_core)), (sabotage, stale, tight)) ->
        { single_pod; scenarios; dead_cores; unseen_core; sabotage; stale; tight })
      (pair
         (pair (list_size (int_range 1 3) (gen_scenario_on t)) cores)
         (triple
            (list_size (int_range 0 2) (pair nat gen_sabotage))
            (opt (pair nat nat)) bool)))

let print_sweep_case c =
  let ints l = String.concat ";" (List.map string_of_int l) in
  let opt = function
    | None -> "-"
    | Some (a, b) -> Printf.sprintf "%d.%d" a b
  in
  let sabotage (i, what) =
    match what with
    | Reset_site j -> Printf.sprintf "%d.reset %d" i j
    | Clear_prule_bit (j, b) -> Printf.sprintf "%d.prule %d bit %d" i j b
    | Clear_tree_bit (j, b) -> Printf.sprintf "%d.tree %d bit %d" i j b
    | Drop_enc -> Printf.sprintf "%d.drop_enc" i
  in
  let scenario =
    QCheck.Print.(triple (list int) (list int) (list (pair int int)))
  in
  Printf.sprintf
    "single_pod=%b %s cores=[%s] unseen_core=%s sabotage=[%s] stale=%s tight=%b"
    c.single_pod
    (String.concat " " (List.map scenario c.scenarios))
    (ints c.dead_cores)
    (Option.fold ~none:"-" ~some:string_of_int c.unseen_core)
    (String.concat ";" (List.map sabotage c.sabotage))
    (opt c.stale) c.tight

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

let prule_bitmaps (enc : Encoding.t) =
  List.map
    (fun (r : Prule.prule) -> r.Prule.bitmap)
    (enc.Encoding.d_leaf.Clustering.prules @ enc.Encoding.d_spine.Clustering.prules)

let tree_bitmaps (enc : Encoding.t) =
  let tree = enc.Encoding.tree in
  (tree.Tree.core_bitmap :: Array.to_list tree.Tree.spine_bms)
  @ Array.to_list tree.Tree.leaf_bms

let tree_sites (enc : Encoding.t) =
  let tree = enc.Encoding.tree in
  List.map (fun l -> Srule_state.Leaf l) (Tree.leaves tree)
  @ List.map (fun p -> Srule_state.Pod p) (Tree.pods tree)

(* Clears the [b]-th set bit (modulo the set count) of the [j]-th bitmap
   (modulo the count); a no-op on no bitmaps or an empty one. *)
let clear_set_bit bms (j, b) =
  match bms with
  | [] -> ()
  | bms -> (
      let bm = List.nth bms (j mod List.length bms) in
      match Bitmap.to_list bm with
      | [] -> ()
      | set -> Bitmap.clear bm (List.nth set (b mod List.length set)))

let sweep_case_view c =
  let topo = sweep_topo ~single_pod:c.single_pod in
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
  let groups = Array.copy (Installed_config.groups cfg) in
  let pick k f =
    if Array.length groups > 0 then
      let i = k mod Array.length groups in
      match groups.(i).Installed_config.enc with
      | Some enc -> f i enc
      | None -> ()
  in
  List.iter
    (fun (k, what) ->
      pick k (fun i enc ->
          let enc = private_copy enc in
          let enc =
            match what with
            | Reset_site j ->
                (match site_bitmaps enc with
                | [] -> ()
                | bms -> Bitmap.reset (List.nth bms (j mod List.length bms)));
                Some enc
            | Clear_prule_bit (j, b) ->
                clear_set_bit (prule_bitmaps enc) (j, b);
                Some enc
            | Clear_tree_bit (j, b) ->
                clear_set_bit (tree_bitmaps enc) (j, b);
                Some enc
            | Drop_enc -> None
          in
          groups.(i) <- { (groups.(i)) with Installed_config.enc }))
    c.sabotage;
  let stale = ref (Array.to_list cfg.Installed_config.stale_sites) in
  Option.iter
    (fun (k, j) ->
      pick k (fun i enc ->
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

(* {1 check_config vs. the predicate fold}

   [Verify.check_config] walks each group's spec edges and keeps the
   smallest uncovered one; the reference interns [compile] and [intent]
   per group, in ascending gid order, and stops at the first [check_equiv]
   error. The two must give the same [Ok n] or the same witness. *)

let reference_check cfg =
  let ctx = Pred.create_ctx () in
  let rec go n = function
    | [] -> Ok n
    | group :: rest -> (
        match
          Verify.check_equiv ~group
            (Verify.compile ctx cfg ~group)
            (Verify.intent ctx cfg ~group)
        with
        | Ok () -> go (n + 1) rest
        | Error _ as e -> e)
  in
  go 0 (Installed_config.group_ids cfg)

let render_check = function
  | Ok n -> Printf.sprintf "ok %d" n
  | Error w -> Format.asprintf "%a" Verify.pp_witness w

let check_agrees cfg =
  let fast = Verify.check_config cfg in
  let reference = reference_check cfg in
  if render_check fast <> render_check reference then
    QCheck.Test.fail_reportf "check_config %s vs reference fold %s"
      (render_check fast) (render_check reference)
  else reference

let prop_check_config_matches_reference =
  QCheck.Test.make ~name:"check_config == compile/intent fold, any view"
    ~count:300
    (QCheck.make ~print:print_sweep_case gen_sweep_case)
    (fun c -> ignore (check_agrees (sweep_case_view c)); true)

(* {1 check_config vs. the per-receiver reference}

   [Verify.check_config] walks each group's receivers in leaf runs, tests
   a run as one bitmap and resolves a leaf's assignment through an index
   of the group's rule records. The reference below is the walk it
   replaced: one step per receiver, each pod's and leaf's assignment found
   by scanning the layer's p-rules, then the stale table, then the
   s-rules, then the default, and the smallest uncovered edge kept by
   [Pred.compare_edge]. It shares no code with the check beyond the
   view, so it also stands in for the [compile]/[intent] fold above,
   which walks the same runs as the check. *)

(* The switch parser's resolution, one scan per switch. *)
let reference_assigned cfg ~group ~site (enc : Encoding.t) =
  let layer, id =
    match site with
    | Srule_state.Leaf l -> (enc.Encoding.d_leaf, l)
    | Srule_state.Pod p -> (enc.Encoding.d_spine, p)
  in
  match List.find_opt (fun r -> Prule.rule_mem r id) layer.Clustering.prules with
  | Some r -> Some r.Prule.bitmap
  | None -> (
      if Installed_config.is_stale cfg ~group site then
        match site with
        | Srule_state.Leaf l -> Tree.leaf_bitmap enc.Encoding.tree l
        | Srule_state.Pod p -> Tree.spine_bitmap enc.Encoding.tree p
      else
        match List.assoc_opt id layer.Clustering.srules with
        | Some _ as bm -> bm
        | None -> Option.map snd layer.Clustering.default)

(* Every spec edge of the group with whether the installed state covers
   it, one receiver at a time: per receiver pod its core edge (multi-pod
   only), per receiver leaf its spine edge, per receiver its leaf edge,
   each gated on its parent. *)
let reference_spec_walk cfg (g : Installed_config.group_view) edge =
  let topo = cfg.Installed_config.topo in
  let cross_pod = topo.Topology.pods > 1 in
  let group = g.Installed_config.gid and enc = g.Installed_config.enc in
  let get bm i = match bm with Some bm -> Bitmap.get bm i | None -> false in
  let site_assigned site =
    Option.bind enc (reference_assigned cfg ~group ~site)
  in
  let tree = Option.map (fun (e : Encoding.t) -> e.Encoding.tree) enc in
  let pod = ref (-1) and core_covered = ref false in
  let in_pod = ref None and down_spine = ref None in
  let leaf = ref (-1) and down_leaf = ref None and tree_ports = ref None in
  Array.iter
    (fun h ->
      let l = Topology.leaf_of_host topo h in
      if l <> !leaf then begin
        let p = Topology.pod_of_leaf topo l in
        if p <> !pod then begin
          pod := p;
          (core_covered :=
             match tree with
             | None -> false
             | Some t -> (not cross_pod) || Bitmap.get t.Tree.core_bitmap p);
          if cross_pod then edge Pred.Core p !core_covered;
          in_pod := Option.bind tree (fun t -> Tree.spine_bitmap t p);
          down_spine :=
            if cross_pod then site_assigned (Srule_state.Pod p) else None
        end;
        leaf := l;
        let lp = Topology.leaf_port_on_spine topo l in
        let spine_covered =
          get !in_pod lp
          && ((not cross_pod) || (!core_covered && get !down_spine lp))
        in
        edge (Pred.Spine p) lp spine_covered;
        down_leaf :=
          if spine_covered then site_assigned (Srule_state.Leaf l) else None;
        tree_ports :=
          if spine_covered then Option.bind tree (fun t -> Tree.leaf_bitmap t l)
          else None
      end;
      let q = Topology.host_port_on_leaf topo h in
      edge (Pred.Leaf l) q (get !down_leaf q && get !tree_ports q))
    g.Installed_config.receivers

let reference_walk cfg =
  let groups = Installed_config.groups cfg in
  let rec go i =
    if i = Array.length groups then Ok i
    else begin
      let g = groups.(i) in
      let first = ref None in
      reference_spec_walk cfg g (fun sw port covered ->
          if not covered then
            match !first with
            | Some e when Pred.compare_edge e (sw, port) <= 0 -> ()
            | Some _ | None -> first := Some (sw, port));
      match !first with
      | None -> go (i + 1)
      | Some (sw, port) ->
          Error
            { Verify.w_group = g.Installed_config.gid; w_switch = sw; w_port = port }
    end
  in
  go 0

(* A case of the sweep generator, optionally with one group's members
   folded into the pod of its first member (a single-pod tree on a
   multi-pod fabric), and optionally with one layer of one group's
   encoding naming a switch twice, in fresh records:

   - [Second_prule (i, j)]: p-rule [j]'s first switch is also named by
     p-rule [i] (both modulo the rule count);
   - [Also_srule j]: p-rule [j]'s first switch also gets an empty s-rule;
   - [Second_srule j]: s-rule [j]'s switch gets a second, empty s-rule
     after the first.

   The switch parser takes the first p-rule naming a switch, and an
   s-rule only for a switch no p-rule names, the first one; a check that
   resolved any other rule would differ from the reference. The
   encoding's slot dispatch is left as it was. *)
type twice = Second_prule of int * int | Also_srule of int | Second_srule of int

type diff_case = {
  base : sweep_case;
  one_pod : int option;
  named_twice : (int * bool * twice) option;  (* group, spine layer, how *)
}

let gen_diff_case =
  QCheck.Gen.(
    let twice =
      oneof
        [
          map2 (fun i j -> Second_prule (i, j)) nat nat;
          map (fun j -> Also_srule j) nat;
          map (fun j -> Second_srule j) nat;
        ]
    in
    map
      (fun (base, one_pod, named_twice) -> { base; one_pod; named_twice })
      (triple gen_sweep_case (opt nat) (opt (triple nat bool twice))))

let print_diff_case d =
  let twice = function
    | Second_prule (i, j) -> Printf.sprintf "prule %d names prule %d's" i j
    | Also_srule j -> Printf.sprintf "srule for prule %d's" j
    | Second_srule j -> Printf.sprintf "second srule for srule %d's" j
  in
  Printf.sprintf "%s one_pod=%s named_twice=%s" (print_sweep_case d.base)
    (Option.fold ~none:"-" ~some:string_of_int d.one_pod)
    (Option.fold ~none:"-"
       ~some:(fun (k, spine, t) -> Printf.sprintf "%d.%b.%s" k spine (twice t))
       d.named_twice)

let fold_into_one_pod c k =
  let topo = sweep_topo ~single_pod:c.single_pod in
  let per_pod = topo.Topology.leaves_per_pod * topo.Topology.hosts_per_leaf in
  let k = k mod List.length c.scenarios in
  let fold (ms, spines, links) =
    match ms with
    | [] -> (ms, spines, links)
    | first :: _ ->
        let base = first / per_pod * per_pod in
        (List.map (fun h -> base + (h mod per_pod)) ms, spines, links)
  in
  { c with scenarios = List.mapi (fun i s -> if i = k then fold s else s) c.scenarios }

(* The layer with a switch named twice, or [None] when it has too few
   rules for the edit. *)
let name_twice how (layer : Clustering.result) =
  let prules = layer.Clustering.prules and srules = layer.Clustering.srules in
  let nth l j = List.nth l (j mod List.length l) in
  let empty_like bm = Bitmap.create (Bitmap.width bm) in
  match how with
  | Second_prule (i, j) -> (
      let n = List.length prules in
      if n < 2 then None
      else
        let i = i mod n in
        match (nth prules j).Prule.switches with
        | id :: _ when not (Prule.rule_mem (List.nth prules i) id) ->
            let name x (r : Prule.prule) =
              if x = i then { r with Prule.switches = id :: r.Prule.switches } else r
            in
            Some { layer with Clustering.prules = List.mapi name prules }
        | _ -> None)
  | Also_srule j -> (
      match prules with
      | [] -> None
      | _ -> (
          let r = nth prules j in
          match r.Prule.switches with
          | id :: _ ->
              Some { layer with Clustering.srules = (id, empty_like r.Prule.bitmap) :: srules }
          | [] -> None))
  | Second_srule j -> (
      match srules with
      | [] -> None
      | _ ->
          let id, bm = nth srules j in
          Some { layer with Clustering.srules = srules @ [ (id, empty_like bm) ] })

let edit_named_twice (k, spine, how) cfg =
  let groups = Array.copy (Installed_config.groups cfg) in
  let k = k mod Array.length groups in
  (match groups.(k).Installed_config.enc with
  | None -> ()
  | Some enc -> (
      let layer = if spine then enc.Encoding.d_spine else enc.Encoding.d_leaf in
      match name_twice how layer with
      | None -> ()
      | Some layer ->
          let enc =
            if spine then { enc with Encoding.d_spine = layer }
            else { enc with Encoding.d_leaf = layer }
          in
          groups.(k) <- { (groups.(k)) with Installed_config.enc = Some enc }));
  Installed_config.with_groups cfg groups

let diff_case_view d =
  let c =
    match d.one_pod with Some k -> fold_into_one_pod d.base k | None -> d.base
  in
  let cfg = sweep_case_view c in
  match d.named_twice with Some n -> edit_named_twice n cfg | None -> cfg

(* [check_config], [check_config_cached] through a cold cache and then,
   with every group dirty, through the same cache (its dirty-only walk
   when the first call passed), and [sender_blackholes] against the
   per-sender fold: verdicts and witnesses equal. *)
let diff_agrees d =
  let cfg = diff_case_view d in
  let want = render_check (reference_walk cfg) in
  let cache = Verify.create_cache () in
  let all = Installed_config.group_ids cfg in
  List.iter
    (fun (what, got) ->
      if render_check got <> want then
        QCheck.Test.fail_reportf "%s %s vs per-receiver reference %s" what
          (render_check got) want)
    [
      ("check_config", Verify.check_config cfg);
      ("cold cache", Verify.check_config_cached cache cfg ~dirty:[]);
      ("all dirty", Verify.check_config_cached cache cfg ~dirty:all);
    ];
  let sweep = render (Verify.sender_blackholes cfg)
  and fold = render (reference_blackholes cfg) in
  if sweep <> fold then
    QCheck.Test.fail_reportf "sweep [%s] vs reference fold [%s]"
      (String.concat "; " sweep) (String.concat "; " fold);
  (cfg, want)

let prop_check_matches_per_receiver_reference =
  QCheck.Test.make
    ~name:"check_config/cached/sweep == per-receiver reference, any view"
    ~count:400
    (QCheck.make ~print:print_diff_case gen_diff_case)
    (fun d -> ignore (diff_agrees d); true)

(* Over a fixed sample the differential property meets leaf, spine and
   core witnesses, a view where a switch is named twice, and a witness
   the double naming decides: the same view without it checks clean or
   names another edge. *)
let test_per_receiver_reference_not_vacuous () =
  let rand = Random.State.make [| 23 |] in
  let cases = QCheck.Gen.generate ~rand ~n:300 gen_diff_case in
  let core = ref 0 and spine = ref 0 and leaf = ref 0 and twice = ref 0 in
  let decided = ref 0 in
  List.iter
    (fun d ->
      let _, want = diff_agrees d in
      (match reference_walk (diff_case_view d) with
      | Ok _ -> ()
      | Error w ->
          incr
            (match w.Verify.w_switch with
            | Pred.Core -> core
            | Pred.Spine _ -> spine
            | Pred.Leaf _ -> leaf));
      if Option.is_some d.named_twice then begin
        incr twice;
        let _, plain = diff_agrees { d with named_twice = None } in
        if plain <> want then incr decided
      end)
    cases;
  let some what n = if n = 0 then Alcotest.failf "no sampled view has %s" what in
  some "a core witness" !core;
  some "a spine witness" !spine;
  some "a leaf witness" !leaf;
  some "a switch named twice" !twice;
  some "a witness decided by the first naming rule" !decided

(* A hand-built view must list its members as strictly ascending hosts
   of the topology: [make] and [with_groups] refuse anything else. *)
let test_hand_view_refuses_unsorted_members () =
  let cfg = view [ (0, both [ 0; 1; h ]) ] in
  let g = (Installed_config.groups cfg).(0) in
  let n = Topology.num_hosts topo in
  let refuses what (bad : Installed_config.group_view) =
    (match Installed_config.make topo Params.default [ bad ] with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "make accepted %s" what);
    match Installed_config.with_groups cfg [| bad |] with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "with_groups accepted %s" what
  in
  refuses "descending receivers" { g with Installed_config.receivers = [| h; 1; 0 |] };
  refuses "a repeated receiver" { g with Installed_config.receivers = [| 0; 1; 1; h |] };
  refuses "unsorted senders" { g with Installed_config.senders = [| 1; 0; h |] };
  refuses "a host past the topology" { g with Installed_config.receivers = [| 0; n |] };
  refuses "a negative host" { g with Installed_config.senders = [| -1; 0 |] };
  let checked cfg = render_check (Verify.check_config cfg) in
  Alcotest.(check string) "the sorted view checks clean" "ok 1"
    (checked (Installed_config.make topo Params.default [ g ]));
  Alcotest.(check string) "with_groups keeps it" "ok 1"
    (checked (Installed_config.with_groups cfg [| g |]))

(* The properties above are only as strong as the views they draw: over a
   fixed sample, some must report sweep witnesses, carry multi-plane or
   explicit-core overrides, degrade a sender to unicast and mark a stale
   site; and [check_config] must name witnesses on all three layers, on
   the single-pod fabric and for a group whose encoding was dropped. *)
let test_sweep_oracle_not_vacuous () =
  let rand = Random.State.make [| 15 |] in
  let cases = QCheck.Gen.generate ~rand ~n:200 gen_sweep_case in
  let witnesses = ref 0 and overrides = ref 0 and unicast = ref 0
  and stale = ref 0 in
  let core = ref 0 and spine = ref 0 and leaf = ref 0 in
  let single_pod = ref 0 and dropped = ref 0 in
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
        (Installed_config.groups cfg);
      match check_agrees cfg with
      | Ok _ -> ()
      | Error w ->
          incr
            (match w.Verify.w_switch with
            | Pred.Core -> core
            | Pred.Spine _ -> spine
            | Pred.Leaf _ -> leaf);
          if c.single_pod then incr single_pod;
          match Installed_config.group cfg w.Verify.w_group with
          | Some { Installed_config.enc = None; receivers; _ }
            when Array.length receivers > 0 ->
              incr dropped
          | Some _ | None -> ())
    cases;
  let some what n =
    if n = 0 then Alcotest.failf "no sampled view has %s" what
  in
  some "a witness" !witnesses;
  some "an override" !overrides;
  some "a unicast sender" !unicast;
  some "a stale site" !stale;
  some "a core check witness" !core;
  some "a spine check witness" !spine;
  some "a leaf check witness" !leaf;
  some "a single-pod check witness" !single_pod;
  some "a check witness on receivers with no encoding" !dropped

(* {1 View lists} *)

(* A random stream of membership events over three groups on every host
   of the running example: each step names a group, a host and a role; it
   adds the group if it is new, makes the host leave if it is a member,
   and joins it with the role otherwise. After every event each group's
   view lists must be the sorted, role-filtered membership, whatever the
   mix of Sender-only, Receiver-only and Both members. *)
let prop_view_lists =
  let roles = [| Controller.Sender; Controller.Receiver; Controller.Both |] in
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 60)
        (triple (int_bound 2) (int_bound (Topology.num_hosts topo - 1))
           (int_bound 2)))
  in
  QCheck.Test.make ~name:"view lists = sorted role-filtered members" ~count:150
    (QCheck.make ~print:QCheck.Print.(list (triple int int int)) gen)
    (fun steps ->
      let ctrl = Controller.create topo Params.default in
      let hosts keep members =
        List.filter_map (fun (h, r) -> if keep r then Some h else None) members
        |> List.sort_uniq Int.compare
      in
      let receives = function
        | Controller.Receiver | Controller.Both -> true
        | Controller.Sender -> false
      and sends = function
        | Controller.Sender | Controller.Both -> true
        | Controller.Receiver -> false
      in
      let live = ref [] in
      List.iter
        (fun (group, host, r) ->
          let role = roles.(r) in
          (if not (List.mem group !live) then begin
             ignore (Controller.add_group ctrl ~group [ (host, role) ]);
             live := group :: !live
           end
           else if
             List.exists (fun (x, _) -> x = host) (Controller.members ctrl ~group)
           then ignore (Controller.leave ctrl ~group ~host)
           else ignore (Controller.join ctrl ~group ~host ~role));
          let cfg = Controller.installed_config ctrl in
          List.iter
            (fun group ->
              let members = Controller.members ctrl ~group in
              match Installed_config.group cfg group with
              | None -> QCheck.Test.fail_reportf "group %d has no view" group
              | Some g ->
                  let show a =
                    String.concat "; " (List.map string_of_int (Array.to_list a))
                  in
                  if Array.to_list g.Installed_config.receivers <> hosts receives members
                  then
                    QCheck.Test.fail_reportf "group %d: receivers [%s]" group
                      (show g.Installed_config.receivers);
                  if Array.to_list g.Installed_config.senders <> hosts sends members then
                    QCheck.Test.fail_reportf "group %d: senders [%s]" group
                      (show g.Installed_config.senders))
            !live)
        steps;
      true)

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

(* {1 Verify-layer predicate cache} *)

let cache_topo =
  Topology.create ~pods:2 ~leaves_per_pod:2 ~spines_per_pod:2 ~hosts_per_leaf:4
    ~cores_per_plane:1

let cache_params = Params.create ~fmax:50 ()

let host_in pod i =
  List.init (Topology.num_hosts cache_topo) Fun.id
  |> List.filter (fun h -> Topology.pod_of_host cache_topo h = pod)
  |> fun hs -> List.nth hs i

let test_verify_cache_incremental () =
  let ctrl = Controller.create cache_topo cache_params in
  List.iter
    (fun group ->
      ignore
        (Controller.add_group ctrl ~group
           [ (host_in 0 group, Controller.Both); (host_in 1 group, Controller.Both) ]))
    [ 1; 2; 3 ];
  let cache = Verify.create_cache () in
  (match Verify.check_controller_cached cache ctrl with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "healthy controller must verify");
  Alcotest.(check (pair int int)) "cold: all misses" (0, 3)
    (Verify.cache_stats cache);
  (match Verify.check_controller_cached cache ctrl with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "re-check must pass");
  Alcotest.(check (pair int int)) "warm: all hits" (3, 3)
    (Verify.cache_stats cache);
  (* A membership change dirties exactly one group. *)
  ignore (Controller.join ctrl ~group:2 ~host:(host_in 0 3) ~role:Controller.Both);
  (match Verify.check_controller_cached cache ctrl with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "post-churn check must pass");
  Alcotest.(check (pair int int)) "one re-check after churn" (5, 4)
    (Verify.cache_stats cache);
  (* A removed group drops out of both the config and the cache. *)
  ignore (Controller.remove_group ctrl ~group:3);
  (match Verify.check_controller_cached cache ctrl with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "check after removal must pass");
  Alcotest.(check (pair int int)) "remaining groups all hit" (7, 4)
    (Verify.cache_stats cache);
  Alcotest.(check bool) "removed group evicted" false
    (Verify.is_cached cache 3);
  Alcotest.(check bool) "remaining groups stay cached" true
    (Verify.is_cached cache 1 && Verify.is_cached cache 2)

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
    QCheck_alcotest.to_alcotest prop_check_config_matches_reference;
    QCheck_alcotest.to_alcotest prop_check_matches_per_receiver_reference;
    Alcotest.test_case "per-receiver reference: not vacuous" `Quick
      test_per_receiver_reference_not_vacuous;
    Alcotest.test_case "hand-built views refuse unsorted members" `Quick
      test_hand_view_refuses_unsorted_members;
    Alcotest.test_case "sweep: differential oracle is not vacuous" `Quick
      test_sweep_oracle_not_vacuous;
    Alcotest.test_case "header-only interpretation" `Quick
      test_header_pred_walks_the_header;
    Alcotest.test_case "view memo: oracle on a fault stream" `Quick
      test_view_memo_fault_stream;
    Alcotest.test_case "view memo: identity and allocation" `Quick
      test_view_memo_identity_and_allocation;
    Alcotest.test_case "view flags: shared until a change" `Quick
      test_view_flags_shared_until_changed;
    Alcotest.test_case "segment memo: cached bytes" `Quick
      test_segment_memo_cached_bytes;
    Alcotest.test_case "verify cache: incremental hits" `Quick
      test_verify_cache_incremental;
    Alcotest.test_case "view index: churn, regroups and restores" `Quick
      test_view_index_churn;
    Alcotest.test_case "verify cache: dirty-only walk's witness" `Quick
      test_verify_cache_dirty_witness;
    Alcotest.test_case "stale view raises" `Quick test_stale_view_raises;
    Alcotest.test_case "sweep: receiver outside the local tree bitmap" `Quick
      test_sweep_local_bad_leaf;
    Alcotest.test_case "sweep: the sender's own leaf is the bad one" `Quick
      test_sweep_bad_own_leaf;
    Alcotest.test_case "sweep: a leaf reached on one plane only" `Quick
      test_sweep_one_plane_reaches;
    Alcotest.test_case "sweep: remote pod assignment omits a leaf" `Quick
      test_sweep_remote_pod_omits_leaf;
    QCheck_alcotest.to_alcotest prop_view_lists;
  ]
