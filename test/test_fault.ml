(* Fault-tolerant control plane: retry/backoff installation, graceful
   degradation, stale-entry reconciliation, crash-consistent recovery, and
   the delivery-safety oracle under arbitrary fault/churn/failure
   interleavings. *)

let topo = Topology.running_example ()
let h = topo.Topology.hosts_per_leaf

(* Two members on every leaf with tight per-stage header budgets: the clean
   encoding of this group always needs s-rules, so fault schedules have
   something to bite on. *)
let wide_hosts = List.concat_map (fun l -> [ l * h; (l * h) + 1 ]) [ 0; 1; 2; 3; 4; 5; 6; 7 ]
let members_both hosts = List.map (fun x -> (x, Controller.Both)) hosts

let tight_params =
  Params.create ~hmax_leaf:1 ~hmax_spine:1 ~header_budget:None ~fmax:6
    ~install_retries:4 ~install_backoff_us:8 ()

(* A clean twin tells us exactly how many install operations the faulty
   controller will issue for the same group — needed to position scripted
   outcomes — and the ledger occupancy it must converge to. *)
let clean_install_ops () =
  let ctrl = Controller.create topo tight_params in
  ignore (Controller.add_group ctrl ~group:1 (members_both wide_hosts));
  match Controller.encoding ctrl ~group:1 with
  | None -> Alcotest.fail "clean twin fell back to unicast"
  | Some enc ->
      ( List.length enc.Encoding.d_leaf.Clustering.srules
        + List.length enc.Encoding.d_spine.Clustering.srules,
        Srule_state.total_srules (Controller.srule_state ctrl) )

let faulty_setup schedule =
  let fabric = Fabric.create topo in
  let fault = Fault.create ~schedule fabric in
  let ctrl =
    Controller.create ~fabric_hooks:(Fault.hooks fault) topo tight_params
  in
  (ctrl, fabric, fault)

(* The shared packet probe ([Verify.probe], also used by [Churn.fault_run]).
   These tests expect a multicast path to exist, so [None] (no encoding /
   unicast fallback) counts as a failure. *)
let delivery_ok ctrl fabric ~group ~sender =
  match Verify.probe ctrl fabric ~group ~sender with
  | Some (ok, _) -> ok
  | None -> false

(* {1 Retry / backoff} *)

let test_transient_faults_retried () =
  let k, clean_occupancy = clean_install_ops () in
  Alcotest.(check bool) "group needs s-rules" true (k > 0);
  (* The first three install attempts fail three different ways; every
     retry thereafter applies (script exhausted). *)
  let ctrl, fabric, fault =
    faulty_setup (Fault.Scripted [ Timeout; Refused; Dropped ])
  in
  ignore (Controller.add_group ctrl ~group:1 (members_both wide_hosts));
  let st = Controller.install_stats ctrl in
  Alcotest.(check bool) "retries happened" true (st.Controller.retries >= 3);
  Alcotest.(check int) "no budget exhausted" 0 st.Controller.exhausted;
  Alcotest.(check int) "no degradations" 0 st.Controller.degradations;
  Alcotest.(check int) "fabric converged to clean occupancy" clean_occupancy
    (Srule_state.total_srules (Controller.srule_state ctrl));
  let fs = Fault.stats fault in
  Alcotest.(check int) "one timeout, one refusal, one drop seen" 3
    (fs.Fault.timeouts + fs.Fault.refusals + fs.Fault.drops);
  Alcotest.(check bool) "delivers" true
    (delivery_ok ctrl fabric ~group:1 ~sender:0)

let test_silent_drop_caught_by_readback () =
  (* A dropped install acknowledges Ok yet changes nothing — only the
     read-back verification can tell. *)
  let ctrl, fabric, _fault = faulty_setup (Fault.Scripted [ Dropped ]) in
  ignore (Controller.add_group ctrl ~group:1 (members_both wide_hosts));
  let st = Controller.install_stats ctrl in
  Alcotest.(check bool) "the lie cost exactly one retry" true
    (st.Controller.retries >= 1);
  Alcotest.(check bool) "delivers" true
    (delivery_ok ctrl fabric ~group:1 ~sender:0)

(* {1 Graceful degradation} *)

let test_wedged_fabric_degrades_but_delivers () =
  Alcotest.(check bool) "group needs s-rules when clean" true
    (fst (clean_install_ops ()) > 0);
  let ctrl, fabric, fault = faulty_setup Fault.Reliable in
  for l = 0 to Topology.num_leaves topo - 1 do
    Fault.wedge_leaf fault l true
  done;
  for p = 0 to topo.Topology.pods - 1 do
    Fault.wedge_pod fault p true
  done;
  ignore (Controller.add_group ctrl ~group:1 (members_both wide_hosts));
  let st = Controller.install_stats ctrl in
  Alcotest.(check bool) "degradations observed" true
    (st.Controller.degradations > 0);
  Alcotest.(check int) "no fabric state left behind" 0
    (Srule_state.total_srules (Controller.srule_state ctrl));
  (* Default p-rules carry everything: more traffic, zero blackholes. *)
  List.iter
    (fun sender ->
      Alcotest.(check bool)
        (Printf.sprintf "sender %d delivers via default p-rules" sender)
        true
        (delivery_ok ctrl fabric ~group:1 ~sender))
    [ 0; (5 * h) + 1 ]

let test_degraded_costs_more_traffic () =
  let clean_fab = Fabric.create topo in
  let clean_ctrl =
    Controller.create
      ~fabric_hooks:(Fabric.controller_hooks clean_fab)
      topo tight_params
  in
  ignore (Controller.add_group clean_ctrl ~group:1 (members_both wide_hosts));
  let ctrl, fabric, fault = faulty_setup Fault.Reliable in
  for l = 0 to Topology.num_leaves topo - 1 do
    Fault.wedge_leaf fault l true
  done;
  ignore (Controller.add_group ctrl ~group:1 (members_both wide_hosts));
  let tx c f =
    let header = Option.get (Controller.header c ~group:1 ~sender:0) in
    (Fabric.inject f ~sender:0 ~group:1 ~header ~payload:64).Fabric.transmissions
  in
  Alcotest.(check bool) "degraded encoding transmits at least as much" true
    (tx ctrl fabric >= tx clean_ctrl clean_fab)

(* {1 The fast path's s-rule mirror}

   A receiver join on a leaf that holds one of the group's s-rules flips
   the s-rule's bitmap on the fast path, then mirrors it to the leaf
   through a verified install. The fabric keeps its own copy of every
   entry, so the read-back sees the old one until the install lands. *)

(* The group of [wide_hosts] installed through [schedule], the first leaf
   holding one of its s-rules, and a host on that leaf that is not a
   member. *)
let srule_leaf_setup schedule =
  let ctrl, fabric, fault = faulty_setup schedule in
  ignore (Controller.add_group ctrl ~group:1 (members_both wide_hosts));
  let leaf =
    match Controller.encoding ctrl ~group:1 with
    | Some { Encoding.d_leaf = { Clustering.srules = (l, _) :: _; _ }; _ } -> l
    | Some _ | None -> Alcotest.fail "the group should hold a leaf s-rule"
  in
  (ctrl, fabric, fault, leaf, (leaf * h) + 2)

let repeat n x = List.init n (fun _ -> x)

(* Every sender's header as wire bytes ([None] when it has none). *)
let header_bytes ctrl ~group =
  List.map
    (fun (sender, _) ->
      ( sender,
        Option.map (Header_codec.encode topo)
          (Controller.header ctrl ~group ~sender) ))
    (Controller.members ctrl ~group)

let test_mirror_refused_degrades () =
  let ctrl, fabric, fault, leaf, host = srule_leaf_setup Fault.Reliable in
  let before = Controller.install_stats ctrl in
  let reencodes = (Controller.churn_stats ctrl).Controller.reencoded in
  let headers = header_bytes ctrl ~group:1 in
  Fault.wedge_leaf fault leaf true;
  let u = Controller.join ctrl ~group:1 ~host ~role:Controller.Both in
  Alcotest.(check int) "one more degradation"
    (before.Controller.degradations + 1)
    (Controller.install_stats ctrl).Controller.degradations;
  Alcotest.(check int) "the join fell back to a re-encode" (reencodes + 1)
    (Controller.churn_stats ctrl).Controller.reencoded;
  Alcotest.(check bool) "the leaf is in the update" true
    (List.mem leaf u.Controller.leaves);
  Alcotest.(check bool) "the leaf's entry is gone" true
    (Option.is_none (Fabric.leaf_srule fabric ~leaf ~group:1));
  let after = header_bytes ctrl ~group:1 in
  List.iter
    (fun (sender, old) ->
      let changed =
        not (Option.equal Bytes.equal old (List.assoc sender after))
      in
      if changed && not (List.mem sender u.Controller.hypervisors) then
        Alcotest.failf "sender %d's header changed but the update misses it"
          sender)
    headers;
  match Verify.check_controller ctrl with
  | Ok _ -> ()
  | Error w -> Alcotest.failf "check_controller: %a" Verify.pp_witness w

let test_mirror_dropped_retried () =
  let k, _ = clean_install_ops () in
  let ctrl, fabric, _, leaf, host =
    srule_leaf_setup (Fault.Scripted (repeat k Fault.Applied @ [ Fault.Dropped ]))
  in
  let before = Controller.install_stats ctrl in
  let u = Controller.join ctrl ~group:1 ~host ~role:Controller.Both in
  let after = Controller.install_stats ctrl in
  Alcotest.(check int) "the dropped mirror cost one retry"
    (before.Controller.retries + 1) after.Controller.retries;
  Alcotest.(check int) "no degradation" before.Controller.degradations
    after.Controller.degradations;
  Alcotest.(check (list int)) "the leaf is the update's one switch" [ leaf ]
    u.Controller.leaves;
  let bm =
    match Controller.encoding ctrl ~group:1 with
    | Some enc -> List.assoc leaf enc.Encoding.d_leaf.Clustering.srules
    | None -> Alcotest.fail "the group lost its encoding"
  in
  match Fabric.leaf_srule fabric ~leaf ~group:1 with
  | Some entry ->
      Alcotest.(check bool) "the fabric holds an equal copy" true
        (Bitmap.equal entry bm && entry != bm)
  | None -> Alcotest.fail "the mirrored entry is missing"

(* {1 Stale entries and compensation} *)


let test_failed_removal_marked_and_reconciled () =
  let k, _ = clean_install_ops () in
  (* Script: the add installs cleanly; then the first removal of the
     uninstall exhausts its budget (5 attempts), the remaining k-1 removals
     apply, and the reconcile retry of the stale entry exhausts again —
     forcing the compensating install path (script exhausted => applies). *)
  let script =
    repeat k Fault.Applied
    @ repeat 5 Fault.Timeout
    @ repeat (k - 1) Fault.Applied
    @ repeat 5 Fault.Timeout
  in
  let ctrl, fabric, _fault = faulty_setup (Fault.Scripted script) in
  ignore (Controller.add_group ctrl ~group:1 (members_both wide_hosts));
  ignore (Controller.remove_group ctrl ~group:1);
  let st = Controller.install_stats ctrl in
  (* Two exhaustions: the uninstall removal itself, then the reconcile
     pass's removal retry (which falls through to the compensation). *)
  Alcotest.(check int) "removal budget exhausted twice" 2
    st.Controller.exhausted;
  Alcotest.(check int) "stale entry tracked" 1 st.Controller.stale_entries;
  Alcotest.(check int) "compensating entry written" 1
    st.Controller.compensations;
  (* The compensating entry holds the truthful (empty) bitmap: whatever
     packets still reach that switch for the dead group go nowhere. *)
  let stale_truthful = ref false in
  for l = 0 to Topology.num_leaves topo - 1 do
    match Fabric.leaf_srule fabric ~leaf:l ~group:1 with
    | Some bm when Bitmap.popcount bm = 0 -> stale_truthful := true
    | Some _ -> Alcotest.fail "stale entry left with a lying bitmap"
    | None -> ()
  done;
  Alcotest.(check bool) "compensated entry present and empty" true
    !stale_truthful;
  (* The next operation's reconcile (script exhausted: removals apply)
     finally clears the marker and the fabric. *)
  ignore (Controller.add_group ctrl ~group:2 (members_both [ 0; 1 ]));
  let st = Controller.install_stats ctrl in
  Alcotest.(check int) "stale entry eventually removed" 0
    st.Controller.stale_entries;
  for l = 0 to Topology.num_leaves topo - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "leaf %d holds nothing for the dead group" l)
      true
      (Option.is_none (Fabric.leaf_srule fabric ~leaf:l ~group:1))
  done

(* {1 Crash-consistent checkpoint / replay} *)

(* A mixed op stream: membership churn plus spine/core/link failures and
   recoveries, all as journalable ops. Membership is tracked in [members]
   (mutated as ops are generated) so every join targets a non-member and
   every leave a member. *)
let crash_rng_ops rng ~members ~events =
  let groups = Array.length members in
  let spine_up = Array.make (Topology.num_spines topo) true in
  let core_up = Array.make (max 1 (Topology.num_cores topo)) true in
  let link_up =
    Array.make_matrix (Topology.num_leaves topo) topo.Topology.spines_per_pod
      true
  in
  let num_hosts = Topology.num_hosts topo in
  let join g =
    let rec pick attempts =
      if attempts = 0 then None
      else
        let host = Rng.int rng num_hosts in
        if List.exists (fun x -> x = host) members.(g) then pick (attempts - 1)
        else Some host
    in
    match pick 50 with
    | None -> None
    | Some host ->
        members.(g) <- host :: members.(g);
        Some (Journal.Join { group = g; host; role = Controller.Both })
  in
  let leave g =
    match members.(g) with
    | [] -> None
    | ms ->
        let host = List.nth ms (Rng.int rng (List.length ms)) in
        members.(g) <- List.filter (fun x -> x <> host) ms;
        Some (Journal.Leave { group = g; host })
  in
  List.init events (fun _ ->
      match Rng.int rng 10 with
      | 0 | 1 | 2 | 3 -> (
          let g = Rng.int rng groups in
          match join g with
          | Some op -> op
          | None -> Option.get (leave g))
      | 4 | 5 | 6 -> (
          let g = Rng.int rng groups in
          match leave g with
          | Some op -> op
          | None -> Option.get (join g))
      | 7 ->
          let s = Rng.int rng (Array.length spine_up) in
          spine_up.(s) <- not spine_up.(s);
          if spine_up.(s) then Journal.Recover_spine s else Journal.Fail_spine s
      | 8 ->
          let c = Rng.int rng (Array.length core_up) in
          core_up.(c) <- not core_up.(c);
          if core_up.(c) then Journal.Recover_core c else Journal.Fail_core c
      | _ ->
          let l = Rng.int rng (Topology.num_leaves topo) in
          let p = Rng.int rng topo.Topology.spines_per_pod in
          link_up.(l).(p) <- not link_up.(l).(p);
          if link_up.(l).(p) then Journal.Recover_link { leaf = l; plane = p }
          else Journal.Fail_link { leaf = l; plane = p })

let same_state_on_groups a b gids =
  let sa = Controller.srule_state a and sb = Controller.srule_state b in
  Srule_state.leaf_occupancy sa = Srule_state.leaf_occupancy sb
  && Srule_state.spine_occupancy sa = Srule_state.spine_occupancy sb
  && Controller.churn_stats a = Controller.churn_stats b
  && List.for_all
       (fun group ->
         let ma = Controller.members a ~group in
         ma = Controller.members b ~group
         && List.for_all
              (fun (sender, _) ->
                let hdr c = Controller.header c ~group ~sender in
                match (hdr a, hdr b) with
                | None, None -> true
                | Some x, Some y ->
                    Bytes.equal (Header_codec.encode topo x)
                      (Header_codec.encode topo y)
                | _ -> false)
              ma)
       gids

let same_controller_state a b ~groups =
  same_state_on_groups a b (List.init groups Fun.id)

let snapshot_bytes ctrl = Byteio.Codec.to_bytes Controller.write_snapshot ctrl
let decode_snapshot bytes = Byteio.Codec.of_bytes Controller.read_snapshot bytes

(* The checkpoint with every segment encoded afresh: the canonical-decode
   oracle, which no memoized (or restored) segment can short-cut. *)
let cold_snapshot_bytes ctrl =
  Byteio.Codec.to_bytes Controller.write_snapshot_cold ctrl

(* Every memoized checkpoint segment of [ctrl] is its group's encoding:
   the checkpoint that blits them equals one encoded afresh. Returns how
   many segments were memoized before the check (which fills the rest). *)
let check_segment_memo msg ctrl =
  let memoized = Controller.memoized_segments ctrl in
  if not (Bytes.equal (cold_snapshot_bytes ctrl) (snapshot_bytes ctrl)) then
    Alcotest.failf "%s: a memoized segment is not its group's encoding" msg;
  memoized

let test_crash_recovery_bit_identical () =
  let rng = Rng.create 1234 in
  let groups = 10 and events = 600 in
  let fabric = Fabric.create topo in
  let replica =
    Replica.create ~snapshot_every:48
      ~fabric_hooks:(Fabric.controller_hooks fabric)
      topo tight_params
  in
  (* Seed groups through the journal too, so replay covers setup. *)
  let hosts = Array.init (Topology.num_hosts topo) Fun.id in
  let members = Array.make groups [] in
  for g = 0 to groups - 1 do
    members.(g) <- Array.to_list (Rng.sample_without_replacement rng 6 hosts)
  done;
  let seed_ops =
    List.init groups (fun g ->
        let ms = List.map (fun x -> (x, Controller.Both)) members.(g) in
        Journal.Add_group { group = g; members = ms })
  in
  List.iter (Replica.apply replica) seed_ops;
  let ops = crash_rng_ops rng ~members ~events in
  let crash_points =
    Rng.sample_without_replacement rng 100 (Array.init events (fun i -> i + 1))
    |> Array.to_list
    |> List.sort_uniq compare
  in
  Alcotest.(check int) "100 distinct crash points" 100
    (List.length crash_points);
  let ctx = Pred.create_ctx () in
  let checked = ref 0 in
  let checkpoints = ref 0 in
  let wire = Option.get (Replica.wire replica) in
  let records = ref (Wire.records wire) in
  List.iteri
    (fun i op ->
      Replica.apply replica op;
      (* Every checkpoint the replica takes reuses the memoized segments of
         groups unchanged since the previous one. Its bytes must equal
         those of a cold twin: a controller that replays the same ops on
         its own fabric and has never written a checkpoint, so every
         segment of its first one is freshly encoded. An op that
         checkpoints appends two records. *)
      let before = !records in
      records := Wire.records wire;
      if !records = before + 2 then begin
        incr checkpoints;
        let twin =
          Controller.create
            ~fabric_hooks:(Fabric.controller_hooks (Fabric.create topo))
            topo tight_params
        in
        List.iter (Journal.apply twin)
          (seed_ops @ List.filteri (fun j _ -> j <= i) ops);
        let live = snapshot_bytes (Replica.controller replica) in
        let log = Wire.contents wire in
        let n = Bytes.length live in
        Alcotest.(check bool)
          (Printf.sprintf "checkpoint at event %d: the log's last payload"
             (i + 1))
          true
          (Bytes.equal live (Bytes.sub log (Bytes.length log - n) n));
        Alcotest.(check bool)
          (Printf.sprintf "checkpoint at event %d: bytes equal a cold twin's"
             (i + 1))
          true
          (Bytes.equal live (snapshot_bytes twin))
      end;
      if List.exists (fun p -> p = i + 1) crash_points then begin
        let recovered = Replica.recovered replica in
        incr checked;
        Alcotest.(check bool)
          (Printf.sprintf "recovery at event %d is bit-identical" (i + 1))
          true
          (same_controller_state recovered (Replica.controller replica) ~groups);
        (* Symbolic equivalence: the recovered instance compiles to the
           same delivery predicates as the never-crashed one — per group
           and per sender (which also covers overrides and health). *)
        let live = Replica.installed_config replica in
        let rec_cfg = Controller.installed_config recovered in
        List.iter
          (fun gid ->
            (match
               Verify.check_equiv ~group:gid
                 (Verify.compile ctx live ~group:gid)
                 (Verify.compile ctx rec_cfg ~group:gid)
             with
            | Ok () -> ()
            | Error w ->
                Alcotest.failf "event %d: recovery diverges, witness %a"
                  (i + 1) Verify.pp_witness w);
            List.iter
              (fun host ->
                let side cfg =
                  Verify.compile_sender ctx cfg ~group:gid ~sender:host
                in
                match (side live, side rec_cfg) with
                | None, None -> ()
                | Some a, Some b -> (
                    match Verify.check_equiv ~group:gid a b with
                    | Ok () -> ()
                    | Error w ->
                        Alcotest.failf
                          "event %d sender %d: recovery diverges, witness %a"
                          (i + 1) host Verify.pp_witness w)
                | Some _, None | None, Some _ ->
                    Alcotest.failf
                      "event %d sender %d: unicast degrade diverges after \
                       recovery"
                      (i + 1) host)
              members.(gid))
          (List.init groups Fun.id)
      end)
    ops;
  Alcotest.(check int) "all crash points exercised" 100 !checked;
  Alcotest.(check int) "every checkpoint compared" ((groups + events) / 48)
    !checkpoints;
  (* And an actual crash: the replica keeps working on the recovered
     instance. *)
  Replica.crash replica;
  let fresh_host =
    let ms = Controller.members (Replica.controller replica) ~group:0 in
    let rec find x = if List.mem_assoc x ms then find (x + 1) else x in
    find 0
  in
  Replica.apply replica
    (Journal.Join { group = 0; host = fresh_host; role = Controller.Both });
  Alcotest.(check bool) "post-crash controller alive" true
    (Controller.group_count (Replica.controller replica) >= 1)

(* [restore] takes a decoded snapshot's values as its own, so one decode
   restores once; each decode of the same bytes is independent. *)
let test_snapshot_decodes_independently () =
  let ctrl = Controller.create topo tight_params in
  ignore (Controller.add_group ctrl ~group:1 (members_both wide_hosts));
  let bytes = snapshot_bytes ctrl in
  (* Two controllers from two decodes, mutated divergently, never bleed
     into each other or the original. *)
  let restored () = Controller.restore (decode_snapshot bytes) in
  let r1 = restored () and r2 = restored () in
  let joiner = (4 * h) + 3 in
  ignore (Controller.leave r1 ~group:1 ~host:0);
  ignore (Controller.join r2 ~group:1 ~host:joiner ~role:Controller.Both);
  let n c = List.length (Controller.members c ~group:1) in
  let base = List.length wide_hosts in
  Alcotest.(check int) "original untouched" base (n ctrl);
  Alcotest.(check bool) "original writes the same bytes" true
    (Bytes.equal bytes (snapshot_bytes ctrl));
  Alcotest.(check int) "restore 1 diverged" (base - 1) (n r1);
  Alcotest.(check bool) "r1 state internally consistent" true
    (Srule_state.check (Controller.srule_state r1));
  let r3 = restored () in
  ignore (Controller.join r3 ~group:1 ~host:joiner ~role:Controller.Both);
  Alcotest.(check bool) "restore 2 saw only its own join" true
    (same_state_on_groups r2 r3 [ 1 ]);
  let snap = decode_snapshot bytes in
  ignore (Controller.restore snap : Controller.t);
  Alcotest.check_raises "a second restore of one decode"
    (Invalid_argument "Controller.restore: snapshot already restored")
    (fun () -> ignore (Controller.restore snap : Controller.t))

(* {1 Delivery-safety oracle: churn + failures + injected faults} *)

type chaos_op =
  | Flip_spine of int
  | Flip_core of int
  | Flip_link of int * int
  | Flip_member of int
  | Flip_wedge of int

let gen_case =
  QCheck.Gen.(
    let op =
      oneof
        [
          map (fun s -> Flip_spine s) (int_range 0 7);
          map (fun c -> Flip_core c) (int_range 0 3);
          map2 (fun l p -> Flip_link (l, p)) (int_range 0 7) (int_range 0 1);
          map (fun v -> Flip_member v) (int_range 0 63);
          map (fun l -> Flip_wedge l) (int_range 0 7);
        ]
    in
    let outcome =
      frequency
        [
          (5, return Fault.Applied);
          (2, return Fault.Timeout);
          (1, return Fault.Refused);
          (2, return Fault.Dropped);
        ]
    in
    pair
      (list_size (int_range 1 25) op)
      (list_size (int_range 0 40) outcome))

let arb_case =
  QCheck.make
    ~print:(fun (ops, script) ->
      Printf.sprintf "script=%d ops=%s" (List.length script)
        (String.concat ";"
           (List.map
              (function
                | Flip_spine s -> Printf.sprintf "S%d" s
                | Flip_core c -> Printf.sprintf "C%d" c
                | Flip_link (l, p) -> Printf.sprintf "L%d.%d" l p
                | Flip_member v -> Printf.sprintf "M%d" v
                | Flip_wedge l -> Printf.sprintf "W%d" l)
              ops)))
    gen_case

(* Every member whose leaf is reachable receives the packet: degraded paths
   and explicit unicast fallback are fine, blackholes are failures. *)
let prop_faulted_chaos_never_blackholes =
  QCheck.Test.make
    ~name:"no blackholes under churn + failures + injected install faults"
    ~count:40 arb_case (fun (ops, script) ->
      let fabric = Fabric.create topo in
      let fault = Fault.create ~schedule:(Fault.Scripted script) fabric in
      let ctrl =
        Controller.create ~fabric_hooks:(Fault.hooks fault) topo tight_params
      in
      ignore (Controller.add_group ctrl ~group:1 (members_both wide_hosts));
      let spine_state = Array.make 8 true in
      let core_state = Array.make 4 true in
      let link_state = Array.make_matrix 8 2 true in
      let wedge_state = Array.make 8 false in
      List.iter
        (function
          | Flip_spine s ->
              if spine_state.(s) then begin
                Fabric.fail_spine fabric s;
                ignore (Controller.fail_spine ctrl s)
              end
              else begin
                Fabric.recover_spine fabric s;
                ignore (Controller.recover_spine ctrl s)
              end;
              spine_state.(s) <- not spine_state.(s)
          | Flip_core c ->
              if core_state.(c) then begin
                Fabric.fail_core fabric c;
                ignore (Controller.fail_core ctrl c)
              end
              else begin
                Fabric.recover_core fabric c;
                ignore (Controller.recover_core ctrl c)
              end;
              core_state.(c) <- not core_state.(c)
          | Flip_link (l, p) ->
              if link_state.(l).(p) then begin
                Fabric.fail_link fabric ~leaf:l ~plane:p;
                ignore (Controller.fail_link ctrl ~leaf:l ~plane:p)
              end
              else begin
                Fabric.recover_link fabric ~leaf:l ~plane:p;
                ignore (Controller.recover_link ctrl ~leaf:l ~plane:p)
              end;
              link_state.(l).(p) <- not link_state.(l).(p)
          | Flip_member v -> (
              let members = Controller.members ctrl ~group:1 in
              match List.assoc_opt v members with
              | Some _ when List.length members > 1 ->
                  ignore (Controller.leave ctrl ~group:1 ~host:v)
              | Some _ -> ()
              | None ->
                  ignore
                    (Controller.join ctrl ~group:1 ~host:v
                       ~role:Controller.Both))
          | Flip_wedge l ->
              Fault.wedge_leaf fault l (not wedge_state.(l));
              wedge_state.(l) <- not wedge_state.(l))
        ops;
      (* Flush: the script is finite, so a few churn no-ops drain it and
         let reconcile clear every stale marker — after which the fabric
         must be truthful again. *)
      let dummy = 63 in
      let budget = ref (List.length script + 5) in
      while
        (Controller.install_stats ctrl).Controller.stale_entries > 0
        && !budget > 0
      do
        decr budget;
        match List.assoc_opt dummy (Controller.members ctrl ~group:1) with
        | Some _ ->
            ignore (Controller.leave ctrl ~group:1 ~host:dummy);
            ignore
              (Controller.join ctrl ~group:1 ~host:dummy ~role:Controller.Both)
        | None ->
            ignore
              (Controller.join ctrl ~group:1 ~host:dummy ~role:Controller.Both);
            ignore (Controller.leave ctrl ~group:1 ~host:dummy)
      done;
      if (Controller.install_stats ctrl).Controller.stale_entries > 0 then
        false
      else begin
        (* Zero-blackhole, stated symbolically: for every sender the
           compiled per-sender delivery predicate must subsume the
           receiver endpoints ([None] = explicit unicast degrade, the
           hypervisor delivers). The fabric is truthful here (stale
           markers drained, health flipped in lockstep), so the symbolic
           walk must also agree endpoint-for-endpoint with a real packet
           injection — the two interpretations cross-validate on every
           generated fault state. *)
        let cfg = Controller.installed_config ctrl in
        let ctx = Pred.create_ctx () in
        List.for_all
          (fun (sender, role) ->
            match role with
            | Controller.Receiver -> true
            | Controller.Sender | Controller.Both -> (
                match Verify.compile_sender ctx cfg ~group:1 ~sender with
                | None ->
                    (* the controller must agree this sender is degraded *)
                    Controller.header ctrl ~group:1 ~sender = None
                | Some delivered -> (
                    let symbolic = Pred.leaf_endpoints delivered ~topo in
                    let injected =
                      match Controller.header ctrl ~group:1 ~sender with
                      | None -> None
                      | Some header ->
                          let report =
                            Fabric.inject fabric ~sender ~group:1 ~header
                              ~payload:64
                          in
                          Some (List.map fst report.Fabric.delivered)
                    in
                    match injected with
                    | None ->
                        QCheck.Test.fail_reportf
                          "sender %d: symbolic path but no header" sender
                    | Some hosts when List.sort_uniq compare hosts <> symbolic
                      ->
                        QCheck.Test.fail_reportf
                          "sender %d: symbolic endpoints disagree with \
                           injection"
                          sender
                    | Some _ -> (
                        let need =
                          Verify.receiver_endpoints ctx cfg ~group:1 ~sender
                        in
                        match
                          Verify.check_subsumes ~group:1 ~big:delivered
                            ~small:need
                        with
                        | Ok () -> true
                        | Error w ->
                            QCheck.Test.fail_reportf
                              "blackhole, witness %a" Verify.pp_witness w))))
          (Controller.members ctrl ~group:1)
      end)

(* {1 Twin-controller fault run} *)

let test_fault_run_no_blackholes () =
  let r =
    Churn.fault_run ~seed:7 topo tight_params ~groups:8 ~group_size:6
      ~events:120 ~rate:0.2 ~probe_every:20
  in
  Alcotest.(check bool) "events performed" true (r.Churn.fault_events > 60);
  Alcotest.(check bool) "probes ran" true (r.Churn.probes > 0);
  Alcotest.(check int) "zero blackholes" 0 r.Churn.blackholes;
  Alcotest.(check bool) "faults were actually injected" true
    (r.Churn.faults.Fault.timeouts + r.Churn.faults.Fault.refusals
       + r.Churn.faults.Fault.drops
    > 0);
  Alcotest.(check bool) "degradation observable under wedged switches" true
    (r.Churn.install.Controller.degradations > 0);
  Alcotest.(check bool) "degradation costs traffic, not delivery" true
    (r.Churn.extra_traffic >= 0.0)

let test_fault_run_zero_rate_self_check () =
  let r =
    Churn.fault_run ~seed:7 topo tight_params ~groups:8 ~group_size:6
      ~events:120 ~rate:0.0 ~probe_every:20
  in
  Alcotest.(check int) "zero blackholes" 0 r.Churn.blackholes;
  Alcotest.(check (float 1e-9)) "twin sides identical at rate 0" 0.0
    r.Churn.extra_traffic;
  Alcotest.(check int) "no degradations" 0
    r.Churn.install.Controller.degradations

(* Recovery has one replay: every op after the checkpoint is re-executed,
   whichever pods it touches — ops confined to one pod, a leave from a
   group the checkpoint holds, and a group spanning two pods. *)
let test_recovery_replays_every_pod () =
  let host_in pod i = (pod * 2 * h) + i in
  let replica = Replica.create ~snapshot_every:1000 topo tight_params in
  let add group hosts =
    Replica.apply replica
      (Journal.Add_group { group; members = members_both hosts })
  in
  add 1 [ host_in 0 0; host_in 0 1 ];
  add 2 [ host_in 1 0; host_in 1 1 ];
  Replica.checkpoint replica;
  Replica.apply replica
    (Journal.Join { group = 1; host = host_in 0 2; role = Controller.Both });
  add 3 [ host_in 1 2; host_in 1 3 ];
  Replica.apply replica (Journal.Leave { group = 2; host = host_in 1 0 });
  add 4 [ host_in 0 3; host_in 2 3 ];
  let recovered = Replica.recovered replica in
  let live = Replica.controller replica in
  Alcotest.(check bool) "every group bit-identical to the live controller"
    true
    (same_state_on_groups recovered live [ 1; 2; 3; 4 ]);
  Alcotest.(check (list int)) "the post-checkpoint leave is replayed"
    [ host_in 1 1 ]
    (List.map fst (Controller.members recovered ~group:2));
  let ctx = Pred.create_ctx () in
  List.iter
    (fun group ->
      Alcotest.(check bool)
        (Printf.sprintf "group %d predicate identical" group)
        true
        (Verify.equiv
           (Verify.compile ctx (Replica.installed_config replica) ~group)
           (Verify.compile ctx (Controller.installed_config recovered) ~group)))
    [ 1; 2; 3; 4 ]

let tests =
  [
    Alcotest.test_case "transient faults retried to success" `Quick
      test_transient_faults_retried;
    Alcotest.test_case "silent drop caught by read-back" `Quick
      test_silent_drop_caught_by_readback;
    Alcotest.test_case "wedged fabric degrades but delivers" `Quick
      test_wedged_fabric_degrades_but_delivers;
    Alcotest.test_case "degradation costs traffic" `Quick
      test_degraded_costs_more_traffic;
    Alcotest.test_case "fast-path mirror refused: degrade, re-encode" `Quick
      test_mirror_refused_degrades;
    Alcotest.test_case "fast-path mirror dropped: retried" `Quick
      test_mirror_dropped_retried;
    Alcotest.test_case "failed removal marked, compensated, reconciled" `Quick
      test_failed_removal_marked_and_reconciled;
    Alcotest.test_case "crash recovery bit-identical at 100 points" `Slow
      test_crash_recovery_bit_identical;
    Alcotest.test_case "snapshot decodes restore independently, once" `Quick
      test_snapshot_decodes_independently;
    QCheck_alcotest.to_alcotest prop_faulted_chaos_never_blackholes;
    Alcotest.test_case "fault_run: faults cost traffic, never delivery" `Quick
      test_fault_run_no_blackholes;
    Alcotest.test_case "fault_run: rate 0 is a perfect twin" `Quick
      test_fault_run_zero_rate_self_check;
    Alcotest.test_case "recovery: every pod's ops replay" `Quick
      test_recovery_replays_every_pod;
  ]
