(* Runtime cross-check of the static [zero-alloc] lint verdict: steady-state
   [Encoding.apply_delta] must allocate zero minor words per event. The lint
   rule proves this over the typed AST modulo its trusted base (whitelisted
   externs, reasoned suppressions); here [Gc.minor_words] measures the real
   thing over thousands of live events. Obs stays disabled, matching the
   annotated fast path's suppressed branches. *)

let topo = Topology.running_example ()
let h = topo.Topology.hosts_per_leaf

(* High staleness ceiling: the harness applies thousands of deltas to one
   encoding, which must all stay on the fast path. *)
let params ?r ?hmax_leaf ?fmax () =
  Params.create ?r ?hmax_leaf ?fmax ~staleness_limit:1_000_000
    ~header_budget:None ()

let enc_of params hosts =
  let srules = Srule_state.create topo ~fmax:params.Params.fmax in
  Encoding.encode params srules (Tree.of_members topo hosts)

(* Join/leave the same host forever: every event lands on the fast path and
   the encoding returns to its previous state after each pair, so the
   probe's diagnostic re-run sees identical behavior. Both deltas are
   preconstructed — the loop itself performs no setup work. *)
let churn_fn enc host =
  let join = Encoding.delta_of_host topo ~joining:true host in
  let leave = Encoding.delta_of_host topo ~joining:false host in
  fun i ->
    let delta = if i land 1 = 0 then join else leave in
    match Encoding.apply_delta enc delta with
    | Encoding.Applied _ -> ()
    | Encoding.Reencode _ -> failwith "fast path declined mid-probe"

let check_clean name report =
  match report.Allocs.first_alloc with
  | Some (event, words) ->
      Alcotest.failf "%s: event %d allocated %d minor words (%.1f total)"
        name event words report.Allocs.total_words
  | None ->
      Alcotest.(check (float 0.0))
        (name ^ ": minor words per event")
        0.0 report.Allocs.per_event

(* Warm-up absorbs one-time lazy costs (tree member-buffer growth); 64
   events is far past any of them. The probed host must neither empty its
   leaf on leave nor land on a new leaf on join — churn a third host behind
   a leaf that keeps two members. *)
let warmup = 64
let events = 512

let test_prule_singleton () =
  (* [0; 1; h]: singleton p-rules, each owning a copy of its leaf's tree
     bitmap. *)
  let enc = enc_of (params ()) [ 0; 1; h ] in
  check_clean "singleton p-rule churn"
    (Allocs.probe ~warmup ~events (churn_fn enc 2))

let test_prule_shared () =
  (* Three leaves with identical one-port bitmaps, hmax 1 and a wide
     redundancy budget: they share one p-rule, so every join runs the
     prospective budget check and every leave refreshes the rule bitmap —
     the most allocation-prone path. *)
  let enc = enc_of (params ~r:8 ~hmax_leaf:1 ()) [ 0; h; 2 * h ] in
  (match
     List.find_opt
       (fun (r : Prule.prule) -> List.length r.Prule.switches > 1)
       enc.Encoding.d_leaf.Clustering.prules
   with
  | Some _ -> ()
  | None -> Alcotest.fail "setup should share one p-rule across leaves");
  check_clean "shared p-rule churn"
    (Allocs.probe ~warmup ~events (churn_fn enc 2))

let test_default_site () =
  (* fmax 0 starves the s-rule ledger: spill lands in the default p-rule,
     whose leave path rebuilds the default bitmap from the member leaves. *)
  let enc = enc_of (params ~hmax_leaf:1 ~fmax:0 ()) [ 0; 1; h; 2 * h ] in
  (match enc.Encoding.d_leaf.Clustering.default with
  | Some _ -> ()
  | None -> Alcotest.fail "setup should use the default rule");
  check_clean "default-rule churn"
    (Allocs.probe ~warmup ~events (churn_fn enc 2))

let test_probe_detects_allocation () =
  (* The harness itself must not report false negatives: a loop that
     allocates one cell per event is caught with the right event index. *)
  let sink = ref [] in
  let report =
    Allocs.probe ~warmup:4 ~events:32 (fun i ->
        if i >= 4 then sink := i :: !sink)
  in
  (match report.Allocs.first_alloc with
  | Some (0, words) ->
      Alcotest.(check bool) "positive words" true (words > 0)
  | Some (event, _) -> Alcotest.failf "first offender misattributed to %d" event
  | None -> Alcotest.fail "allocating loop reported clean");
  Alcotest.(check bool) "per-event words visible" true
    (report.Allocs.per_event > 0.0)

(* A block over [Max_young_wosize] words is allocated straight in the
   major heap, where [Gc.minor_words] does not count it. The singleton
   p-rule churn plus one 577-word array per event (about one packet
   report on perfbench's [clos]) over 1,024 events must read 578 words
   per event (the array and its header), pinned to the first event. *)
let test_probe_sees_major_allocation () =
  let churn = churn_fn (enc_of (params ()) [ 0; 1; h ]) 2 in
  let sink = ref [||] in
  let report =
    Allocs.probe ~warmup ~events:1_024 (fun i ->
        churn i;
        sink := Array.make 577 i)
  in
  Alcotest.(check (float 1.0)) "words per event" 578.0 report.Allocs.per_event;
  match report.Allocs.first_alloc with
  | Some (0, words) -> Alcotest.(check int) "first event's words" 578 words
  | Some (event, _) -> Alcotest.failf "first offender misattributed to %d" event
  | None -> Alcotest.fail "major-heap allocation reported clean"

let tests =
  [
    Alcotest.test_case "singleton p-rule churn is zero-alloc" `Quick
      test_prule_singleton;
    Alcotest.test_case "shared p-rule churn is zero-alloc" `Quick
      test_prule_shared;
    Alcotest.test_case "default-rule churn is zero-alloc" `Quick
      test_default_site;
    Alcotest.test_case "probe detects an allocating loop" `Quick
      test_probe_detects_allocation;
    Alcotest.test_case "probe sees major-heap allocation" `Quick
      test_probe_sees_major_allocation;
  ]
