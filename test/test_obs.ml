(* elmo_obs: deterministic clocks, the metrics registry, span tracing, and
   the controller counters they mirror. Everything here runs under the
   logical clock, so the assertions are exact — no timing tolerances. *)

module Clock = Elmo_obs.Clock
module Metrics = Elmo_obs.Metrics
module Trace = Elmo_obs.Trace
module Ctx = Elmo_obs.Ctx
module Obs = Elmo_obs.Obs
module Provenance = Elmo_obs.Provenance
module Jsonx = Elmo_obs.Jsonx

let feq = Alcotest.float 1e-9

let small_topo () =
  Topology.create ~pods:2 ~leaves_per_pod:2 ~spines_per_pod:2 ~hosts_per_leaf:4
    ~cores_per_plane:1

(* Install a fresh logical-clock context around [f]; always restores the
   disabled default so test cases stay independent. *)
let with_ctx ?metrics ?trace f =
  Obs.install (Ctx.make ?metrics ?trace ~clock:(Clock.logical ()) ());
  Fun.protect ~finally:(fun () -> Obs.install Ctx.disabled) f

let counter m name =
  match List.assoc_opt name (Metrics.dump m) with
  | Some (Metrics.Counter n) -> n
  | Some _ -> Alcotest.failf "%s is not a counter" name
  | None -> 0

let hist m name =
  match List.assoc_opt name (Metrics.dump m) with
  | Some (Metrics.Histogram h) -> h
  | _ -> Alcotest.failf "%s is not a histogram" name

(* {1 Clock} *)

let test_logical_clock () =
  let c = Clock.logical () in
  Alcotest.check feq "tick 1" 1.0 (Clock.now_us c);
  Alcotest.check feq "tick 2" 2.0 (Clock.now_us c);
  (match Clock.kind c with
  | Clock.Logical -> ()
  | Clock.Monotonic -> Alcotest.fail "logical clock reports Monotonic");
  List.iter
    (fun (s, k) ->
      match (Clock.kind_of_string s, k) with
      | Some Clock.Logical, Clock.Logical | Some Clock.Monotonic, Clock.Monotonic
        ->
          ()
      | _ -> Alcotest.failf "kind_of_string %S" s)
    [
      ("logical", Clock.Logical);
      ("tick", Clock.Logical);
      ("monotonic", Clock.Monotonic);
      ("mono", Clock.Monotonic);
      ("wall", Clock.Monotonic);
    ];
  Alcotest.(check bool)
    "unknown kind rejected" true
    (Option.is_none (Clock.kind_of_string "sundial"))

(* {1 Metrics} *)

let test_metrics_registry () =
  let m = Metrics.create () in
  Metrics.incr m "a.count";
  Metrics.incr m ~n:4 "a.count";
  Metrics.gauge m "b.gauge" 2.5;
  for i = 1 to 100 do
    Metrics.observe m "c.hist" (float_of_int i)
  done;
  Alcotest.(check int) "counter" 5 (counter m "a.count");
  let h = hist m "c.hist" in
  Alcotest.(check int) "hist count" 100 h.Metrics.count;
  Alcotest.check feq "hist sum" 5050.0 h.Metrics.sum;
  Alcotest.check feq "hist min" 1.0 h.Metrics.min;
  Alcotest.check feq "hist max" 100.0 h.Metrics.max;
  (* log2 buckets: quantiles are bucket-resolution, so only sanity-bound
     them. *)
  Alcotest.(check bool) "p50 ordered" true (h.Metrics.p50 <= h.Metrics.p95);
  Alcotest.(check bool) "p95 ordered" true (h.Metrics.p95 <= h.Metrics.p99);
  Alcotest.(check bool)
    "p99 within range" true
    (h.Metrics.p99 >= h.Metrics.min && h.Metrics.p99 <= h.Metrics.max);
  (* dump is sorted by name *)
  let names = List.map fst (Metrics.dump m) in
  Alcotest.(check (list string))
    "sorted dump" (List.sort String.compare names) names;
  let json = Metrics.to_json m in
  Alcotest.(check bool)
    "json object" true
    (String.length json > 2 && json.[0] = '{')

(* {1 Bucket boundaries and Prometheus exposition} *)

(* Pin the log2 bucket layout: bucket 0 holds v <= 1 (and NaN), bucket
   e >= 1 holds (2^(e-1), 2^e] by bound — except an exact power 2^e lands
   in bucket e+1 because frexp 2^e = (0.5, e+1). The bounds paired by
   dump_buckets make that wrinkle harmless: every observation stays <= its
   bucket's upper bound. *)
let test_dump_buckets () =
  let m = Metrics.create () in
  List.iter
    (Metrics.observe m "h")
    [ 0.5; 1.0; 1.5; 2.0; 3.9; 4.0; 1023.9; 1024.0 ];
  let buckets =
    match Metrics.dump_buckets m "h" with
    | Some b -> b
    | None -> Alcotest.fail "histogram missing from dump_buckets"
  in
  Alcotest.check feq "bound 0" 1.0 (fst buckets.(0));
  Alcotest.check feq "bound 1" 2.0 (fst buckets.(1));
  Alcotest.check feq "bound 10" 1024.0 (fst buckets.(10));
  Alcotest.check feq "bound 11" 2048.0 (fst buckets.(11));
  List.iter
    (fun (i, expect) ->
      Alcotest.(check int) (Printf.sprintf "bucket %d" i) expect (snd buckets.(i)))
    [ (0, 2); (1, 1); (2, 2); (3, 1); (4, 0); (10, 1); (11, 1) ];
  Alcotest.(check int) "all observations bucketed" 8
    (Array.fold_left (fun acc (_, c) -> acc + c) 0 buckets);
  (* Every observation respects its bucket's upper bound (the bound pairing
     is what expose feeds into le="..."). *)
  Array.iteri
    (fun i (bound, c) ->
      if c > 0 && i > 0 then
        Alcotest.(check bool) "bounds ordered" true (bound > fst buckets.(i - 1)))
    buckets;
  Metrics.incr m "n";
  Alcotest.(check bool) "counter has no buckets" true
    (Option.is_none (Metrics.dump_buckets m "n"));
  Alcotest.(check bool) "absent name has no buckets" true
    (Option.is_none (Metrics.dump_buckets m "missing"))

let test_expose () =
  let m = Metrics.create () in
  Metrics.incr m ~n:5 "a.count";
  Metrics.gauge m "b.gauge" 2.5;
  List.iter (Metrics.observe m "c.hist") [ 0.5; 1.5; 3.0 ];
  let text = Metrics.expose m in
  List.iter
    (fun affix ->
      Alcotest.(check bool) (affix ^ " present") true
        (Astring.String.is_infix ~affix text))
    [
      "# TYPE elmo_a_count counter\nelmo_a_count 5\n";
      "# TYPE elmo_b_gauge gauge\nelmo_b_gauge 2.500\n";
      "# TYPE elmo_c_hist histogram\n";
      (* cumulative buckets: 0.5 <= 1; 1.5 <= 2; 3.0 <= 4 *)
      {|elmo_c_hist_bucket{le="1.000"} 1|};
      {|elmo_c_hist_bucket{le="2.000"} 2|};
      {|elmo_c_hist_bucket{le="4.000"} 3|};
      {|elmo_c_hist_bucket{le="+Inf"} 3|};
      "elmo_c_hist_sum 5.000\n";
      "elmo_c_hist_count 3\n";
    ];
  (* Dotted names fold to the Prometheus charset; no raw dots survive. *)
  Alcotest.(check bool) "names sanitized" false
    (Astring.String.is_infix ~affix:"a.count" text)

(* {1 Spans and the disabled default} *)

let test_disabled_noop () =
  (* No context installed: probes are no-ops and with_span is transparent,
     including for exceptions. *)
  Obs.incr "ignored";
  Obs.observe "ignored" 1.0;
  Obs.instant "ignored";
  Alcotest.(check int) "with_span passthrough" 9
    (Obs.with_span "t" (fun () -> 9));
  Alcotest.check_raises "with_span reraises" Exit (fun () ->
      Obs.with_span "t" (fun () -> raise Exit));
  Alcotest.(check bool) "disabled" false (Obs.enabled ())

let test_span_emission () =
  let m = Metrics.create () in
  let clock = Clock.logical () in
  let tr = Trace.create ~clock () in
  Obs.install (Ctx.make ~metrics:m ~trace:tr ~clock ());
  Fun.protect
    ~finally:(fun () -> Obs.install Ctx.disabled)
    (fun () ->
      let v =
        Obs.with_span "outer" ~attrs:[ ("k", Obs.Int 3) ] (fun () ->
            Obs.with_span "inner" (fun () -> ());
            42)
      in
      Alcotest.(check int) "span result" 42 v;
      Alcotest.check_raises "span reraises" Exit (fun () ->
          Obs.with_span "boom" (fun () -> raise Exit)));
  Alcotest.(check int) "three spans" 3 (Trace.event_count tr);
  let h = hist m "span.outer_us" in
  Alcotest.(check int) "span histogram" 1 h.Metrics.count;
  (* logical clock: outer wraps inner's two reads, so its duration is 3 *)
  Alcotest.check feq "outer duration in ticks" 3.0 h.Metrics.sum;
  let jsonl = Trace.to_jsonl tr in
  Alcotest.(check bool) "boom span flushed" true
    (Astring.String.is_infix ~affix:{|"name":"boom"|} jsonl);
  let chrome = Trace.to_chrome tr in
  Alcotest.(check bool) "chrome prefix" true
    (Astring.String.is_prefix ~affix:{|{"traceEvents":[|} chrome);
  Alcotest.(check bool) "complete events" true
    (Astring.String.is_infix ~affix:{|"ph":"X"|} chrome);
  Alcotest.(check bool) "attrs serialized" true
    (Astring.String.is_infix ~affix:{|"args":{"k":3}|} chrome)

(* {1 Determinism of traced runs} *)

(* A small controller workload: batch install then a churn tail. *)
let workload () =
  let topo = small_topo () in
  let params = Params.create ~fmax:64 () in
  let ctrl = Controller.create topo params in
  let rng = Rng.create 13 in
  let n = Topology.num_hosts topo in
  let batch =
    List.init 4 (fun g ->
        let members =
          List.init (4 + (g * 2)) (fun i ->
              ((i * 3) mod n, if i = 0 then Controller.Both else Controller.Receiver))
          |> List.sort_uniq (fun (a, _) (b, _) -> Int.compare a b)
        in
        (g, members))
  in
  ignore (Controller.install_all ctrl batch);
  for _ = 1 to 40 do
    let group = Rng.int rng 4 in
    let members = Controller.members ctrl ~group in
    let is_member h = List.mem_assoc h members in
    let h = Rng.int rng n in
    if is_member h then ignore (Controller.leave ctrl ~group ~host:h)
    else ignore (Controller.join ctrl ~group ~host:h ~role:Controller.Receiver)
  done;
  ctrl

let traced_workload () =
  let clock = Clock.logical () in
  let tr = Trace.create ~clock () in
  Obs.install (Ctx.make ~trace:tr ~clock ());
  Fun.protect
    ~finally:(fun () -> Obs.install Ctx.disabled)
    (fun () ->
      ignore (workload ());
      Trace.to_jsonl tr)

let test_trace_byte_identical () =
  let a = traced_workload () in
  let b = traced_workload () in
  Alcotest.(check bool) "nonempty" true (String.length a > 0);
  Alcotest.(check string) "same-seed traces byte-identical" a b

let test_results_identical_with_obs () =
  let occupancy ctrl =
    let s = Controller.srule_state ctrl in
    ( Array.to_list (Srule_state.leaf_occupancy s),
      Array.to_list (Srule_state.spine_occupancy s) )
  in
  let plain = occupancy (workload ()) in
  let m = Metrics.create () in
  let traced =
    with_ctx ~metrics:m
      ~trace:(Trace.create ~clock:(Clock.logical ()) ())
      (fun () -> occupancy (workload ()))
  in
  Alcotest.(check (pair (list int) (list int)))
    "occupancy identical with observability on" plain traced;
  (* A hook-free install records no counter; its calls are counted by the
     span histogram, one [controller.add_group] span per batch group. *)
  Alcotest.(check int) "metrics recorded: one add_group span per group" 4
    (hist m "span.controller.add_group_us").Metrics.count

(* {1 Controller churn accounting} *)

(* Mixed incremental/full-re-encode stream: a tight staleness limit forces
   periodic re-encodes between fast-path hits. Every receiver event must
   land in exactly one churn_stats bucket, fast-path updates must stay
   local (no pod-level changes), and the obs counters must mirror
   churn_stats exactly. *)
let test_churn_stats_reconcile () =
  let topo = small_topo () in
  let params = Params.create ~fmax:64 ~staleness_limit:3 () in
  let m = Metrics.create () in
  with_ctx ~metrics:m (fun () ->
      let ctrl = Controller.create topo params in
      let rng = Rng.create 31 in
      let n = Topology.num_hosts topo in
      ignore
        (Controller.add_group ctrl ~group:0
           [ (0, Controller.Both); (5, Controller.Receiver) ]);
      let receiver_events = ref 0 and sender_events = ref 0 in
      let fast = ref 0 and slow = ref 0 in
      for ev = 1 to 120 do
        let before = Controller.churn_stats ctrl in
        let members = Controller.members ctrl ~group:0 in
        let h = Rng.int rng n in
        (* Sender-only joins AND leaves of sender-only members touch no
           rules, so neither churn bucket moves for them. *)
        let is_sender_event =
          match List.assoc_opt h members with
          | Some Controller.Sender -> true
          | Some (Controller.Receiver | Controller.Both) -> false
          | None -> ev mod 10 = 0
        in
        let updates =
          if List.mem_assoc h members then
            Controller.leave ctrl ~group:0 ~host:h
          else
            Controller.join ctrl ~group:0 ~host:h
              ~role:
                (if is_sender_event then Controller.Sender
                 else Controller.Receiver)
        in
        let after = Controller.churn_stats ctrl in
        let df = after.Controller.fast_path - before.Controller.fast_path in
        let ds = after.Controller.reencoded - before.Controller.reencoded in
        fast := !fast + df;
        slow := !slow + ds;
        if is_sender_event then begin
          incr sender_events;
          Alcotest.(check int) "sender events count in neither bucket" 0 (df + ds)
        end
        else begin
          incr receiver_events;
          Alcotest.(check int) "exactly one bucket per receiver event" 1 (df + ds)
        end;
        if df = 1 then begin
          (* The in-place fast path never restructures spine bitmaps and
             touches at most the changed host's leaf. *)
          Alcotest.(check (list int)) "fast path: no pod updates" []
            updates.Controller.pods;
          Alcotest.(check bool) "fast path: at most one leaf" true
            (List.length updates.Controller.leaves <= 1)
        end
      done;
      let stats = Controller.churn_stats ctrl in
      Alcotest.(check int) "fast total" !fast stats.Controller.fast_path;
      Alcotest.(check int) "slow total" !slow stats.Controller.reencoded;
      Alcotest.(check int) "every receiver event accounted"
        !receiver_events
        (stats.Controller.fast_path + stats.Controller.reencoded);
      (* The tight staleness limit really did mix the two paths. *)
      Alcotest.(check bool) "some fast" true (stats.Controller.fast_path > 0);
      Alcotest.(check bool) "some slow" true (stats.Controller.reencoded > 0);
      (* The per-site encoding.fast_path.* split sums to churn_stats'
         fast-path total. *)
      let fast_sites =
        counter m "encoding.fast_path.prule"
        + counter m "encoding.fast_path.srule"
        + counter m "encoding.fast_path.default"
      in
      Alcotest.(check int) "per-site fast-path split sums" stats.Controller.fast_path
        fast_sites)

(* {1 Provenance} *)

let test_provenance () =
  let p = Provenance.capture ~seed:7 ~params:"R=12" ~domains:3 () in
  Alcotest.(check int) "domains" 3 p.Provenance.domains;
  Alcotest.(check (option int)) "seed" (Some 7) p.Provenance.seed;
  let json = Provenance.to_json p in
  List.iter
    (fun affix ->
      Alcotest.(check bool) (affix ^ " present") true
        (Astring.String.is_infix ~affix json))
    [
      {|"git_rev":|}; {|"cores":|}; {|"domains":3|}; {|"seed":7|};
      {|"params":"R=12"|}; {|"clock":|};
    ];
  let bare = Provenance.capture () in
  Alcotest.(check bool) "absent seed is null" true
    (Astring.String.is_infix ~affix:{|"seed":null|} (Provenance.to_json bare))

(* Exact bytes on hand-built records: [to_json] renders through [Jsonx.t]
   and must keep the compact layout the BENCH files and perfbench embed. *)
let test_provenance_bytes () =
  let p =
    { Provenance.git_rev = "3c675f6"; cores = 8; domains = 4; seed = Some 5;
      params = Some "R=12 \"x\""; clock = "logical" }
  in
  Alcotest.(check string) "seed and params set"
    {|{"git_rev":"3c675f6","cores":8,"domains":4,"seed":5,"params":"R=12 \"x\"","clock":"logical"}|}
    (Provenance.to_json p);
  Alcotest.(check string) "seed and params absent"
    {|{"git_rev":"3c675f6","cores":8,"domains":4,"seed":null,"params":null,"clock":"logical"}|}
    (Provenance.to_json { p with seed = None; params = None })

(* {1 Jsonx} *)

let test_jsonx_tree () =
  let tree =
    Jsonx.Obj
      [
        ("a\"b\\c\n", Int min_int);
        ("max", Int max_int);
        ("xs", List [ Num 0.5; Null; Bool true; List []; Obj [] ]);
        ("raw", Raw {|{"k":1}|});
        ("s", Str "tab\there");
        ("n", Num 3.0);
      ]
  in
  Alcotest.(check string) "rendering"
    (Printf.sprintf
       {|{"a\"b\\c\n":%d,"max":%d,"xs":[0.5,null,true,[],{}],"raw":{"k":1},"s":"tab\there","n":3}|}
       min_int max_int)
    (Jsonx.to_string tree);
  List.iter
    (fun f ->
      Alcotest.(check string) "non-finite as Jsonx.float" (Jsonx.float f)
        (Jsonx.to_string (Num f)))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let prop_jsonx_num_roundtrip =
  QCheck.Test.make ~name:"Jsonx Num reads back exactly" ~count:1000
    QCheck.(make ~print:(Printf.sprintf "%h") Gen.(map Int64.float_of_bits int64))
    (fun f ->
      QCheck.assume (Float.is_finite f);
      Float.equal (float_of_string (Jsonx.to_string (Num f))) f)

(* {1 One registry per run} *)

let test_metrics_kind_mismatch () =
  let m = Metrics.create () in
  Metrics.incr m "x";
  Alcotest.check_raises "gauge on a counter"
    (Invalid_argument "Metrics.gauge: x is not a gauge") (fun () ->
      Metrics.gauge m "x" 1.0);
  Alcotest.check_raises "observe on a counter"
    (Invalid_argument "Metrics.observe: x is not a histogram") (fun () ->
      Metrics.observe m "x" 1.0);
  Metrics.observe m "h" 3.0;
  Alcotest.check_raises "incr on a histogram"
    (Invalid_argument "Metrics.incr: h is not a counter") (fun () ->
      Metrics.incr m "h");
  Alcotest.(check int) "counter kept" 1 (counter m "x");
  Alcotest.(check int) "histogram kept" 1 (hist m "h").Metrics.count

let test_metrics_dump_is_a_snapshot () =
  let m = Metrics.create () in
  Metrics.incr m ~n:2 "n";
  Metrics.gauge m "g" 1.0;
  Metrics.observe m "h" 4.0;
  let before = Metrics.dump m in
  let buckets_before = Metrics.dump_buckets m "h" in
  Metrics.incr m ~n:3 "n";
  Metrics.gauge m "g" 7.0;
  Metrics.observe m "h" 16.0;
  (match List.assoc_opt "n" before with
  | Some (Metrics.Counter n) -> Alcotest.(check int) "old counter" 2 n
  | _ -> Alcotest.fail "counter missing");
  (match List.assoc_opt "h" before with
  | Some (Metrics.Histogram h) -> Alcotest.(check int) "old hist count" 1 h.Metrics.count
  | _ -> Alcotest.fail "histogram missing");
  let total = function
    | Some b -> Array.fold_left (fun n (_, c) -> n + c) 0 b
    | None -> Alcotest.fail "no buckets"
  in
  Alcotest.(check int) "old buckets" 1 (total buckets_before);
  Alcotest.(check int) "live counter" 5 (counter m "n");
  Alcotest.(check int) "live buckets" 2 (total (Metrics.dump_buckets m "h"));
  (match List.assoc_opt "g" (Metrics.dump m) with
  | Some (Metrics.Gauge g) -> Alcotest.check feq "last gauge write wins" 7.0 g
  | _ -> Alcotest.fail "gauge missing");
  Alcotest.(check bool) "counter has no buckets" true
    (Metrics.dump_buckets m "n" = None)

let test_logical_clocks_independent () =
  let a = Clock.logical () and b = Clock.logical () in
  Alcotest.check feq "a tick 1" 1.0 (Clock.now_us a);
  Alcotest.check feq "a tick 2" 2.0 (Clock.now_us a);
  Alcotest.check feq "b starts at tick 1" 1.0 (Clock.now_us b);
  Alcotest.check feq "a unaffected by b" 3.0 (Clock.now_us a)

(* Every encode of a sweep point runs on the calling domain, so each lands
   in the installed registry; the sweep's output is the same with and
   without observability. *)
let test_sweep_spans_one_registry () =
  let cfg =
    {
      Scalability.topo = Topology.facebook_fabric ();
      tenants = 40;
      total_groups = 200;
      strategy = Vm_placement.Pack_up_to 12;
      dist = Group_dist.Wve;
      params = Params.create ~fmax:2 ();
      seed = 3;
    }
  in
  let pp = Format.asprintf "%a" Scalability.pp_point in
  let plain = pp (Scalability.run_point cfg ~r:0) in
  let m = Metrics.create () in
  let traced = with_ctx ~metrics:m (fun () -> pp (Scalability.run_point cfg ~r:0)) in
  Alcotest.(check string) "point identical with observability on" plain traced;
  Alcotest.(check int) "one run_point span" 1
    (hist m "span.scalability.run_point_us").Metrics.count;
  Alcotest.(check int) "one encode span per group" 200
    (hist m "span.encoding.encode_us").Metrics.count

let tests =
  [
    Alcotest.test_case "logical clock" `Quick test_logical_clock;
    Alcotest.test_case "metrics registry" `Quick test_metrics_registry;
    Alcotest.test_case "metrics dump is a snapshot" `Quick
      test_metrics_dump_is_a_snapshot;
    Alcotest.test_case "dump_buckets boundaries" `Quick test_dump_buckets;
    Alcotest.test_case "prometheus exposition" `Quick test_expose;
    Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
    Alcotest.test_case "span emission" `Quick test_span_emission;
    Alcotest.test_case "trace byte-identical" `Quick test_trace_byte_identical;
    Alcotest.test_case "results identical with obs" `Quick
      test_results_identical_with_obs;
    Alcotest.test_case "churn stats reconcile" `Quick test_churn_stats_reconcile;
    Alcotest.test_case "sweep spans in one registry" `Quick
      test_sweep_spans_one_registry;
    Alcotest.test_case "provenance" `Quick test_provenance;
    Alcotest.test_case "provenance bytes" `Quick test_provenance_bytes;
    Alcotest.test_case "jsonx tree" `Quick test_jsonx_tree;
    QCheck_alcotest.to_alcotest prop_jsonx_num_roundtrip;
    Alcotest.test_case "metrics kind mismatch" `Quick test_metrics_kind_mismatch;
    Alcotest.test_case "logical clocks independent" `Quick
      test_logical_clocks_independent;
  ]
