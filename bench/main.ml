(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md section 4 for the experiment index and
   EXPERIMENTS.md for paper-vs-measured numbers).

   Usage: main.exe [target ...]
   Targets: fig4 fig5 uniform constrained table2 failures fig6 sflow fig7
            table3 ablation twotier nonclos legacy bisection strawman churn
            hotpath faults recovery te-baseline verify footprint micro all
            (default: all)

   Scale: ELMO_GROUPS=<n> sets the sampled group count (default 100_000);
   ELMO_FULL=1 runs the paper's full million groups. The BENCH_*.json
   targets take positive-integer knobs: ELMO_CHURN_EVENTS, ELMO_FAULT_EVENTS,
   ELMO_RECOVERY_EVENTS, ELMO_RECOVERY_TRIALS, ELMO_VERIFY_GROUPS,
   ELMO_HOTPATH_EVENTS, ELMO_TE_GROUPS, ELMO_TE_PACKETS.
   Each of those targets writes its file, then exits 1 if a gate failed.

   Observability: --metrics prints the elmo_obs registry dump after the
   selected targets; --trace additionally records spans and writes
   BENCH_trace.json (Chrome trace_event format — load it in chrome://tracing
   or Perfetto). ELMO_TRACE_CLOCK=mono opts into wall-clock timestamps;
   the default logical clock keeps traced runs byte-deterministic. *)

module Obs = Elmo_obs.Obs
module Obs_ctx = Elmo_obs.Ctx
module Obs_clock = Elmo_obs.Clock
module Obs_metrics = Elmo_obs.Metrics
module Obs_trace = Elmo_obs.Trace
module Provenance = Elmo_obs.Provenance
module Jsonx = Elmo_obs.Jsonx
module Tel_report = Elmo_telemetry.Report
module Tel_recorder = Elmo_telemetry.Recorder
module Tel_series = Elmo_telemetry.Link_series
module Tel_sketch = Elmo_telemetry.Sketch
module Tel_flight = Elmo_telemetry.Flight_recorder

let printf = Format.printf

(* A scale knob: a positive integer from the environment, [default] when
   unset; any other value exits 1. *)
let env name default =
  match Sys.getenv_opt name with
  | None -> default
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> n
      | Some _ | None ->
          printf "%s must be a positive integer (got %S)@." name s;
          exit 1)

(* {1 BENCH files} *)

(* Gates that failed so far; [write_bench] exits 1 when there are any. *)
let failed_gates = ref []

(* [gate name ok] is the field value [Bool ok]; a false [ok] also fails the
   target once its file is written. *)
let gate name ok =
  if not ok then failed_gates := name :: !failed_gates;
  Jsonx.Bool ok

(* The 2,048-host Clos most BENCH targets run on. *)
let clos_2048 () =
  Topology.create ~pods:8 ~leaves_per_pod:8 ~spines_per_pod:4 ~hosts_per_leaf:32
    ~cores_per_plane:4

let params_string = Format.asprintf "%a" Params.pp

(* Write one BENCH file: the benchmark name, provenance and topology, then
   the target's [fields], then the metrics dump when a registry is active
   (absent otherwise, so default runs carry no metrics). One line per
   top-level field and per object in a top-level list. Exits 1 after the
   write if a gate failed. *)
let write_bench file ~benchmark ~seed ~params ?(link_gbps = false)
    ~(topo : Topology.t) fields =
  let topology =
    [
      ("pods", Jsonx.Int topo.pods);
      ("leaves_per_pod", Int topo.leaves_per_pod);
      ("spines_per_pod", Int topo.spines_per_pod);
      ("hosts_per_leaf", Int topo.hosts_per_leaf);
    ]
    @ if link_gbps then [ ("link_gbps", Num topo.link_gbps) ] else []
  in
  let metrics =
    match Obs_ctx.metrics (Obs.current ()) with
    | Some m -> [ ("metrics", Jsonx.Raw (Obs_metrics.to_json m)) ]
    | None -> []
  in
  let prov = Provenance.capture ~seed ~params () in
  let line (k, v) =
    "  " ^ Jsonx.string k ^ ": "
    ^
    match v with
    | Jsonx.List (Obj _ :: _ as l) ->
        "[\n    " ^ String.concat ",\n    " (List.map Jsonx.to_string l) ^ "\n  ]"
    | v -> Jsonx.to_string v
  in
  let fields =
    [
      ("benchmark", Jsonx.Str benchmark);
      ("provenance", Raw (Provenance.to_json prov));
      ("topology", Obj topology);
    ]
    @ fields @ metrics
  in
  Out_channel.with_open_text file (fun oc ->
      output_string oc ("{\n" ^ String.concat ",\n" (List.map line fields) ^ "\n}\n"));
  printf "wrote %s@." file;
  if !failed_gates <> [] then begin
    List.iter (printf "FAIL: gate %s@.") (List.rev !failed_gates);
    exit 1
  end

(* Run [f] with a metrics registry guaranteed present: targets whose JSON
   embeds a "metrics" block install a local registry when the user did not
   pass --metrics/--trace, and restore the previous context afterwards.
   The local registry's spans run on the clock that the file's provenance
   names (ELMO_TRACE_CLOCK, logical by default), as --trace's do. With an
   ambient registry already active, [f] runs under it unchanged so
   --metrics keeps aggregating across targets. *)
let with_local_metrics f =
  let prev = Obs.current () in
  if Obs_ctx.active prev then f ()
  else begin
    let metrics = Obs_metrics.create () in
    let clock = Obs_clock.of_kind (Obs_clock.kind_of_env ()) in
    Obs.install (Obs_ctx.make ~metrics ~clock ());
    Fun.protect ~finally:(fun () -> Obs.install prev) f
  end

let hr title =
  printf "@.============================================================@.";
  printf "%s@." title;
  printf "============================================================@."

(* {1 Figures 4 and 5: scalability sweep} *)

let r_values = [ 0; 3; 6; 9; 12 ]

let print_points points =
  printf "@.%-4s %-10s %-10s %-22s %-22s %-12s %-12s@." "R" "covered%"
    "pure-p%" "leaf s-rules mean/max" "spine s-rules mean/max" "ovh 64B"
    "ovh 1500B";
  List.iter
    (fun (p : Scalability.point) ->
      let pct x = 100.0 *. float_of_int x /. float_of_int (max 1 p.Scalability.total_groups) in
      printf "%-4d %-10.1f %-10.1f %9.1f / %-10.0f %9.1f / %-10.0f %-12.1f %-12.1f@."
        p.Scalability.r
        (pct p.Scalability.covered)
        (pct p.Scalability.covered_pure_prules)
        p.Scalability.leaf_srules.Stats.mean p.Scalability.leaf_srules.Stats.max
        p.Scalability.spine_srules.Stats.mean p.Scalability.spine_srules.Stats.max
        (100.0 *. p.Scalability.overhead_64)
        (100.0 *. p.Scalability.overhead_1500))
    points;
  match points with
  | p :: _ ->
      printf
        "reference lines: unicast +%.0f%%, overlay +%.0f%% (transmissions vs ideal)@."
        (100.0 *. p.Scalability.unicast_overhead)
        (100.0 *. p.Scalability.overlay_overhead);
      printf "header bytes: %a@." Stats.pp_summary p.Scalability.header_bytes;
      printf "Li et al. entries: leaf %a@.                   spine %a@."
        Stats.pp_summary p.Scalability.li_leaf_entries Stats.pp_summary
        p.Scalability.li_spine_entries
  | [] -> ()

let fig4 () =
  hr "Figure 4: P=12 placement, WVE group sizes";
  let cfg = Scalability.default_config () in
  printf "topology: %a; groups: %d; params: %a@." Topology.pp
    cfg.Scalability.topo cfg.Scalability.total_groups Params.pp
    cfg.Scalability.params;
  print_points (Scalability.run cfg ~r_values)

let fig5 () =
  hr "Figure 5: P=1 placement (dispersed), WVE group sizes";
  let cfg =
    { (Scalability.default_config ()) with
      Scalability.strategy = Vm_placement.Pack_up_to 1 }
  in
  print_points (Scalability.run cfg ~r_values)

let uniform () =
  hr "In-text: Uniform group-size distribution";
  List.iter
    (fun (label, strategy) ->
      printf "@.--- %s ---@." label;
      let cfg =
        { (Scalability.default_config ()) with
          Scalability.strategy; dist = Group_dist.Uniform }
      in
      print_points (Scalability.run cfg ~r_values:[ 0; 12 ]))
    [ ("P=12", Vm_placement.Pack_up_to 12); ("P=1", Vm_placement.Pack_up_to 1) ]

let constrained () =
  hr "In-text: constrained s-rule capacity (10K) and reduced header budget";
  let base = Scalability.default_config () in
  let scale = base.Scalability.total_groups in
  let fmax10k = max 50 (10_000 * scale / 1_000_000) in
  List.iter
    (fun (label, strategy, dist, params) ->
      printf "@.--- %s ---@." label;
      let cfg = { base with Scalability.strategy; dist; params } in
      print_points (Scalability.run cfg ~r_values:[ 0; 6; 12 ]))
    [
      ( "P=1, WVE, Fmax=10K-scaled",
        Vm_placement.Pack_up_to 1,
        Group_dist.Wve,
        Params.create ~fmax:fmax10k () );
      ( "P=1, Uniform, Fmax=10K-scaled",
        Vm_placement.Pack_up_to 1,
        Group_dist.Uniform,
        Params.create ~fmax:fmax10k () );
      ( "P=1, WVE, Fmax=10K-scaled, header 125B (~10 leaf p-rules)",
        Vm_placement.Pack_up_to 1,
        Group_dist.Wve,
        Params.create ~fmax:fmax10k ~header_budget:(Some 125) ~hmax_leaf:10 () );
      ( "P=12, WVE, Fmax=10K-scaled, header 125B",
        Vm_placement.Pack_up_to 12,
        Group_dist.Wve,
        Params.create ~fmax:fmax10k ~header_budget:(Some 125) ~hmax_leaf:10 () );
    ]

let twotier () =
  hr "Extension: two-tier leaf-spine topology (paper: 'qualitatively similar')";
  let topo = Topology.leaf_spine ~leaves:576 ~spines:16 ~hosts_per_leaf:48 in
  let cfg = { (Scalability.default_config ()) with Scalability.topo } in
  printf "topology: %a@." Topology.pp topo;
  print_points (Scalability.run cfg ~r_values:[ 0; 6; 12 ])

let nonclos () =
  hr "Extension 5.1.2: non-Clos topologies (Xpander vs Jellyfish)";
  let groups = min 2_000 ((Scalability.default_config ()).Scalability.total_groups) in
  List.iter
    (fun r ->
      printf "@.R = %d:@." r;
      List.iter
        (fun res -> printf "%a@." Nonclos_exp.pp_result res)
        (Nonclos_exp.run ~groups ~r ()))
    [ 0; 12 ];
  printf
    "@.(paper's qualitative claim: symmetric topologies share bitmaps more readily than random ones)@."

let legacy () =
  hr "Extension 7: incremental deployment with legacy switches";
  let cfg = Scalability.default_config () in
  let topo = cfg.Scalability.topo in
  let placement =
    let rng = Rng.create cfg.Scalability.seed in
    let tenant_sizes = Vm_placement.default_tenant_sizes rng cfg.Scalability.tenants in
    Vm_placement.place rng topo ~strategy:cfg.Scalability.strategy ~host_capacity:20
      ~tenant_sizes
  in
  let total_groups = min 20_000 cfg.Scalability.total_groups in
  printf "@.%-18s %-14s %-22s %-14s@." "legacy leaves" "s-rule groups"
    "leaf s-rules mean/max" "lost groups";
  List.iter
    (fun percent ->
      let legacy_leaf l = l * 100 / Topology.num_leaves topo < percent in
      let params = cfg.Scalability.params in
      let srules = Srule_state.create topo ~fmax:params.Params.fmax in
      let rng = Rng.create (cfg.Scalability.seed + 1) in
      let with_srules = ref 0 in
      let lost = ref 0 in
      Workload.iter rng placement ~kind:cfg.Scalability.dist ~total_groups
        (fun g ->
          let tree = Tree.of_members topo (Array.to_list g.Workload.member_hosts) in
          let enc = Encoding.encode ~legacy_leaf params srules tree in
          if Encoding.srule_entries enc > 0 then incr with_srules;
          (* A defaulted legacy leaf cannot parse the header: receivers lost. *)
          match enc.Encoding.d_leaf.Clustering.default with
          | Some (ids, _) when List.exists legacy_leaf ids -> incr lost
          | Some _ | None -> ());
      let occ = Stats.summarize (Stats.of_ints (Srule_state.leaf_occupancy srules)) in
      printf "%-18s %-14d %9.1f / %-10.0f %-14d@."
        (Printf.sprintf "%d%%" percent)
        !with_srules occ.Stats.mean occ.Stats.max !lost)
    [ 0; 25; 50 ];
  printf
    "(the paper's caveat reproduced: legacy group tables become the scalability bottleneck)@."

let strawman () =
  hr "Appendix A: match-action p-rule lookup vs parser-based matching";
  printf "@.The appendix's example (ten 11-bit p-rules):@.%a@." Strawman.pp_cost
    (Strawman.appendix_example ());
  let topo = Topology.facebook_fabric () in
  printf "@.A full downstream-leaf section on the 27k-host fabric:@.%a@."
    Strawman.pp_cost
    (Strawman.leaf_layer_cost topo Params.default)

let bisection () =
  hr "Extension (Table 3): bisection-bandwidth utilization, ECMP vs pinned trees";
  let groups = min 20_000 ((Scalability.default_config ()).Scalability.total_groups) in
  List.iter
    (fun r -> printf "@.%a@." Bisection.pp_result r)
    (Bisection.run ~groups ())

(* {1 Table 2 and failures: control plane} *)

let control_result = ref None

let control () =
  match !control_result with
  | Some r -> r
  | None ->
      let cfg = Control_plane.default_config () in
      let r = Control_plane.run cfg in
      control_result := Some r;
      r

let table2 () =
  hr "Table 2: control-plane updates per second under churn (P=1, WVE)";
  let r = control () in
  printf "%a@." Control_plane.pp_table2 r.Control_plane.churn

let failures () =
  hr "In-text 5.1.3b: spine and core failures";
  let r = control () in
  printf "%a@." Control_plane.pp_failures r

(* {1 Figure 6 and sFlow: applications} *)

let app_hosts topo rng n =
  (* receivers spread across the fabric, source at host 0 *)
  let hosts = Array.init (Topology.num_hosts topo - 1) (fun i -> i + 1) in
  Rng.shuffle rng hosts;
  Array.to_list (Array.sub hosts 0 n)

let fig6 () =
  hr "Figure 6: ZeroMQ-style pub-sub (requests/s and publisher CPU)";
  let topo = Topology.facebook_fabric () in
  let fabric = Fabric.create topo in
  let rng = Rng.create 7 in
  let subscribers = app_hosts topo rng 256 in
  let sizes = [ 1; 2; 4; 8; 16; 32; 64; 128; 256 ] in
  printf "@.%-6s %-24s %-24s %-10s@." "subs" "unicast rps / cpu%" "elmo rps / cpu%"
    "delivered";
  List.iter
    (fun n ->
      let subs = List.filteri (fun i _ -> i < n) subscribers in
      let u = Pubsub.run fabric ~publisher:0 ~subscribers:subs Pubsub.Unicast in
      let e = Pubsub.run fabric ~publisher:0 ~subscribers:subs Pubsub.Elmo in
      printf "%-6d %10.0f / %-10.1f %10.0f / %-10.1f %-10b@." n
        u.Pubsub.throughput_rps u.Pubsub.cpu_percent e.Pubsub.throughput_rps
        e.Pubsub.cpu_percent e.Pubsub.all_delivered)
    sizes

let sflow () =
  hr "In-text 5.2.2: sFlow host telemetry (agent egress bandwidth)";
  let topo = Topology.facebook_fabric () in
  let fabric = Fabric.create topo in
  let rng = Rng.create 8 in
  let collectors = app_hosts topo rng 64 in
  printf "@.%-12s %-16s %-16s@." "collectors" "unicast Kbps" "elmo Kbps";
  List.iter
    (fun n ->
      let cs = List.filteri (fun i _ -> i < n) collectors in
      let u = Telemetry.run fabric ~agent:0 ~collectors:cs Telemetry.Unicast in
      let e = Telemetry.run fabric ~agent:0 ~collectors:cs Telemetry.Elmo in
      printf "%-12d %-16.1f %-16.1f@." n u.Telemetry.egress_kbps
        e.Telemetry.egress_kbps)
    [ 1; 2; 4; 8; 16; 32; 64 ]

(* {1 Figure 7: hypervisor encapsulation} *)

let fig7 () =
  hr "Figure 7: hypervisor encapsulation throughput vs number of p-rules";
  let topo = Topology.facebook_fabric () in
  let points = Fig7.run topo [ 0; 5; 10; 15; 20; 25; 30 ] in
  List.iter (fun p -> printf "%a@." Fig7.pp_point p) points;
  printf
    "(claim reproduced: single-write Gbps stays roughly flat while per-rule \
     writes degrade with rule count)@."

(* {1 Table 3 and the D1-D5 ablation} *)

let table3 () =
  hr "Table 3: scheme comparison (5,000-entry group tables, 325 B header)";
  Comparison.pp_table Format.std_formatter
    (Comparison.rows ~table_capacity:5_000 ~header_budget:325)

let ablation () =
  hr "Ablation: design decisions D1-D5 on the running example (Fig. 3a)";
  List.iter (fun s -> printf "%a@." Ablation.pp_step s) (Ablation.run ());
  let base = Scalability.default_config () in
  let small = min 20_000 base.Scalability.total_groups in
  let sweep label cfgs =
    printf "@.%s (P=12, %dk groups):@." label (small / 1000);
    printf "  %-24s %-10s %-10s %-12s %-14s@." "variant" "covered%" "pure-p%"
      "hdr mean B" "ovh 1500B %";
    List.iter
      (fun (name, params) ->
        let cfg =
          { base with Scalability.total_groups = small; params }
        in
        let p = Scalability.run_point cfg ~r:12 in
        printf "  %-24s %-10.1f %-10.1f %-12.1f %-14.1f@." name
          (100.0 *. float_of_int p.Scalability.covered
          /. float_of_int (max 1 p.Scalability.total_groups))
          (100.0 *. float_of_int p.Scalability.covered_pure_prules
          /. float_of_int (max 1 p.Scalability.total_groups))
          p.Scalability.header_bytes.Stats.mean
          (100.0 *. p.Scalability.overhead_1500))
      cfgs
  in
  let fmax = max 50 (30_000 * small / 1_000_000) in
  sweep "R-semantics ablation"
    [
      ("Sum (default)", Params.create ~r_semantics:Params.Sum ~fmax ());
      ("Per_bitmap", Params.create ~r_semantics:Params.Per_bitmap ~fmax ());
    ];
  sweep "Kmax ablation (switches per shared p-rule)"
    (List.map
       (fun k ->
         (Printf.sprintf "Kmax=%d" k, Params.create ~kmax:k ~fmax ()))
       [ 1; 2; 4; 8 ]);
  sweep "Header-budget ablation"
    (List.map
       (fun b ->
         ( Printf.sprintf "budget=%dB" b,
           Params.create ~header_budget:(Some b) ~fmax () ))
       [ 125; 200; 325; 512 ])

(* {1 Churn microbenchmark: incremental engine vs always-re-encode} *)

(* The leading fields of a churn run's JSON object; hotpath finds the
   incremental run's rate in BENCH_churn.json by rendering the same head. *)
let churn_run_head mode events_per_sec =
  [ ("mode", Jsonx.Str mode); ("events_per_sec", events_per_sec) ]

type churn_run = {
  label : string;
  events_per_sec : float;
  fast : int;
  slow : int;
  p50_us : float;
  p99_us : float;
  max_us : float;
  total_s : float;
}

let churn () =
  hr "Churn: delta-driven re-encoding vs always-re-encode (BENCH_churn.json)";
  let topo = clos_2048 () in
  let params = Params.create ~r:12 ~header_budget:None () in
  let ngroups = 4 and group_size = 1_000 in
  let events = env "ELMO_CHURN_EVENTS" 2_000 in
  printf "topology: %a; %d groups x %d members; %d events@." Topology.pp topo
    ngroups group_size events;
  (* Same seed on both runs: role assignment and membership evolution do not
     depend on the controller mode, so the event streams are identical. The
     baseline's staleness limit of 0 declines every fast path. *)
  let run label params =
    let ctrl = Controller.create topo params in
    let rng = Rng.create 97 in
    let n = Topology.num_hosts topo in
    for g = 0 to ngroups - 1 do
      let hosts = Array.init n Fun.id in
      Rng.shuffle rng hosts;
      (* A few senders, many receivers — the paper's pub-sub shape. *)
      let members =
        Array.to_list (Array.sub hosts 0 group_size)
        |> List.mapi (fun i host ->
               (host, if i < 8 then Controller.Both else Controller.Receiver))
      in
      ignore (Controller.add_group ctrl ~group:g members)
    done;
    let durations = Array.make events 0.0 in
    for ev = 0 to events - 1 do
      (* Event choice stays outside the timed region. *)
      let g = Rng.int rng ngroups in
      let members = Controller.members ctrl ~group:g in
      let count = List.length members in
      let want_join = count = 0 || (count < n && Rng.bool rng) in
      if want_join then begin
        let rec fresh () =
          let host = Rng.int rng n in
          if List.mem_assoc host members then fresh () else host
        in
        let host = fresh () in
        let t0 = Unix.gettimeofday () in
        ignore (Controller.join ctrl ~group:g ~host ~role:Controller.Receiver);
        durations.(ev) <- Unix.gettimeofday () -. t0
      end
      else begin
        let host, _ = List.nth members (Rng.int rng count) in
        let t0 = Unix.gettimeofday () in
        ignore (Controller.leave ctrl ~group:g ~host);
        durations.(ev) <- Unix.gettimeofday () -. t0
      end
    done;
    let stats = Controller.churn_stats ctrl in
    let total = Array.fold_left ( +. ) 0.0 durations in
    let sorted = Array.copy durations in
    Array.sort compare sorted;
    {
      label;
      events_per_sec =
        (if total > 0.0 then float_of_int events /. total else 0.0);
      fast = stats.Controller.fast_path;
      slow = stats.Controller.reencoded;
      p50_us = 1e6 *. Stats.percentile sorted 0.5;
      p99_us = 1e6 *. Stats.percentile sorted 0.99;
      max_us = 1e6 *. Stats.percentile sorted 1.0;
      total_s = total;
    }
  in
  let inc = run "incremental" params in
  let base = run "always-re-encode" { params with Params.staleness_limit = 0 } in
  let hit_rate r =
    let n = r.fast + r.slow in
    if n = 0 then 0.0 else 100.0 *. float_of_int r.fast /. float_of_int n
  in
  printf "@.%-18s %-12s %-12s %-10s %-10s %-10s %-8s@." "mode" "events/s"
    "fast/slow" "hit%" "p50 us" "p99 us" "total s";
  List.iter
    (fun r ->
      printf "%-18s %-12.0f %5d/%-6d %-10.1f %-10.1f %-10.1f %-8.2f@." r.label
        r.events_per_sec r.fast r.slow (hit_rate r) r.p50_us r.p99_us r.total_s)
    [ inc; base ];
  let speedup =
    if base.events_per_sec > 0.0 then inc.events_per_sec /. base.events_per_sec
    else 0.0
  in
  printf "speedup: %.1fx@." speedup;
  let run_json r =
    Jsonx.Obj
      (churn_run_head r.label (Num r.events_per_sec)
      @ [
          ("fast_path", Int r.fast);
          ("reencoded", Int r.slow);
          ("fast_path_hit_rate", Num (hit_rate r /. 100.0));
          ("p50_us", Num r.p50_us);
          ("p99_us", Num r.p99_us);
          ("max_us", Num r.max_us);
          ("total_s", Num r.total_s);
        ])
  in
  write_bench "BENCH_churn.json" ~benchmark:"churn" ~topo ~seed:97
    ~params:(params_string params)
    [
      ("groups", Int ngroups);
      ("members_per_group", Int group_size);
      ("events", Int events);
      ("runs", List [ run_json inc; run_json base ]);
      ("speedup", Num speedup);
      ("baseline_takes_no_fast_path", gate "baseline_takes_no_fast_path" (base.fast = 0));
    ]

(* {1 Fault tolerance: degradation-induced traffic vs fault rate} *)

let faults () =
  hr
    "Faults: retry/degradation cost vs injected fault rate (BENCH_faults.json)";
  let topo = Topology.running_example () in
  let params =
    Params.create ~hmax_leaf:1 ~hmax_spine:1 ~header_budget:None ~fmax:6 ()
  in
  let events = env "ELMO_FAULT_EVENTS" 400 in
  let rates = [ 0.0; 0.05; 0.1; 0.2; 0.4 ] in
  printf "topology: %a; 12 groups x 8 members; %d events per rate@."
    Topology.pp topo events;
  printf "@.%-8s %-8s %-11s %-8s %-9s %-10s %-8s %-9s %-12s@." "rate"
    "probes" "blackholes" "extra%" "retries" "exhausted" "degr" "compens"
    "fault t/r/d";
  let rows =
    List.map
      (fun rate ->
        let r =
          Churn.fault_run ~seed:23 topo params ~groups:12 ~group_size:8
            ~events ~rate ~probe_every:25
        in
        let i = r.Churn.install and f = r.Churn.faults in
        printf "%-8.2f %-8d %-11d %-8.1f %-9d %-10d %-8d %-9d %d/%d/%d@." rate
          r.Churn.probes r.Churn.blackholes
          (100.0 *. r.Churn.extra_traffic)
          i.Controller.retries i.Controller.exhausted i.Controller.degradations
          i.Controller.compensations f.Fault.timeouts f.Fault.refusals
          f.Fault.drops;
        (rate, r))
      rates
  in
  let all_safe =
    List.for_all (fun (_, r) -> r.Churn.blackholes = 0) rows
  in
  printf "@.blackholes across every rate: %s@."
    (if all_safe then "none (degradation trades traffic, never delivery)"
     else "PRESENT - delivery safety violated");
  let rate_json (rate, (r : Churn.fault_result)) =
    let i = r.Churn.install and f = r.Churn.faults in
    Jsonx.Obj
      [
        ("rate", Num rate);
        ("events", Int r.fault_events);
        ("probes", Int r.probes);
        ("blackholes", Int r.blackholes);
        ("extra_traffic", Num r.extra_traffic);
        ("clean_tx", Int r.clean_tx);
        ("faulty_tx", Int r.faulty_tx);
        ("install_attempts", Int i.attempts);
        ("retries", Int i.retries);
        ("exhausted", Int i.exhausted);
        ("degradations", Int i.degradations);
        ("compensations", Int i.compensations);
        ("stale_entries", Int i.stale_entries);
        ("fault_timeouts", Int f.timeouts);
        ("fault_refusals", Int f.refusals);
        ("fault_drops", Int f.drops);
      ]
  in
  write_bench "BENCH_faults.json" ~benchmark:"faults" ~topo ~seed:23
    ~params:(params_string params)
    [
      ("groups", Int 12);
      ("members_per_group", Int 8);
      ("events", Int events);
      ("zero_blackholes", gate "zero_blackholes" all_safe);
      ("rates", List (List.map rate_json rows));
    ]

(* {1 Durable recovery: fenced failover latency and corruption tolerance} *)

let recovery () =
  hr
    "Recovery: fenced failover from the durable journal (BENCH_recovery.json)";
  let topo = Topology.running_example () in
  let params =
    Params.create ~hmax_leaf:1 ~hmax_spine:1 ~header_budget:None ~fmax:6 ()
  in
  let events = env "ELMO_RECOVERY_EVENTS" 400 in
  let trials = env "ELMO_RECOVERY_TRIALS" 200 in
  let seed = 29 in
  let build ~snapshot_every =
    Wire.contents (Recovery_fixture.churn ~snapshot_every ~events ~seed ())
  in
  let violations = ref 0 in
  let check (outcome : Supervisor.outcome) =
    (match
       Verify.check_controller (Replica.controller outcome.Supervisor.replica)
     with
    | Ok (_ : int) -> ()
    | Error w ->
        incr violations;
        printf "VIOLATION: recovered controller diverges: %a@."
          Verify.pp_witness w);
    if outcome.Supervisor.blackholes <> [] then begin
      incr violations;
      printf "VIOLATION: %d blackholes after failover@."
        (List.length outcome.Supervisor.blackholes)
    end
  in
  (* Failover latency vs snapshot cadence: sparse snapshots mean long
     replay suffixes; every recovery is re-verified against its intent.
     [prove_ms] is the failover's last step alone: the zero-blackhole
     proof on the recovered view, timed over the same reps. *)
  let reps = 20 in
  printf "@.%-15s %-9s %-9s %-11s %-12s %-9s %-14s@." "snapshot_every"
    "records" "bytes" "suffix_ops" "failover_ms" "prove_ms" "replay ops/s";
  let sweep =
    List.map
      (fun snapshot_every ->
        let bytes = build ~snapshot_every in
        let run () =
          let fabric = Fabric.create topo in
          match Supervisor.failover ~fabric bytes with
          | Ok o -> o
          | Error e ->
              printf "unexpected failover failure: %s@." e;
              exit 1
        in
        let o0 = run () in
        check o0;
        let t0 = Unix.gettimeofday () in
        for _ = 1 to reps do
          ignore (run ())
        done;
        let dt = (Unix.gettimeofday () -. t0) /. float_of_int reps in
        let cfg = Replica.installed_config o0.Supervisor.replica in
        let t0 = Unix.gettimeofday () in
        for _ = 1 to reps do
          ignore (Verify.sender_blackholes cfg)
        done;
        let prove = (Unix.gettimeofday () -. t0) /. float_of_int reps in
        let loaded = o0.Supervisor.loaded in
        let nrec = List.length loaded.Wire.l_records in
        let suffix = List.length loaded.Wire.l_suffix in
        let ops_s = float_of_int suffix /. dt in
        printf "%-15d %-9d %-9d %-11d %-12.3f %-9.3f %-14.0f@." snapshot_every
          nrec (Bytes.length bytes) suffix (1e3 *. dt) (1e3 *. prove) ops_s;
        (snapshot_every, nrec, Bytes.length bytes, suffix, dt, prove, ops_s))
      [ 8; 32; 128; 1_000_000 ]
  in
  (* Corruption tolerance: seeded bit flips and torn writes over one
     canonical log; every recovered outcome is re-verified, and detected
     corruption must be reported (truncation/fallback), never silent. *)
  let canonical = build ~snapshot_every:64 in
  let canonical_records =
    match Wire.load canonical with
    | Ok l -> List.length l.Wire.l_records
    | Error e ->
        printf "the canonical log does not load: %s@." e;
        exit 1
  in
  let rng = Rng.create 31 in
  let full = ref 0
  and boundary_cut = ref 0
  and truncated = ref 0
  and fallback = ref 0
  and unrecoverable = ref 0 in
  for _ = 1 to trials do
    let mutated =
      if Rng.int rng 2 = 0 then
        Wire.flip_bit canonical (Rng.int rng (8 * Bytes.length canonical))
      else
        Wire.truncate_at canonical
          (8 + Rng.int rng (Bytes.length canonical - 8))
    in
    let fabric = Fabric.create topo in
    match Supervisor.failover ~fabric mutated with
    | Error _ -> incr unrecoverable
    | Ok o ->
        check o;
        let l = o.Supervisor.loaded in
        if l.Wire.l_dropped_snapshots > 0 then incr fallback
        else if Option.is_some l.Wire.l_truncated_at then incr truncated
        else if List.length l.Wire.l_records < canonical_records then
          (* A torn write on a record boundary: every record left is
             whole, so the log loads without a report, but shorter. *)
          incr boundary_cut
        else incr full
  done;
  printf
    "@.corruption matrix: %d trials — %d full, %d boundary cut, %d truncated, \
     %d snapshot fallback, %d unrecoverable, %d violations@."
    trials !full !boundary_cut !truncated !fallback !unrecoverable !violations;
  let sweep_json (snapshot_every, nrec, nbytes, suffix, dt, prove, ops_s) =
    Jsonx.Obj
      [
        ("snapshot_every", Int snapshot_every);
        ("records", Int nrec);
        ("bytes", Int nbytes);
        ("suffix_ops", Int suffix);
        ("failover_ms", Num (1e3 *. dt));
        ("prove_ms", Num (1e3 *. prove));
        ("replay_ops_per_sec", Num ops_s);
      ]
  in
  write_bench "BENCH_recovery.json" ~benchmark:"recovery" ~topo ~seed
    ~params:(params_string params)
    [
      ("events", Int events);
      ("failover_reps", Int reps);
      ("snapshot_sweep", List (List.map sweep_json sweep));
      ( "corruption",
        Obj
          [
            ("trials", Int trials);
            ("full", Int !full);
            ("boundary_cut", Int !boundary_cut);
            ("truncated", Int !truncated);
            ("snapshot_fallback", Int !fallback);
            ("unrecoverable", Int !unrecoverable);
            ("violations", Int !violations);
          ] );
      ("zero_violations", gate "zero_violations" (!violations = 0));
      (* Every mutated log differs from the one written, so none may load
         whole and unreported. *)
      ("zero_silent", gate "zero_silent" (!full = 0));
    ]

(* {1 Symbolic verification: compile+check throughput} *)

(* [check_config]'s definition as a fold: intern [compile] and [intent] of
   each group in ascending gid order in one universe, and stop at the
   first [check_equiv] error. *)
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

(* The per-event oracle at scale: on the Facebook fabric (P=12, WVE
   groups, s-rule capacity scaled from 30,000 at 1M groups), one
   membership event followed by the view, the drain and the cached check
   of that view, after a warm-up check of every group. Each event is a
   leave of a random group's member, or the join that puts it back; the
   row reports the median over [fabric_events] such re-checks. A view and
   check that cost the dirty groups, not the group table, read about the
   same at 10k and 100k groups. *)
let fabric_events = 64
let fabric_recheck_bound_us = 500.0

(* A controller holding [ngroups] WVE groups on [topo], at most [pack]
   VMs of a tenant per rack. *)
let fabric_controller topo ngroups ~pack =
  let params = Params.create ~fmax:(ngroups * 3 / 100) () in
  let seed = 42 in
  let rng = Rng.create seed in
  let tenant_sizes = Vm_placement.default_tenant_sizes rng 3_000 in
  let placement =
    Vm_placement.place rng topo ~strategy:(Vm_placement.Pack_up_to pack)
      ~host_capacity:20 ~tenant_sizes
  in
  let ctrl = Controller.create topo params in
  Workload.iter (Rng.create (seed + 1)) placement ~kind:Group_dist.Wve
    ~total_groups:ngroups (fun (g : Workload.group) ->
      ignore
        (Controller.add_group ctrl ~group:g.Workload.group_id
           (Array.to_list
              (Array.map (fun h -> (h, Controller.Both)) g.Workload.member_hosts))));
  ctrl

(* The full check's cost per group on the same groups, at P=12 and at
   P=1, where trees span many more leaves: the median of
   [fabric_check_runs] [check_config] timings of one view, and the
   groups it passed. *)
let fabric_check_groups = 10_000
let fabric_check_runs = 5

let fabric_check topo ~pack =
  let ctrl = fabric_controller topo fabric_check_groups ~pack in
  let cfg = Controller.installed_config ctrl in
  let checked = ref 0 in
  let times =
    Array.init fabric_check_runs (fun _ ->
        Gc.minor ();
        let t0 = Monotonic_clock.now () in
        let res = Verify.check_config cfg in
        let dt = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9 in
        checked := (match res with Ok n -> n | Error _ -> 0);
        dt)
  in
  Array.sort Float.compare times;
  (1e6 *. Stats.percentile times 0.5 /. float_of_int fabric_check_groups, !checked)

let fabric_recheck topo ngroups =
  let ctrl = fabric_controller topo ngroups ~pack:12 in
  let cache = Verify.create_cache () in
  (* Nanosecond reads: one re-check takes a few microseconds. *)
  let recheck () =
    let t0 = Monotonic_clock.now () in
    let cfg = Controller.installed_config ctrl in
    let dirty = Controller.drain_dirty ctrl in
    let res = Verify.check_config_cached cache cfg ~dirty in
    (Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9, res)
  in
  let all_pass = function Ok n -> n = ngroups | Error _ -> false in
  let warm_s, warm = recheck () in
  let ok = ref (all_pass warm) in
  let events = Rng.create 7 in
  let left = ref None in
  let times =
    Array.init fabric_events (fun _ ->
        (match !left with
        | Some (group, host) ->
            ignore (Controller.join ctrl ~group ~host ~role:Controller.Both);
            left := None
        | None -> (
            let group = Rng.int events ngroups in
            match Controller.members ctrl ~group with
            | (host, _) :: _ :: _ ->
                ignore (Controller.leave ctrl ~group ~host);
                left := Some (group, host)
            | [ _ ] | [] -> ()));
        let s, res = recheck () in
        if not (all_pass res) then ok := false;
        s)
  in
  Array.sort Float.compare times;
  let median_us = 1e6 *. Stats.percentile times 0.5 in
  let hits, misses = Verify.cache_stats cache in
  (warm_s, median_us, hits, misses, !ok)

let verify () =
  hr
    "Verify: symbolic delivery predicates, compile+check throughput \
     (BENCH_verify.json)";
  let topo = clos_2048 () in
  let params = Params.create ~r:12 ~header_budget:None () in
  let ngroups = env "ELMO_VERIFY_GROUPS" 10_000 in
  printf "topology: %a; %d groups, sizes 2-16@." Topology.pp topo ngroups;
  let ctrl = Controller.create topo params in
  let rng = Rng.create 41 in
  let n = Topology.num_hosts topo in
  let t0 = Unix.gettimeofday () in
  for g = 0 to ngroups - 1 do
    let size = 2 + Rng.int rng 15 in
    let members =
      List.init size (fun _ -> Rng.int rng n) |> List.sort_uniq Int.compare
    in
    ignore
      (Controller.add_group ctrl ~group:g
         (List.map (fun h -> (h, Controller.Both)) members))
  done;
  let t1 = Unix.gettimeofday () in
  let view_words0 = Gc.minor_words () in
  let cfg = Controller.installed_config ctrl in
  let view_words = Gc.minor_words () -. view_words0 in
  let t2 = Unix.gettimeofday () in
  (* Compile-only pass: one shared universe, so recurring delivery shapes
     hash-cons to the same predicate. *)
  let ctx = Pred.create_ctx () in
  List.iter
    (fun gid -> ignore (Verify.compile ctx cfg ~group:gid))
    (Installed_config.group_ids cfg);
  let t3 = Unix.gettimeofday () in
  (* Full check: every spec edge covered, first witness on divergence. *)
  let words0 = Gc.minor_words () in
  let result = Verify.check_config cfg in
  let check_words = Gc.minor_words () -. words0 in
  let t4 = Unix.gettimeofday () in
  let reference = reference_check cfg in
  let t4_ref = Unix.gettimeofday () in
  let render = function
    | Ok n -> string_of_int n
    | Error w -> Format.asprintf "%a" Verify.pp_witness w
  in
  let agrees = String.equal (render result) (render reference) in
  if not agrees then
    printf "check_config %s, reference fold %s@." (render result)
      (render reference);
  (* Incremental oracle: warm the cache over the whole config, then apply
     one membership event and re-check — only the touched group is walked
     again, the rest pass from cache. *)
  let cache = Verify.create_cache () in
  let warm =
    Verify.check_config_cached cache cfg ~dirty:(Controller.drain_dirty ctrl)
  in
  let t5 = Unix.gettimeofday () in
  (match Controller.members ctrl ~group:0 with
  | (host, _) :: _ -> ignore (Controller.leave ctrl ~group:0 ~host)
  | [] -> ());
  (* The per-event cost is timed by the [facebook_fabric_recheck] rows
     below, with a nanosecond clock and over 64 events. *)
  let cfg' = Controller.installed_config ctrl in
  let dirty = Controller.drain_dirty ctrl in
  let recheck = Verify.check_config_cached cache cfg' ~dirty in
  let install_s = t1 -. t0
  and view_s = t2 -. t1
  and compile_s = t3 -. t2
  and check_s = t4 -. t3
  and reference_s = t4_ref -. t4
  and cached_warm_s = t5 -. t4_ref in
  let rate groups s = if s > 0.0 then float_of_int groups /. s else 0.0 in
  let checked, ok =
    match result with
    | Ok ngroups -> (ngroups, true)
    | Error w ->
        printf "counterexample: %a@." Verify.pp_witness w;
        (0, false)
  in
  let ok =
    match (warm, recheck) with
    | Ok _, Ok _ -> ok
    | Error w, _ | _, Error w ->
        printf "cached counterexample: %a@." Verify.pp_witness w;
        false
  in
  let hits, misses = Verify.cache_stats cache in
  printf "@.%-24s %-10s %-14s@." "phase" "seconds" "groups/s";
  printf "%-24s %-10.3f %-14s@." "install (add_group)" install_s
    (Printf.sprintf "%.0f" (rate ngroups install_s));
  printf "%-24s %-10.3f %-14s@." "installed_config view" view_s
    (Printf.sprintf "%.0f" (rate ngroups view_s));
  printf "%-24s %-10.3f %-14s@." "symbolic compile" compile_s
    (Printf.sprintf "%.0f" (rate ngroups compile_s));
  printf "%-24s %-10.3f %-14s@." "check (spec walk)" check_s
    (Printf.sprintf "%.0f" (rate ngroups check_s));
  printf "%-24s %-10.3f %-14s@." "reference fold" reference_s
    (Printf.sprintf "%.0f" (rate ngroups reference_s));
  printf "view: %.0f, check: %.0f minor words per group; agrees with the \
          reference: %b@."
    (view_words /. float_of_int ngroups)
    (check_words /. float_of_int ngroups)
    agrees;
  printf "%-24s %-10.3f %-14s@." "cached warm (all miss)" cached_warm_s
    (Printf.sprintf "%.0f" (rate ngroups cached_warm_s));
  printf "cache after one event's re-check: %d hits / %d misses@." hits misses;
  printf "result: %s@."
    (if ok then
       Printf.sprintf "%d groups verified, installed state == intent" checked
     else "COUNTEREXAMPLE - installed state loses a receiver");
  let fabric = Topology.facebook_fabric () in
  printf "@.per-event re-check on %a (P=12, WVE): view + drain + cached check@."
    Topology.pp fabric;
  printf "%-8s %-14s %-18s %-12s@." "groups" "warm check s" "1 event p50 us"
    "hits/misses";
  let rows =
    List.map
      (fun groups ->
        let warm_s, p50_us, hits, misses, ok = fabric_recheck fabric groups in
        printf "%-8d %-14.3f %-18.1f %d/%d@." groups warm_s p50_us hits misses;
        Gc.compact ();
        (groups, warm_s, p50_us, hits, misses, ok))
      [ 10_000; 100_000 ]
  in
  printf "@.full check on %a, %d WVE groups: check_config per group@."
    Topology.pp fabric fabric_check_groups;
  printf "%-10s %-14s %-10s@." "placement" "us/group" "passed";
  let check_rows =
    List.map
      (fun (label, pack) ->
        let us, checked = fabric_check fabric ~pack in
        printf "%-10s %-14.2f %d@." label us checked;
        Gc.compact ();
        (label, us, checked))
      [ ("P=12", 12); ("P=1", 1) ]
  in
  let p50_at n =
    List.fold_left (fun acc (g, _, ms, _, _, _) -> if g = n then ms else acc) 0.0 rows
  in
  let p50_10k = p50_at 10_000 and p50_100k = p50_at 100_000 in
  printf "bound: under %.0f us at 100k groups, and within 2x of 10k (%.2fx)@."
    fabric_recheck_bound_us
    (if p50_10k > 0.0 then p50_100k /. p50_10k else 0.0);
  write_bench "BENCH_verify.json" ~benchmark:"verify" ~topo ~seed:41
    ~params:(params_string params)
    [
      ("groups", Int ngroups);
      ("install_s", Num install_s);
      ("view_s", Num view_s);
      ("compile_s", Num compile_s);
      ("compile_groups_per_sec", Num (rate ngroups compile_s));
      ("check_s", Num check_s);
      ("check_groups_per_sec", Num (rate ngroups check_s));
      ("view_words_per_group", Num (view_words /. float_of_int ngroups));
      ("check_words_per_group", Num (check_words /. float_of_int ngroups));
      ("reference_check_s", Num reference_s);
      ("reference_agrees", gate "reference_agrees" agrees);
      ("cached_warm_s", Num cached_warm_s);
      ("cache_hits", Int hits);
      ("cache_misses", Int misses);
      ("verified_ok", gate "verified_ok" ok);
      ( "facebook_fabric_recheck",
        List
          (List.map
             (fun (groups, warm_s, p50_us, hits, misses, ok) ->
               Jsonx.Obj
                 [
                   ("groups", Int groups);
                   ("events", Int fabric_events);
                   ("warm_check_s", Num warm_s);
                   ("recheck_p50_us", Num p50_us);
                   ("cache_hits", Int hits);
                   ("cache_misses", Int misses);
                   ("verified_ok", gate "facebook_fabric_verified_ok" ok);
                 ])
             rows) );
      ( "facebook_fabric_check",
        List
          (List.map
             (fun (label, us, checked) ->
               Jsonx.Obj
                 [
                   ("placement", Str label);
                   ("groups", Int fabric_check_groups);
                   ("check_us_per_group", Num us);
                   ("groups_passed", Int checked);
                 ])
             check_rows) );
      ("recheck_bound_us", Num fabric_recheck_bound_us);
      ( "recheck_100k_within_bound",
        gate "recheck_100k_within_bound" (p50_100k < fabric_recheck_bound_us) );
      ( "recheck_100k_within_2x_10k",
        gate "recheck_100k_within_2x_10k" (p50_100k <= 2.0 *. p50_10k) );
    ]

(* {1 Group footprint} *)

(* What one installed group costs the controller on the Facebook fabric
   (576 leaves), where a leaf index sized by the fabric rather than the
   group would dominate: 10k groups from the scalability sweep's tenants
   and group-size distribution, installed with [install_all] on a
   hook-free controller (no headers built), at P=12 and at P=1. Live
   words are measured between two compactions, with the batch handed to
   [install_all] live on both sides: the difference is what the
   controller adds to the member lists it is given and keeps as its
   own. Those lists are reported beside it. Minor words and the rate
   cover [install_all] alone. *)
let footprint_groups = 10_000

(* Live words per group allowed at P=12 and at P=1, where trees span
   many more leaves; a leaf index sized by the fabric holds over 1,800 on
   its own. *)
let footprint_bound = 450.0
let footprint_bound_p1 = 1_100.0

let footprint_run topo params ~strategy =
  let seed = 42 in
  let rng = Rng.create seed in
  let tenant_sizes = Vm_placement.default_tenant_sizes rng 3_000 in
  let placement =
    Vm_placement.place rng topo ~strategy ~host_capacity:20 ~tenant_sizes
  in
  let groups =
    Workload.generate (Rng.create (seed + 1)) placement ~kind:Group_dist.Wve
      ~total_groups:footprint_groups
  in
  let batch =
    Array.to_list
      (Array.map
         (fun (g : Workload.group) ->
           ( g.Workload.group_id,
             Array.to_list
               (Array.map (fun h -> (h, Controller.Both)) g.Workload.member_hosts) ))
         groups)
  in
  let ctrl = Controller.create topo params in
  Gc.compact ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let minor0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  ignore (Controller.install_all ctrl batch);
  let t1 = Unix.gettimeofday () in
  let minor = Gc.minor_words () -. minor0 in
  Gc.compact ();
  let live1 = (Gc.stat ()).Gc.live_words in
  ignore (Sys.opaque_identity ctrl);
  let per_group x = x /. float_of_int footprint_groups in
  let install_s = t1 -. t0 in
  ( per_group (float_of_int (live1 - live0)),
    per_group (float_of_int (Obj.reachable_words (Obj.repr batch))),
    per_group minor,
    (if install_s > 0.0 then float_of_int footprint_groups /. install_s else 0.0),
    install_s )

let footprint () =
  hr "Footprint: live and allocated words per installed group (BENCH_footprint.json)";
  let topo = Topology.facebook_fabric () in
  (* The sweeps' s-rule capacity, scaled from 30,000 at 1M groups. *)
  let params = Params.create ~fmax:300 () in
  printf "topology: %a; %d groups per placement@." Topology.pp topo
    footprint_groups;
  printf "@.%-10s %-18s %-18s %-18s %-12s@." "placement" "live words/group"
    "member lists" "minor words/group" "groups/s";
  let runs =
    List.map
      (fun (label, p) ->
        let live, lists, minor, rate, install_s =
          footprint_run topo params ~strategy:(Vm_placement.Pack_up_to p)
        in
        printf "%-10s %-18.0f %-18.0f %-18.0f %-12.0f@." label live lists minor
          rate;
        (label, live, lists, minor, rate, install_s))
      [ ("P=12", 12); ("P=1", 1) ]
  in
  let live_at placement =
    List.fold_left
      (fun acc (label, live, _, _, _, _) -> if label = placement then live else acc)
      0.0 runs
  in
  let live_p12 = live_at "P=12" and live_p1 = live_at "P=1" in
  printf "bound: at most %.0f live words per group at P=12, %.0f at P=1@."
    footprint_bound footprint_bound_p1;
  write_bench "BENCH_footprint.json" ~benchmark:"footprint" ~topo ~seed:42
    ~params:(params_string params)
    [
      ("groups", Int footprint_groups);
      ( "runs",
        List
          (List.map
             (fun (label, live, lists, minor, rate, install_s) ->
               Jsonx.Obj
                 [
                   ("placement", Str label);
                   ("live_words_per_group", Num live);
                   ("member_list_words_per_group", Num lists);
                   ("minor_words_per_group", Num minor);
                   ("groups_per_sec", Num rate);
                   ("install_s", Num install_s);
                 ])
             runs) );
      ("live_words_bound_p12", Num footprint_bound);
      ( "live_words_within_bound",
        gate "live_words_within_bound" (live_p12 <= footprint_bound) );
      ("live_words_bound_p1", Num footprint_bound_p1);
      ( "live_words_within_bound_p1",
        gate "live_words_within_bound_p1" (live_p1 <= footprint_bound_p1) );
    ]

(* {1 Bechamel micro-benchmarks} *)

let micro () =
  hr "Micro-benchmarks (Bechamel): one kernel operation per table/figure";
  let open Bechamel in
  let open Toolkit in
  let topo = Topology.facebook_fabric () in
  let rng = Rng.create 11 in
  let members =
    Array.to_list (Array.init 60 (fun _ -> Rng.int rng (Topology.num_hosts topo)))
    |> List.sort_uniq compare
  in
  let tree = Tree.of_members topo members in
  let params = Params.default in
  let srules = Srule_state.create topo ~fmax:params.Params.fmax in
  let enc = Encoding.encode params srules tree in
  let header = Encoding.header_for_sender enc ~sender:(List.hd members) in
  let bytes = Header_codec.encode topo header in
  let fabric = Fabric.create topo in
  let tests =
    [
      (* Fig 4/5 kernel: one group's rule computation (the paper's
         controller computes p-/s-rules in ~0.2 ms). *)
      Test.make ~name:"fig4/5: encode group (Algorithm 1)"
        (Staged.stage (fun () ->
             let srules = Srule_state.create topo ~fmax:params.Params.fmax in
             Encoding.encode params srules tree));
      (* Table 2 kernel: header build for one sender. *)
      Test.make ~name:"table2: header_for_sender"
        (Staged.stage (fun () -> Encoding.header_for_sender enc ~sender:0));
      (* Fig 7 kernel: wire encode/decode. *)
      Test.make ~name:"fig7: Header_codec.encode"
        (Staged.stage (fun () -> Header_codec.encode topo header));
      Test.make ~name:"fig7: Header_codec.decode"
        (Staged.stage (fun () -> Header_codec.decode topo bytes));
      (* Fig 6 kernel: one multicast packet through the fabric. *)
      Test.make ~name:"fig6: Fabric.inject"
        (Staged.stage (fun () ->
             Fabric.inject fabric ~sender:(List.hd members) ~group:1 ~header
               ~payload:100));
      (* Fig 4/5 right panel kernel: the analytic traffic model. *)
      Test.make ~name:"fig4/5: Traffic.measure"
        (Staged.stage (fun () -> Traffic.measure enc ~sender:(List.hd members)));
      (* Table 2 kernel: one hypervisor flow-rule install (the paper quotes
         hypervisors sustaining 40k updates/s, 80k batched). *)
      Test.make ~name:"table2: Hypervisor.install_sender"
        (Staged.stage
           (let hv = Hypervisor.create fabric ~host:0 in
            fun () -> Hypervisor.install_sender hv ~group:1 header));
    ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw =
    Benchmark.all cfg
      Instance.[ monotonic_clock ]
      (Test.make_grouped ~name:"elmo" tests)
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
    |> List.sort compare
  in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some (t :: _) ->
          if t >= 1e6 then printf "%-45s %10.3f ms/op@." name (t /. 1e6)
          else if t >= 1e3 then printf "%-45s %10.3f us/op@." name (t /. 1e3)
          else printf "%-45s %10.1f ns/op@." name t
      | Some [] | None -> printf "%-45s (no estimate)@." name)
    rows;
  printf
    "@.(paper: controller computes p-/s-rules for a group in 0.20 ms +/- 0.45 \
     ms)@."

(* {1 Hot path: the raw apply_delta kernel, proven allocation-free} *)

(* The incremental controller's events/s from a BENCH_churn.json a prior
   `bench churn` left behind: the text after the rendered head of its
   incremental run. *)
let churn_reference_events_per_sec () =
  if not (Sys.file_exists "BENCH_churn.json") then None
  else
    let text = In_channel.with_open_text "BENCH_churn.json" In_channel.input_all in
    (* An empty rate renders the head up to where the rate's digits start. *)
    let head = Jsonx.to_string (Obj (churn_run_head "incremental" (Raw ""))) in
    let anchor = String.sub head 0 (String.length head - 1) in
    Option.bind (Astring.String.cut ~sep:anchor text) (fun (_, rest) ->
        float_of_string_opt
          (Astring.String.take ~sat:(fun c -> c <> ',' && c <> '}') rest))

(* The packet path under the same probe: [Hypervisor.send] (the sender
   table lookup, then [Fabric.inject_wire]) for every (group, sender) pair
   of the first groups of perfbench's `clos` scenario on this Clos: 200
   tenants packed at most 12 to a rack, 2,000 WVE groups installed with
   default parameters, so s-rules are plentiful. What a packet may
   allocate is its report, [Some] of a record with a cons cell and a pair
   per distinct delivered host: 7 + 6 words per host. Returns the pairs
   probed, the words per packet and the words per packet beyond the
   report. *)
let packet_probe topo =
  let tenant_sizes = Vm_placement.default_tenant_sizes (Rng.create 42) 200 in
  let placement =
    Vm_placement.place (Rng.create 44) topo ~strategy:(Vm_placement.Pack_up_to 12)
      ~host_capacity:20 ~tenant_sizes
  in
  let groups =
    Workload.generate (Rng.create 43) placement ~kind:Group_dist.Wve ~total_groups:2_000
  in
  let fabric = Fabric.create topo in
  let ctrl =
    Controller.create ~fabric_hooks:(Fabric.controller_hooks fabric) topo (Params.create ())
  in
  ignore
    (Controller.install_all ctrl
       (Array.to_list
          (Array.map
             (fun (g : Workload.group) ->
               ( g.Workload.group_id,
                 Array.to_list
                   (Array.map (fun h -> (h, Controller.Both)) g.Workload.member_hosts) ))
             groups))
      : Controller.updates);
  let hypervisors = Hashtbl.create 256 in
  let hypervisor host =
    match Hashtbl.find_opt hypervisors host with
    | Some hv -> hv
    | None ->
        let hv = Hypervisor.create fabric ~host in
        Hashtbl.add hypervisors host hv;
        hv
  in
  let sends =
    Array.sub groups 0 64
    |> Array.to_list
    |> List.concat_map (fun (g : Workload.group) ->
           let group = g.Workload.group_id in
           List.filter_map
             (fun host ->
               Option.map
                 (fun hd ->
                   let hv = hypervisor host in
                   Hypervisor.install_sender hv ~group hd;
                   (hv, group))
                 (Controller.header ctrl ~group ~sender:host))
             (Array.to_list g.Workload.member_hosts))
    |> Array.of_list
  in
  let n = Array.length sends in
  let send i =
    let hv, group = sends.(i mod n) in
    Hypervisor.send hv ~group ~payload:64
  in
  let report_words i =
    match send i with
    | Some r -> 7 + (6 * List.length r.Fabric.delivered)
    | None -> 0
  in
  let report = Allocs.probe ~warmup:n ~events:n (fun i -> ignore (send i)) in
  let expected = ref 0 in
  for i = n to (2 * n) - 1 do
    expected := !expected + report_words i
  done;
  let per_packet = report.Allocs.per_event in
  (n, per_packet, per_packet -. (float_of_int !expected /. float_of_int n))

let hotpath () =
  hr "Hot path: zero-alloc apply_delta churn kernel (BENCH_hotpath.json)";
  let topo = clos_2048 () in
  let events = env "ELMO_HOTPATH_EVENTS" 200_000 in
  let group_size = 1_000 in
  (* The kernel must never fall back mid-run: lift the staleness ceiling
     above the event count. *)
  let params =
    Params.create ~r:12 ~staleness_limit:(events + 8_192) ~header_budget:None ()
  in
  let rng = Rng.create 97 in
  let n = Topology.num_hosts topo in
  let hosts = Array.init n Fun.id in
  Rng.shuffle rng hosts;
  let members = Array.to_list (Array.sub hosts 0 group_size) in
  let srules = Srule_state.create topo ~fmax:params.Params.fmax in
  let enc = Encoding.encode params srules (Tree.of_members topo members) in
  (* Churn a non-member host behind a leaf that keeps >= 2 members, so the
     join is never New_leaf and the leave never Emptied_leaf. *)
  let churn_host =
    let found = ref (-1) in
    let tree = enc.Encoding.tree in
    Array.iteri
      (fun s l ->
        let bm = tree.Tree.leaf_bms.(s) in
        if !found < 0 && Bitmap.popcount bm >= 2 then
          for port = 0 to topo.Topology.hosts_per_leaf - 1 do
            if !found < 0 && not (Bitmap.get bm port) then
              found := (l * topo.Topology.hosts_per_leaf) + port
          done)
      tree.Tree.leaf_ids;
    if !found < 0 then begin
      printf "no churnable host found@.";
      exit 1
    end;
    !found
  in
  let join = Encoding.delta_of_host topo ~joining:true churn_host in
  let leave = Encoding.delta_of_host topo ~joining:false churn_host in
  let apply i =
    match Encoding.apply_delta enc (if i land 1 = 0 then join else leave) with
    | Encoding.Applied _ -> ()
    | Encoding.Reencode _ -> failwith "hotpath: fast path declined"
  in
  printf "topology: %a; group of %d members; churn host %d; %d events@."
    Topology.pp topo group_size churn_host events;
  (* Allocation proof first: the runtime counterpart of the zero-alloc lint
     verdict on this path. *)
  let report = Allocs.probe ~warmup:64 ~events:4_096 apply in
  (match report.Allocs.first_alloc with
  | Some (event, words) ->
      printf
        "FAIL: apply_delta allocated %d words at probe event %d (%.1f \
         words total)@."
        words event report.Allocs.total_words
  | None ->
      printf "allocation probe: %.1f words over 4096 events — clean@."
        report.Allocs.total_words);
  let packets, words_per_packet, words_beyond_report = packet_probe topo in
  printf
    "packet probe: %d (group, sender) pairs, %.1f words per packet, %.1f \
     beyond the report@."
    packets words_per_packet words_beyond_report;
  (* Throughput + GC accounting over the full run. *)
  let gc0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  for i = 0 to events - 1 do
    apply i
  done;
  let t1 = Unix.gettimeofday () in
  let gc1 = Gc.quick_stat () in
  let total_s = t1 -. t0 in
  let events_per_sec =
    if total_s > 0.0 then float_of_int events /. total_s else 0.0
  in
  let minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words in
  let minor_collections = gc1.Gc.minor_collections - gc0.Gc.minor_collections in
  let promoted_words = gc1.Gc.promoted_words -. gc0.Gc.promoted_words in
  let ns_per_event =
    if events_per_sec > 0.0 then 1e9 /. events_per_sec else 0.0
  in
  printf "events/s: %.0f (%.1f ns/event)@." events_per_sec ns_per_event;
  printf "gc: %.1f minor words, %d minor collections, %.1f promoted words@."
    minor_words minor_collections promoted_words;
  let reference = churn_reference_events_per_sec () in
  (match reference with
  | Some r when r > 0.0 ->
      printf
        "vs BENCH_churn.json incremental controller: %.1fx (kernel %.0f vs \
         full path %.0f ev/s)@."
        (events_per_sec /. r) events_per_sec r;
      if events_per_sec < r then
        printf
          "WARNING: raw kernel slower than the full controller churn path — \
           regression@."
  | Some _ | None ->
      printf "no BENCH_churn.json reference (run `bench churn` first)@.");
  (* Instrumented epilogue: a short burst of the same kernel under a local
     metrics registry, AFTER the probe and the timed loop — metrics-on costs
     an allocation per probe (Hashtbl lookup), so the measured region must
     stay metrics-off. The JSON write sits inside so write_bench sees the
     registry. *)
  with_local_metrics @@ fun () ->
  for i = 0 to 1_023 do
    Obs.with_span "hotpath.apply_delta" (fun () -> apply i)
  done;
  Obs.gauge "hotpath.events_per_sec" events_per_sec;
  Obs.gauge "hotpath.minor_words" minor_words;
  write_bench "BENCH_hotpath.json" ~benchmark:"hotpath" ~topo ~seed:97
    ~params:(params_string params)
    [
      ("members_per_group", Int group_size);
      ("events", Int events);
      ("events_per_sec", Num events_per_sec);
      ("ns_per_event", Num ns_per_event);
      ( "probe",
        Obj
          [
            ("events", Int 4096);
            ("minor_words_total", Num report.total_words);
            ("minor_words_per_event", Num report.per_event);
            ("clean", gate "probe.clean" (Option.is_none report.first_alloc));
          ] );
      ( "inject",
        Obj
          [
            ("packets", Int packets);
            ("words_per_packet", Num words_per_packet);
            ("words_beyond_report", Num words_beyond_report);
            ( "report_only",
              gate "inject.words_beyond_report" (words_beyond_report <= 0.0) );
          ] );
      ( "gc",
        Obj
          [
            ("minor_words", Num minor_words);
            ("minor_collections", Int minor_collections);
            ("promoted_words", Num promoted_words);
          ] );
      ( "churn_reference_events_per_sec",
        Option.fold ~none:Jsonx.Null ~some:(fun r -> Jsonx.Num r) reference );
    ]

(* {1 Telemetry baseline: measured utilization under the oblivious encoder} *)

(* The "before" number for the traffic-engineering roadmap item: a skewed
   (Zipf) WVE workload through the current placement-oblivious encoder,
   measured by the dataplane recorder. A future TE-aware encoder reruns
   this target and compares max/mean link utilization and the elephant
   set. *)
let te_baseline () =
  hr
    "TE baseline: link utilization + elephants, oblivious encoder \
     (BENCH_telemetry.json)";
  let topo = clos_2048 () in
  let total_groups = env "ELMO_TE_GROUPS" 2_000 in
  let packets = env "ELMO_TE_PACKETS" 20_000 in
  with_local_metrics @@ fun () ->
  let flight = Tel_flight.create ~capacity:256 () in
  let cfg =
    {
      (Tel_report.default_config topo) with
      Tel_report.groups = total_groups;
      tenants = 40;
      packets;
      churn_events = max 200 (total_groups / 10);
      seed = 33;
      (* Just under the hottest host links' peak: the watermark path (and
         its flight-recorder notes) exercises on every default run. *)
      watermark = 0.02;
    }
  in
  printf "topology: %a; %d groups over %d tenants; %d packets of %d B; \
          zipf %g; k=%d; watermark %g@."
    Topology.pp topo cfg.Tel_report.groups cfg.Tel_report.tenants
    cfg.Tel_report.packets cfg.Tel_report.payload cfg.Tel_report.zipf
    cfg.Tel_report.k cfg.Tel_report.watermark;
  let res = Tel_report.run ~flight cfg in
  printf "%a@." Tel_report.pp res;
  let ls = Tel_recorder.links res.Tel_report.recorder in
  let sk = Tel_recorder.sketch res.Tel_report.recorder in
  let anomaly =
    (not res.Tel_report.sketch_ok) || res.Tel_report.missed_heavy > 0
  in
  (* Flight dump on anomaly (sketch bound violated) or on the expected
     watermark breaches — the always-on recorder's tail shows the
     control-plane ops leading up to them. *)
  if anomaly then
    Tel_flight.dump_to_file ~reason:"sketch_violation" flight
      "FLIGHT_te_baseline.json"
  else if Tel_series.watermark_events ls > 0 then
    Tel_flight.dump_to_file ~reason:"watermark" flight
      "FLIGHT_te_baseline.json";
  if Sys.file_exists "FLIGHT_te_baseline.json" then
    printf "wrote FLIGHT_te_baseline.json@.";
  let kind_name = function
    | Tel_series.Host_link -> "host"
    | Tel_series.Leaf_spine -> "leaf-spine"
    | Tel_series.Spine_core -> "spine-core"
  in
  let link_json (r : Tel_report.link_row) =
    Jsonx.Obj
      [
        ("link", Int r.row_link);
        ("kind", Str (kind_name r.row_kind));
        ("a", Int r.row_a);
        ("b", Int r.row_b);
        ("bytes", Int r.row_bytes);
        ("max_util", Num r.row_max_util);
        ("mean_util", Num r.row_mean_util);
      ]
  in
  let elephant_json (e : Tel_report.elephant) =
    Jsonx.Obj
      [
        ("group", Int e.eg);
        ("est", Int e.est);
        ("err", Int e.err);
        ("exact", Int e.exact_bytes);
        ("within_bound", Bool e.within);
      ]
  in
  let recorder = res.Tel_report.recorder in
  write_bench "BENCH_telemetry.json" ~benchmark:"te_baseline" ~link_gbps:true
    ~topo:cfg.topo ~seed:cfg.seed ~params:(params_string cfg.params)
    [
      ("groups", Int cfg.groups);
      ("tenants", Int cfg.tenants);
      ("packets", Int cfg.packets);
      ("injected", Int res.injected);
      ("no_header", Int res.no_header);
      ("churn_events", Int cfg.churn_events);
      ("payload", Int cfg.payload);
      ("zipf", Num cfg.zipf);
      ("seed", Int cfg.seed);
      ( "utilization",
        Obj
          [
            ("max", Num (Tel_recorder.max_utilization recorder));
            ("mean", Num (Tel_recorder.mean_utilization recorder));
            ("active_links", Int (Tel_series.active_links ls));
            ("links", Int (Tel_series.nlinks ls));
            ("cap_bytes_per_window", Int (Tel_series.cap_bytes ls));
            ("watermark", Num (Tel_series.watermark ls));
            ("watermark_events", Int (Tel_series.watermark_events ls));
          ] );
      ("links", List (List.map link_json (Tel_report.link_rows res ~n:20)));
      ("elephants", List (List.map elephant_json (Tel_report.elephants res ~n:16)));
      ( "sketch",
        Obj
          [
            ("k", Int (Tel_sketch.k sk));
            (* Every tracked entry within its bound, and no heavy group
               left untracked. *)
            ("ok", gate "sketch.ok" (not anomaly));
            ("missed_heavy", Int res.missed_heavy);
            ("total_bytes", Int (Tel_sketch.total sk));
            ("evictions", Int (Tel_sketch.evictions sk));
          ] );
      ( "churn",
        Obj
          [
            ("fast_path", Int res.churn.fast_path);
            ("reencoded", Int res.churn.reencoded);
          ] );
    ]

let targets =
  [
    ("fig4", fig4);
    ("fig5", fig5);
    ("uniform", uniform);
    ("constrained", constrained);
    ("table2", table2);
    ("failures", failures);
    ("fig6", fig6);
    ("sflow", sflow);
    ("fig7", fig7);
    ("table3", table3);
    ("ablation", ablation);
    ("twotier", twotier);
    ("nonclos", nonclos);
    ("legacy", legacy);
    ("bisection", bisection);
    ("strawman", strawman);
    ("churn", churn);
    ("hotpath", hotpath);
    ("faults", faults);
    ("recovery", recovery);
    ("te-baseline", te_baseline);
    ("verify", verify);
    ("footprint", footprint);
    ("micro", micro);
  ]

let all () = List.iter (fun (_, f) -> f ()) targets

let () =
  let argv = List.tl (Array.to_list Sys.argv) in
  let want_trace = List.mem "--trace" argv in
  let want_metrics = List.mem "--metrics" argv in
  let args =
    List.filter (fun a -> a <> "--trace" && a <> "--metrics") argv
  in
  let clock = Obs_clock.of_kind (Obs_clock.kind_of_env ()) in
  let trace = if want_trace then Some (Obs_trace.create ~clock ()) else None in
  let metrics =
    if want_trace || want_metrics then Some (Obs_metrics.create ()) else None
  in
  if want_trace || want_metrics then
    Obs.install (Obs_ctx.make ?metrics ?trace ~clock ());
  (match args with
  | [] | [ "all" ] -> all ()
  | args ->
      List.iter
        (fun a ->
          match List.assoc_opt a targets with
          | Some f -> f ()
          | None ->
              printf "unknown target %S; available: %s all@." a
                (String.concat " " (List.map fst targets));
              exit 1)
        args);
  (match trace with
  | Some tr ->
      Obs_trace.write_chrome tr "BENCH_trace.json";
      printf "wrote BENCH_trace.json (%d events, %s clock)@."
        (Obs_trace.event_count tr)
        (Obs_clock.kind_to_string (Obs_clock.kind clock))
  | None -> ());
  match metrics with
  | Some m when want_metrics -> printf "@.metrics:@.%a@." Obs_metrics.pp m
  | Some _ | None -> ()
