(* elmo-sim: command-line front-end to the simulation harness.

   elmo-sim scalability --placement 12 --dist wve --groups 50000 -r 0 -r 12
   elmo-sim churn --events 20000
   elmo-sim faults --rate 0.2 --events 400
   elmo-sim ablation *)

open Cmdliner
module Obs = Elmo_obs.Obs
module Obs_ctx = Elmo_obs.Ctx
module Obs_clock = Elmo_obs.Clock
module Obs_metrics = Elmo_obs.Metrics
module Obs_trace = Elmo_obs.Trace
module Provenance = Elmo_obs.Provenance

let trace_arg =
  let doc =
    "Write a Chrome trace_event JSON of the run to $(docv) (load it in \
     chrome://tracing or Perfetto). ELMO_TRACE_CLOCK=mono selects wall-clock \
     timestamps; the default logical clock makes traced runs byte-identical \
     per seed."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Print the observability registry (counters and latency histograms) \
     after the run."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

(* Install an ambient observability context around [f], then export the
   trace and/or print the metrics dump. No-op when neither flag is given. *)
let with_obs trace_file want_metrics f =
  if Option.is_none trace_file && not want_metrics then f ()
  else begin
    let clock = Obs_clock.of_kind (Obs_clock.kind_of_env ()) in
    let trace = Option.map (fun _ -> Obs_trace.create ~clock ()) trace_file in
    let metrics =
      if want_metrics then Some (Obs_metrics.create ()) else None
    in
    Obs.install (Obs_ctx.make ?metrics ?trace ~clock ());
    Fun.protect
      ~finally:(fun () -> Obs.install Obs_ctx.disabled)
      (fun () ->
        let r = f () in
        (match (trace, trace_file) with
        | Some tr, Some file ->
            Obs_trace.write_chrome tr file;
            Format.printf "wrote %s (%d events, %s clock)@." file
              (Obs_trace.event_count tr)
              (Obs_clock.kind_to_string (Obs_clock.kind clock))
        | _ -> ());
        (match metrics with
        | Some m -> Format.printf "@.metrics:@.%a@." Obs_metrics.pp m
        | None -> ());
        r)
  end

let groups_arg =
  let doc = "Number of multicast groups to simulate." in
  Arg.(value & opt int 50_000 & info [ "groups"; "g" ] ~docv:"N" ~doc)

let tenants_arg =
  let doc = "Number of tenants." in
  Arg.(value & opt int 3_000 & info [ "tenants" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Random seed (runs are deterministic per seed)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let placement_arg =
  let parse s =
    match Vm_placement.strategy_of_string s with
    | Some st -> Ok st
    | None -> Error (`Msg "expected a positive rack bound or \"all\"")
  in
  let strategy_conv = Arg.conv ~docv:"P" (parse, Vm_placement.pp_strategy) in
  let doc = "Placement strategy: max VMs of a tenant per rack (or \"all\")." in
  Arg.(
    value
    & opt strategy_conv (Vm_placement.Pack_up_to 12)
    & info [ "placement"; "P" ] ~docv:"P" ~doc)

let dist_arg =
  let parse s =
    match Group_dist.kind_of_string s with
    | Some k -> Ok k
    | None -> Error (`Msg "expected \"wve\" or \"uniform\"")
  in
  let dist_conv = Arg.conv ~docv:"DIST" (parse, Group_dist.pp_kind) in
  let doc = "Group-size distribution (wve or uniform)." in
  Arg.(value & opt dist_conv Group_dist.Wve & info [ "dist" ] ~docv:"DIST" ~doc)

let r_arg =
  let doc = "Redundancy limit(s) R to sweep (repeatable)." in
  Arg.(value & opt_all int [ 0; 6; 12 ] & info [ "r" ] ~docv:"R" ~doc)

let fmax_arg =
  let doc =
    "Per-switch s-rule capacity. Defaults to 30,000 scaled by groups/1M."
  in
  Arg.(value & opt (some int) None & info [ "fmax" ] ~docv:"N" ~doc)

let budget_arg =
  let doc = "Header budget in bytes (0 disables budget-driven Hmax)." in
  Arg.(value & opt int 325 & info [ "budget" ] ~docv:"BYTES" ~doc)

let config groups tenants seed placement dist fmax budget =
  let fmax =
    match fmax with
    | Some f -> f
    | None -> max 50 (30_000 * groups / 1_000_000)
  in
  let header_budget = if budget = 0 then None else Some budget in
  {
    Scalability.topo = Topology.facebook_fabric ();
    tenants;
    total_groups = groups;
    strategy = placement;
    dist;
    params = Params.create ~fmax ~header_budget ();
    seed;
  }

let scalability_cmd =
  let run groups tenants seed placement dist fmax budget rs trace_file metrics =
    let cfg = config groups tenants seed placement dist fmax budget in
    let prov =
      Provenance.capture ~seed
        ~params:(Format.asprintf "%a" Params.pp cfg.Scalability.params) ()
    in
    Format.printf "provenance: %a@." Provenance.pp prov;
    Format.printf "topology: %a@.placement: %a  dist: %a  groups: %d  params: %a@."
      Topology.pp cfg.Scalability.topo Vm_placement.pp_strategy placement
      Group_dist.pp_kind dist groups Params.pp cfg.Scalability.params;
    with_obs trace_file metrics (fun () ->
        List.iter
          (fun p -> Format.printf "@.%a@." Scalability.pp_point p)
          (Scalability.run cfg ~r_values:rs))
  in
  let term =
    Term.(
      const run $ groups_arg $ tenants_arg $ seed_arg $ placement_arg
      $ dist_arg $ fmax_arg $ budget_arg $ r_arg $ trace_arg
      $ metrics_arg)
  in
  Cmd.v
    (Cmd.info "scalability"
       ~doc:"Figures 4/5: encode all groups and report coverage, s-rules and \
             traffic overhead across R values.")
    term

let churn_cmd =
  let events_arg =
    Arg.(value & opt int 20_000 & info [ "events" ] ~docv:"N" ~doc:"Membership events.")
  in
  let run groups tenants seed placement dist fmax budget events trace_file
      metrics =
    let base = config groups tenants seed placement dist fmax budget in
    let cfg =
      {
        Control_plane.topo = base.Scalability.topo;
        tenants = base.Scalability.tenants;
        total_groups = base.Scalability.total_groups;
        strategy = base.Scalability.strategy;
        dist = base.Scalability.dist;
        params = base.Scalability.params;
        events;
        events_per_second = 1_000.0;
        failure_trials = 5;
        seed = base.Scalability.seed;
      }
    in
    let prov =
      Provenance.capture ~seed
        ~params:(Format.asprintf "%a" Params.pp base.Scalability.params) ()
    in
    Format.printf "provenance: %a@." Provenance.pp prov;
    with_obs trace_file metrics (fun () ->
        let r = Control_plane.run cfg in
        Format.printf "%a@.@.%a@." Control_plane.pp_table2
          r.Control_plane.churn Control_plane.pp_failures r)
  in
  let term =
    Term.(
      const run $ groups_arg $ tenants_arg $ seed_arg $ placement_arg
      $ dist_arg $ fmax_arg $ budget_arg $ events_arg $ trace_arg
      $ metrics_arg)
  in
  Cmd.v
    (Cmd.info "churn"
       ~doc:"Table 2 and failure handling: per-switch update load under \
             membership churn, plus spine/core failure impact.")
    term

let ablation_cmd =
  let run () =
    List.iter
      (fun s -> Format.printf "%a@." Ablation.pp_step s)
      (Ablation.run ())
  in
  Cmd.v
    (Cmd.info "ablation"
       ~doc:"Header-size ablation of design decisions D1-D5 on the running \
             example.")
    Term.(const run $ const ())

let nonclos_cmd =
  let groups_small =
    Arg.(value & opt int 1_000 & info [ "groups"; "g" ] ~docv:"N" ~doc:"Groups to encode.")
  in
  let r_single =
    Arg.(value & opt int 12 & info [ "r" ] ~docv:"R" ~doc:"Redundancy limit.")
  in
  let run groups r seed =
    List.iter
      (fun res -> Format.printf "%a@.@." Nonclos_exp.pp_result res)
      (Nonclos_exp.run ~groups ~r ~seed ())
  in
  Cmd.v
    (Cmd.info "nonclos"
       ~doc:"Header-space utilization on non-Clos topologies (Xpander vs              Jellyfish), per the paper's 5.1.2 discussion.")
    Term.(const run $ groups_small $ r_single $ seed_arg)

let faults_cmd =
  let events_arg =
    Arg.(
      value & opt int 400
      & info [ "events" ] ~docv:"N" ~doc:"Membership events per rate.")
  in
  let rate_arg =
    Arg.(
      value & opt (some float) None
      & info [ "rate" ] ~docv:"R"
          ~doc:
            "Single per-operation fault probability to run (default: sweep \
             0.0 0.05 0.1 0.2 0.4).")
  in
  let run seed events rate trace_file metrics =
    let topo = Topology.running_example () in
    let params =
      Params.create ~hmax_leaf:1 ~hmax_spine:1 ~header_budget:None ~fmax:6 ()
    in
    let rates =
      match rate with Some r -> [ r ] | None -> [ 0.0; 0.05; 0.1; 0.2; 0.4 ]
    in
    let prov =
      Provenance.capture ~seed
        ~params:(Format.asprintf "%a" Params.pp params) ()
    in
    Format.printf "provenance: %a@." Provenance.pp prov;
    Format.printf "topology: %a; 12 groups x 8 members; %d events per rate@."
      Topology.pp topo events;
    with_obs trace_file metrics (fun () ->
        Format.printf "@.%-8s %-8s %-11s %-8s %-9s %-10s %-8s %-9s@." "rate"
          "probes" "blackholes" "extra%" "retries" "exhausted" "degraded"
          "compens";
        List.iter
          (fun rate ->
            let r =
              Churn.fault_run ~seed topo params ~groups:12 ~group_size:8
                ~events ~rate ~probe_every:25
            in
            let i = r.Churn.install in
            Format.printf "%-8.2f %-8d %-11d %-8.1f %-9d %-10d %-8d %-9d@."
              rate r.Churn.probes r.Churn.blackholes
              (100.0 *. r.Churn.extra_traffic)
              i.Controller.retries i.Controller.exhausted
              i.Controller.degradations i.Controller.compensations)
          rates)
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Fault-tolerant control plane: inject install faults at increasing \
          rates and measure retry/degradation cost (extra traffic, never \
          blackholes).")
    Term.(const run $ seed_arg $ events_arg $ rate_arg $ trace_arg $ metrics_arg)

let verify_cmd =
  let groups_small =
    Arg.(
      value & opt int 128
      & info [ "groups"; "g" ] ~docv:"N"
          ~doc:"Multicast groups to install before checking.")
  in
  let corrupt_arg =
    let doc =
      "Self-test: after installing, drop one receiver's port from the \
       leaf-layer rules of the first multicast group, so the check must \
       produce a counterexample and exit nonzero."
    in
    Arg.(value & flag & info [ "corrupt" ] ~doc)
  in
  let example_arg =
    Arg.(
      value & flag
      & info [ "example" ]
          ~doc:
            "Use the paper's running-example topology instead of the \
             Facebook fabric.")
  in
  (* Clear [host]'s port from every leaf-layer assignment of the view's
     first multicast group: p-rules covering its leaf, the leaf's s-rule,
     and the default p-rule. The symbolic check must then name exactly
     that endpoint. The corruption goes into a private copy of that
     group's encoding (its choices over a copy of its tree): the view
     borrows the controller's live encodings. *)
  let sabotage topo (cfg : Installed_config.t) =
    let corrupt (g : Installed_config.group_view) =
      match g.Installed_config.enc with
      | Some enc when Array.length g.Installed_config.receivers >= 2 ->
          let host = g.Installed_config.receivers.(0) in
          let enc =
            Encoding.(
              of_choices enc.params (Tree.copy enc.tree) (choices enc))
          in
          let leaf = Topology.leaf_of_host topo host in
          let port = Topology.host_port_on_leaf topo host in
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
          Format.printf "corrupted group %d: dropped leaf%d port %d@."
            g.Installed_config.gid leaf port;
          Some { g with Installed_config.enc = Some enc }
      | _ -> None
    in
    let groups = Array.copy (Installed_config.groups cfg) in
    let rec first i =
      if i = Array.length groups then begin
        Format.printf "--corrupt: no multicast group to corrupt@.";
        exit 2
      end
      else
        match corrupt groups.(i) with
        | Some g -> groups.(i) <- g
        | None -> first (i + 1)
    in
    first 0;
    Installed_config.with_groups cfg groups
  in
  let run groups seed corrupt example =
    let topo =
      if example then Topology.running_example ()
      else Topology.facebook_fabric ()
    in
    let ctrl = Controller.create topo Params.default in
    let rng = Rng.create seed in
    let n = Topology.num_hosts topo in
    for g = 0 to groups - 1 do
      let size = 2 + Rng.int rng 15 in
      let members =
        List.init size (fun _ -> Rng.int rng n) |> List.sort_uniq Int.compare
      in
      ignore
        (Controller.add_group ctrl ~group:g
           (List.map (fun h -> (h, Controller.Both)) members))
    done;
    let cfg = Controller.installed_config ctrl in
    let cfg = if corrupt then sabotage topo cfg else cfg in
    Format.printf "checking %d groups against their own trees (%a)...@."
      groups Topology.pp topo;
    let cache = Verify.create_cache () in
    (match Verify.check_config_cached cache cfg ~dirty:(Controller.drain_dirty ctrl) with
    | Ok n ->
        Format.printf "ok: %d groups, installed state == intended delivery@." n
    | Error w ->
        Format.printf "counterexample: %a@." Verify.pp_witness w;
        exit 1);
    (* Demonstrate the incremental oracle: one membership event should
       invalidate exactly one group's cached predicates. *)
    if not corrupt then begin
      let gid = 0 in
      (match Controller.members ctrl ~group:gid with
      | (host, _) :: _ ->
          ignore (Controller.leave ctrl ~group:gid ~host);
          ignore (Controller.join ctrl ~group:gid ~host ~role:Controller.Both)
      | [] -> ());
      let dirty = Controller.drain_dirty ctrl in
      match
        Verify.check_config_cached cache
          (Controller.installed_config ctrl)
          ~dirty
      with
      | Ok n ->
          let hits, misses = Verify.cache_stats cache in
          Format.printf
            "re-check after churn on group %d: %d groups ok, %d re-checked, \
             cache %d hits / %d misses@."
            gid n (List.length dirty) hits misses
      | Error w ->
          Format.printf "counterexample after churn: %a@." Verify.pp_witness w;
          exit 1
    end
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Symbolic forwarding check: compile every group's installed rules \
          to its canonical delivery predicate and compare against the \
          membership intent; print the first counterexample as \
          group/switch/port and exit nonzero.")
    Term.(const run $ groups_small $ seed_arg $ corrupt_arg $ example_arg)

let top_cmd =
  let groups_arg =
    Arg.(
      value & opt int 256
      & info [ "groups"; "g" ] ~docv:"N" ~doc:"Multicast groups to install.")
  in
  let packets_arg =
    Arg.(
      value & opt int 2_000
      & info [ "packets" ] ~docv:"N"
          ~doc:"Packets to inject (Zipf-skewed across groups).")
  in
  let churn_arg =
    Arg.(
      value & opt int 200
      & info [ "churn" ] ~docv:"N"
          ~doc:"Membership events before the packet phase.")
  in
  let k_arg =
    Arg.(
      value & opt int 16
      & info [ "k" ] ~docv:"K" ~doc:"Heavy-hitter sketch slots.")
  in
  let watermark_arg =
    Arg.(
      value & opt float 0.0
      & info [ "watermark" ] ~docv:"FRAC"
          ~doc:
            "Per-window link-utilization fraction above which a watermark \
             event fires (0 disables).")
  in
  let expose_arg =
    Arg.(
      value & flag
      & info [ "expose" ]
          ~doc:"Print the Prometheus text exposition after the table.")
  in
  let example_arg =
    Arg.(
      value & flag
      & info [ "example" ]
          ~doc:
            "Use the paper's running-example topology instead of a small \
             Clos.")
  in
  let flight_dump_arg =
    Arg.(
      value & opt (some string) None
      & info [ "flight-dump" ] ~docv:"FILE"
          ~doc:
            "Write the flight recorder's retained event ring to $(docv) as \
             JSON after the run.")
  in
  let run groups packets churn seed k watermark expose example flight_dump
      trace_file =
    let topo =
      if example then Topology.running_example ()
      else
        Topology.create ~pods:4 ~leaves_per_pod:4 ~spines_per_pod:2
          ~hosts_per_leaf:16 ~cores_per_plane:2
    in
    (* top always measures: install a metrics registry even without
       --metrics so the telemetry gauges have somewhere to land. *)
    let clock = Obs_clock.of_kind (Obs_clock.kind_of_env ()) in
    let trace = Option.map (fun _ -> Obs_trace.create ~clock ()) trace_file in
    let metrics = Obs_metrics.create () in
    Obs.install (Obs_ctx.make ~metrics ?trace ~clock ());
    Fun.protect
      ~finally:(fun () -> Obs.install Obs_ctx.disabled)
      (fun () ->
        let cfg =
          {
            (Elmo_telemetry.Report.default_config topo) with
            Elmo_telemetry.Report.groups;
            packets;
            churn_events = churn;
            seed;
            k;
            watermark;
          }
        in
        let prov =
          Provenance.capture ~seed
            ~params:
              (Format.asprintf "%a" Params.pp cfg.Elmo_telemetry.Report.params)
            ()
        in
        Format.printf "provenance: %a@." Provenance.pp prov;
        Format.printf "topology: %a (%.0f Gbps links)@." Topology.pp topo
          (Topology.link_gbps topo);
        let res = Elmo_telemetry.Report.run cfg in
        Format.printf "@.%a@." Elmo_telemetry.Report.pp res;
        if expose then
          Format.printf "@.exposition:@.%s@." (Obs_metrics.expose metrics);
        (match flight_dump with
        | Some file ->
            Elmo_telemetry.Flight_recorder.dump_to_file ~reason:"top"
              (Elmo_telemetry.Flight_recorder.ambient ())
              file;
            Format.printf "wrote flight-recorder dump to %s@." file
        | None -> ());
        (match (trace, trace_file) with
        | Some tr, Some file ->
            Obs_trace.write_chrome tr file;
            Format.printf "wrote %s (%d events)@." file
              (Obs_trace.event_count tr)
        | _ -> ());
        if not res.Elmo_telemetry.Report.sketch_ok
           || res.Elmo_telemetry.Report.missed_heavy > 0
        then begin
          Elmo_telemetry.Flight_recorder.dump_to_file
            ~reason:"sketch_bound_violation"
            (Elmo_telemetry.Flight_recorder.ambient ())
            "FLIGHT_sketch_violation.json";
          Format.printf "sketch bound violated — wrote FLIGHT_sketch_violation.json@.";
          exit 1
        end)
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "One-shot dataplane telemetry snapshot: run a skewed packet \
          workload over an instrumented fabric and print the hottest links, \
          elephant groups (sketch vs exact) and churn fast-path rate.")
    Term.(
      const run $ groups_arg $ packets_arg $ churn_arg $ seed_arg $ k_arg
      $ watermark_arg $ expose_arg $ example_arg $ flight_dump_arg $ trace_arg)

let recover_cmd =
  let module Flight = Elmo_telemetry.Flight_recorder in
  let journal_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:"Wire-format journal to recover from (or create with --write).")
  in
  let write_arg =
    Arg.(
      value & flag
      & info [ "write" ]
          ~doc:
            "Generate a deterministic fixture journal at --journal (seeded \
             churn on the running example, snapshots included) and exit, \
             instead of recovering.")
  in
  let events_arg =
    Arg.(
      value & opt int 200
      & info [ "events" ] ~docv:"N"
          ~doc:"Churn events in the generated fixture.")
  in
  let flip_arg =
    Arg.(
      value & opt (some int) None
      & info [ "corrupt-flip" ] ~docv:"BIT"
          ~doc:
            "Flip bit $(docv) of the journal bytes before recovering \
             (bit-rot simulation).")
  in
  let truncate_arg =
    Arg.(
      value & opt (some int) None
      & info [ "corrupt-truncate" ] ~docv:"OFF"
          ~doc:
            "Truncate the journal at byte $(docv) before recovering \
             (torn-write simulation).")
  in
  let flight_dump_arg =
    Arg.(
      value & opt (some string) None
      & info [ "flight-dump" ] ~docv:"FILE"
          ~doc:
            "Write the recovery flight recording (replayed ops, truncation/\
             fallback/fence notes) to $(docv) as JSON.")
  in
  (* Deterministic fixture: checkpointed mid-stream so the log exercises
     both the snapshot and the replay suffix. *)
  let gen_fixture path ~events ~seed =
    let wire =
      Recovery_fixture.churn ~checkpoint_at:(events / 2)
        ~snapshot_every:1_000_000 ~events ~seed ()
    in
    Wire.to_file path (Wire.contents wire);
    Format.printf "wrote fixture journal %s: %d records, %d bytes@." path
      (Wire.records wire) (Wire.size wire)
  in
  let run journal write events seed flip truncate flight_dump =
    if write then gen_fixture journal ~events ~seed
    else begin
      let fr = Flight.create ~capacity:1024 () in
      let dump_flight reason =
        match flight_dump with
        | Some file ->
            Flight.dump_to_file ~reason fr file;
            Format.printf "wrote flight-recorder dump to %s@." file
        | None -> ()
      in
      let fail_unrecoverable msg =
        Format.printf "unrecoverable: %s@." msg;
        Flight.note fr "recover.unrecoverable" ~a:0 ~b:0;
        dump_flight "unrecoverable";
        exit 2
      in
      match Wire.of_file journal with
      | Error msg -> fail_unrecoverable msg
      | Ok bytes -> (
          let bytes =
            match truncate with
            | Some off ->
                Flight.note fr "corrupt.truncate" ~a:off ~b:0;
                Wire.truncate_at bytes off
            | None -> bytes
          in
          let bytes =
            match flip with
            | Some bit -> (
                Flight.note fr "corrupt.flip_bit" ~a:bit ~b:0;
                match Wire.flip_bit bytes bit with
                | flipped -> flipped
                | exception Invalid_argument _ ->
                    fail_unrecoverable
                      (Printf.sprintf "--corrupt-flip %d: log is only %d bits"
                         bit
                         (8 * Bytes.length bytes)))
            | None -> bytes
          in
          (* Peek at the log to learn the topology the fabric must have;
             failover re-loads the same bytes for recovery proper. *)
          match Wire.load bytes with
          | Error msg -> fail_unrecoverable msg
          | Ok peek -> (
              match peek.Wire.l_snapshot with
              | None -> fail_unrecoverable "no decodable snapshot in the log"
              | Some snap -> (
                  let topo = Controller.snapshot_topology snap in
                  let fabric = Fabric.create topo in
                  match
                    Supervisor.failover ~observer:(Flight.observer fr) ~fabric
                      bytes
                  with
                  | Error msg -> fail_unrecoverable msg
                  | Ok outcome ->
                      let loaded = outcome.Supervisor.loaded in
                      (match loaded.Wire.l_truncated_at with
                      | Some off -> Flight.note fr "wire.truncated" ~a:off ~b:0
                      | None -> ());
                      if loaded.Wire.l_dropped_snapshots > 0 then
                        Flight.note fr "wire.snapshot_fallback"
                          ~a:loaded.Wire.l_dropped_snapshots ~b:0;
                      Flight.note fr "fence.epoch" ~a:outcome.Supervisor.epoch
                        ~b:loaded.Wire.l_epoch;
                      Format.printf "loaded: %a@." Wire.pp_loaded loaded;
                      Format.printf "fence: epoch %d (log wrote epoch %d)@."
                        outcome.Supervisor.epoch loaded.Wire.l_epoch;
                      Format.printf "reconcile: %a@." Supervisor.pp_reconcile
                        outcome.Supervisor.reconcile;
                      let divergent =
                        match
                          Verify.check_controller
                            (Replica.controller outcome.Supervisor.replica)
                        with
                        | Ok (groups : int) ->
                            Format.printf
                              "verify: %d groups, installed state == intended \
                               delivery@."
                              groups;
                            false
                        | Error w ->
                            Format.printf "verify counterexample: %a@."
                              Verify.pp_witness w;
                            true
                      in
                      (match outcome.Supervisor.blackholes with
                      | [] -> Format.printf "blackholes: none@."
                      | ws ->
                          Format.printf "blackholes: %d (first: %a)@."
                            (List.length ws) Verify.pp_witness (List.hd ws));
                      dump_flight "recover";
                      if divergent || outcome.Supervisor.blackholes <> [] then
                        exit 1)))
    end
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Crash recovery from a durable wire-format journal: load (tolerating \
          torn or corrupt tails), fence the fabric at a fresh epoch, replay, \
          reconcile against the fabric and prove zero blackholes. Exit 0 on a \
          verified recovery, 1 on divergence/blackholes, 2 when the log is \
          unrecoverable.")
    Term.(
      const run $ journal_arg $ write_arg $ events_arg $ seed_arg $ flip_arg
      $ truncate_arg $ flight_dump_arg)

let p4_cmd =
  let role_arg =
    let parse = function
      | "leaf" -> Ok P4gen.Leaf
      | "spine" -> Ok P4gen.Spine
      | "core" -> Ok P4gen.Core
      | _ -> Error (`Msg "expected leaf, spine or core")
    in
    let print ppf = function
      | P4gen.Leaf -> Format.pp_print_string ppf "leaf"
      | P4gen.Spine -> Format.pp_print_string ppf "spine"
      | P4gen.Core -> Format.pp_print_string ppf "core"
    in
    Arg.(
      value
      & opt (Arg.conv ~docv:"ROLE" (parse, print)) P4gen.Leaf
      & info [ "role" ] ~docv:"ROLE" ~doc:"Switch role: leaf, spine or core.")
  in
  let hypervisor_arg =
    Arg.(value & flag & info [ "hypervisor" ] ~doc:"Emit the hypervisor-switch program instead.")
  in
  let id_arg =
    Arg.(value & opt int 0 & info [ "id" ] ~docv:"ID" ~doc:"Switch identifier (leaf number / pod number).")
  in
  let example_arg =
    Arg.(value & flag & info [ "example" ] ~doc:"Use the paper's running-example topology instead of the Facebook fabric.")
  in
  let run role hypervisor id example =
    let topo =
      if example then Topology.running_example () else Topology.facebook_fabric ()
    in
    let params = Params.default in
    if hypervisor then
      print_string (P4gen.hypervisor_switch_program topo params)
    else print_string (P4gen.network_switch_program topo params ~role ~switch_id:id)
  in
  Cmd.v
    (Cmd.info "p4"
       ~doc:"Emit the generated P4-16 program for a switch (boot-time              configuration, paper footnote 3).")
    Term.(const run $ role_arg $ hypervisor_arg $ id_arg $ example_arg)

let main =
  let info =
    Cmd.info "elmo-sim" ~version:"1.0.0"
      ~doc:"Simulation harness for Elmo: source-routed multicast for public \
            clouds (SIGCOMM 2019)."
  in
  Cmd.group info
    [
      scalability_cmd; churn_cmd; faults_cmd; ablation_cmd; nonclos_cmd;
      verify_cmd; top_cmd; recover_cmd; p4_cmd;
    ]

let () = exit (Cmd.eval main)
