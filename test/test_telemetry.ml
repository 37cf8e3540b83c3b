(* elmo_telemetry: the space-saving sketch's proven error bounds against
   exact counts, pinned link numbering and capacity math, watermark
   crossing + drain, the fabric-attached recorder's byte accounting, the
   disabled-telemetry equivalence guarantee, the flight recorder's ring
   semantics against a replica's applied and replayed ops, and runtime
   zero-alloc probes matching the lint annotations. *)

module Sketch = Elmo_telemetry.Sketch
module Link_series = Elmo_telemetry.Link_series
module Flight_recorder = Elmo_telemetry.Flight_recorder
module Recorder = Elmo_telemetry.Recorder
module Report = Elmo_telemetry.Report

let small_topo () =
  Topology.create ~pods:2 ~leaves_per_pod:2 ~spines_per_pod:2 ~hosts_per_leaf:4
    ~cores_per_plane:1

(* {1 Sketch} *)

let test_sketch_bounds () =
  (* 200 keys through a 16-slot sketch, weights skewed so a handful of
     keys dominate: the regime where space-saving must both evict a lot
     and still pin every elephant. *)
  let k = 16 in
  let nkeys = 200 in
  let sk = Sketch.create k in
  let exact = Array.make nkeys 0 in
  let rng = Rng.create 7 in
  for _ = 1 to 5_000 do
    (* Square the draw to skew mass toward low keys. *)
    let r = Rng.int rng nkeys in
    let key = r * r / nkeys in
    let weight = 1 + Rng.int rng 100 in
    exact.(key) <- exact.(key) + weight;
    Sketch.update sk ~key ~weight
  done;
  let total = Array.fold_left ( + ) 0 exact in
  Alcotest.(check int) "total conserved" total (Sketch.total sk);
  Alcotest.(check bool) "evictions happened" true (Sketch.evictions sk > 0);
  let entries = Sketch.entries sk in
  Alcotest.(check bool) "at most k entries" true (List.length entries <= k);
  (* Bound 1: est - err <= true <= est for every tracked key. *)
  List.iter
    (fun (e : Sketch.entry) ->
      let t = exact.(e.Sketch.key) in
      Alcotest.(check bool)
        (Printf.sprintf "key %d within bound" e.Sketch.key)
        true
        (e.Sketch.est - e.Sketch.err <= t && t <= e.Sketch.est))
    entries;
  (* Bound 2: every key over total/k is tracked. *)
  Array.iteri
    (fun key t ->
      if t * k > total then
        Alcotest.(check bool)
          (Printf.sprintf "heavy key %d tracked" key)
          true (Sketch.mem sk key))
    exact;
  (* Bound 3: an untracked key's true weight is at most min_count. *)
  let mc = Sketch.min_count sk in
  Array.iteri
    (fun key t ->
      if not (Sketch.mem sk key) then
        Alcotest.(check bool)
          (Printf.sprintf "untracked key %d below min_count" key)
          true (t <= mc))
    exact;
  (* Entries are sorted by descending estimate. *)
  let rec sorted = function
    | (a : Sketch.entry) :: (b :: _ as rest) ->
        a.Sketch.est >= b.Sketch.est && sorted rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "entries sorted" true (sorted entries);
  Alcotest.(check int) "top 3" 3 (List.length (Sketch.top sk ~n:3))

let test_sketch_exact_while_unevicted () =
  (* Fewer keys than slots: the sketch is an exact counter, err = 0. *)
  let sk = Sketch.create 8 in
  for i = 0 to 4 do
    Sketch.update sk ~key:i ~weight:(10 * (i + 1));
    Sketch.update sk ~key:i ~weight:1
  done;
  Alcotest.(check int) "no evictions" 0 (Sketch.evictions sk);
  Alcotest.(check int) "min_count 0 with empty slots" 0 (Sketch.min_count sk);
  List.iter
    (fun (e : Sketch.entry) ->
      Alcotest.(check int) "err is 0" 0 e.Sketch.err;
      Alcotest.(check int) "est exact" ((10 * (e.Sketch.key + 1)) + 1)
        e.Sketch.est)
    (Sketch.entries sk);
  Alcotest.check_raises "k must be positive"
    (Invalid_argument "Sketch.create: k must be positive") (fun () ->
      ignore (Sketch.create 0))

(* {1 Link series} *)

let test_link_numbering () =
  let ls = Link_series.create (small_topo ()) in
  (* hosts 16, leaves 4 x 2 planes, spines 4 x 1 core slot = 28 links *)
  Alcotest.(check int) "nlinks" 28 (Link_series.nlinks ls);
  Alcotest.(check int) "host link" 5 (Link_series.host_link ls ~host:5);
  Alcotest.(check int) "leaf-spine link" 22
    (Link_series.leaf_spine_link ls ~leaf:3 ~spine:2);
  Alcotest.(check int) "leaf-spine plane 1" 21
    (Link_series.leaf_spine_link ls ~leaf:2 ~spine:3);
  Alcotest.(check int) "spine-core link" 27
    (Link_series.spine_core_link ls ~spine:3 ~core:1);
  (* 10 Gbit/s over a 1 ms window = 1.25 MB per window. *)
  Alcotest.(check int) "cap_bytes at 10G/1ms" 1_250_000
    (Link_series.cap_bytes ls);
  (match Link_series.describe ls 5 with
  | Link_series.Host_link, h, l ->
      Alcotest.(check (pair int int)) "host 5 under leaf 1" (5, 1) (h, l)
  | _ -> Alcotest.fail "link 5 should be a host link");
  (match Link_series.describe ls 22 with
  | Link_series.Leaf_spine, leaf, plane ->
      Alcotest.(check (pair int int)) "leaf 3 plane 0" (3, 0) (leaf, plane)
  | _ -> Alcotest.fail "link 22 should be leaf-spine");
  match Link_series.describe ls 27 with
  | Link_series.Spine_core, spine, slot ->
      Alcotest.(check (pair int int)) "spine 3 slot 0" (3, 0) (spine, slot)
  | _ -> Alcotest.fail "link 27 should be spine-core"

let test_link_gbps_scales_capacity () =
  let topo = Topology.with_link_gbps (small_topo ()) 40.0 in
  Alcotest.(check (Alcotest.float 1e-9)) "accessor" 40.0
    (Topology.link_gbps topo);
  let ls = Link_series.create topo in
  Alcotest.(check int) "cap_bytes at 40G/1ms" 5_000_000
    (Link_series.cap_bytes ls);
  Alcotest.check_raises "non-positive rate rejected"
    (Invalid_argument "Topology: link_gbps must be positive") (fun () ->
      ignore (Topology.with_link_gbps topo 0.0))

let test_windows_and_watermark () =
  let ls =
    Link_series.create ~windows:4 ~watermark:0.5 (small_topo ())
  in
  let link = 3 in
  (* Below the 625_000-byte watermark: no event. *)
  Link_series.record ls ~link ~bytes:600_000;
  Alcotest.(check int) "window bytes" 600_000
    (Link_series.window_bytes ls ~link);
  Alcotest.(check int) "no crossing yet" 0 (Link_series.watermark_events ls);
  Alcotest.(check bool) "nothing pending" false (Link_series.has_pending ls);
  (* The packet that pushes the window over the line crosses once. *)
  Link_series.record ls ~link ~bytes:50_000;
  Alcotest.(check int) "one crossing" 1 (Link_series.watermark_events ls);
  Link_series.record ls ~link ~bytes:50_000;
  Alcotest.(check int) "no re-crossing within the window" 1
    (Link_series.watermark_events ls);
  let drained = ref [] in
  Link_series.drain_pending ls (fun l -> drained := l :: !drained);
  Alcotest.(check (list int)) "pending drained" [ link ] !drained;
  Link_series.drain_pending ls (fun _ -> Alcotest.fail "drain not cleared");
  (* Rotation opens a fresh window; the old peak stays visible in the ring
     and a new breach counts again. *)
  Link_series.advance ls;
  Alcotest.(check int) "fresh window empty" 0
    (Link_series.window_bytes ls ~link);
  Alcotest.(check int) "ring keeps the peak" 700_000
    (Link_series.max_window_bytes ls ~link);
  Link_series.record ls ~link ~bytes:700_000;
  Alcotest.(check int) "crossing in the new window" 2
    (Link_series.watermark_events ls);
  Alcotest.(check int) "run total" 1_400_000 (Link_series.link_bytes ls ~link);
  Alcotest.(check int) "per-link packets" 4 (Link_series.link_pkts ls ~link);
  Alcotest.(check int) "one active link" 1 (Link_series.active_links ls);
  Alcotest.(check (list int)) "top" [ link ] (Link_series.top ls ~n:5)

(* {1 Recorder on a live fabric} *)

(* One group on the small topology, encodings materialized as fabric
   s-rules, a few packets injected from different senders. *)
let fabric_with_group () =
  let topo = small_topo () in
  let params = Params.create ~fmax:64 () in
  let ctrl = Controller.create topo params in
  let members =
    [ (0, Controller.Both); (3, Controller.Both); (6, Controller.Receiver);
      (9, Controller.Receiver); (13, Controller.Receiver) ]
  in
  ignore (Controller.add_group ctrl ~group:1 members);
  let fab = Fabric.create topo in
  (match Controller.encoding ctrl ~group:1 with
  | Some enc -> Fabric.install_encoding fab ~group:1 enc
  | None -> ());
  (ctrl, fab)

let test_recorder_accounting () =
  let ctrl, fab = fabric_with_group () in
  let recorder = Recorder.create ~advance_every:1_000 (Fabric.topology fab) in
  Recorder.attach recorder fab;
  let payload = 1_500 in
  let expected = ref 0 in
  let hops = ref 0 in
  for round = 1 to 3 do
    ignore round;
    List.iter
      (fun sender ->
        match Controller.header ctrl ~group:1 ~sender with
        | None -> Alcotest.fail "sender has no header"
        | Some header ->
            let r = Fabric.inject fab ~sender ~group:1 ~header ~payload in
            expected :=
              !expected + (payload * r.Fabric.transmissions)
              + r.Fabric.header_bytes;
            hops := !hops + r.Fabric.transmissions)
      [ 0; 3 ]
  done;
  Recorder.detach fab;
  let ls = Recorder.links recorder in
  (* Every hop landed on exactly one link with payload + its header bytes:
     the series total reconciles with the injection reports exactly. *)
  Alcotest.(check int) "link-series bytes reconcile" !expected
    (Link_series.total_bytes ls);
  Alcotest.(check int) "link-series hops reconcile" !hops
    (Link_series.total_hops ls);
  (* The per-packet sketch saw the same wire bytes, keyed by group. *)
  let sk = Recorder.sketch recorder in
  Alcotest.(check int) "sketch total reconciles" !expected (Sketch.total sk);
  Alcotest.(check bool) "group tracked" true (Sketch.mem sk 1);
  Alcotest.(check int) "packets counted" 6 (Recorder.packets recorder);
  (* Senders' host links carried traffic. *)
  Alcotest.(check bool) "sender link active" true
    (Link_series.link_bytes ls ~link:(Link_series.host_link ls ~host:0) > 0);
  Alcotest.(check bool) "utilization positive" true
    (Recorder.max_utilization recorder > 0.0);
  (* Detached: further packets leave the recorder untouched. *)
  (match Controller.header ctrl ~group:1 ~sender:0 with
  | Some header ->
      ignore (Fabric.inject fab ~sender:0 ~group:1 ~header ~payload)
  | None -> ());
  Alcotest.(check int) "detached recorder frozen" !expected
    (Link_series.total_bytes (Recorder.links recorder))

let test_disabled_equivalence () =
  (* The telemetry hook must never change forwarding: reports from a
     hooked fabric are structurally identical to an unhooked one. *)
  let run ~hook =
    let ctrl, fab = fabric_with_group () in
    let recorder =
      if hook then begin
        let r = Recorder.create (Fabric.topology fab) in
        Recorder.attach r fab;
        Some r
      end
      else None
    in
    let reports =
      List.concat_map
        (fun sender ->
          match Controller.header ctrl ~group:1 ~sender with
          | None -> []
          | Some header ->
              [
                ( Fabric.inject fab ~sender ~group:1 ~header ~payload:700,
                  Fabric.trace fab ~sender ~group:1 ~header );
              ])
        [ 0; 3 ]
    in
    ignore recorder;
    reports
  in
  let plain = run ~hook:false in
  let hooked = run ~hook:true in
  Alcotest.(check int) "same report count" (List.length plain)
    (List.length hooked);
  List.iter2
    (fun ((a : Fabric.report), a_hops) ((b : Fabric.report), b_hops) ->
      Alcotest.(check (list (pair int int))) "delivered identical"
        a.Fabric.delivered b.Fabric.delivered;
      Alcotest.(check int) "transmissions identical" a.Fabric.transmissions
        b.Fabric.transmissions;
      Alcotest.(check int) "header bytes identical" a.Fabric.header_bytes
        b.Fabric.header_bytes;
      Alcotest.(check int) "lost identical" a.Fabric.lost b.Fabric.lost;
      Alcotest.(check bool) "trace identical" true (a_hops = b_hops))
    plain hooked

(* {1 Flight recorder} *)

(* Ops the controller accepts, in order: five groups, then a receiver
   joining and leaving them in turn. *)
let journal_ops n =
  List.init n (fun i ->
      if i < 5 then
        Journal.Add_group
          { group = i; members = [ (i, Controller.Both); (i + 5, Controller.Both) ] }
      else if i mod 2 = 1 then
        Journal.Join { group = i mod 5; host = 12; role = Controller.Receiver }
      else Journal.Leave { group = (i - 1) mod 5; host = 12 })

let op_strings ops = List.map (Format.asprintf "%a" Journal.pp_op) ops

let recorded_ops fr =
  List.map
    (function
      | Flight_recorder.Op { op; _ } -> op
      | Flight_recorder.Note _ | Flight_recorder.Pad ->
          Alcotest.fail "unexpected non-op event")
    (Flight_recorder.events fr)

let test_flight_ring_matches_journal () =
  let topo = small_topo () in
  let fr = Flight_recorder.create ~capacity:8 () in
  let replica =
    Replica.create ~observer:(Flight_recorder.observer fr) topo
      (Params.create ())
  in
  let ops = journal_ops 20 in
  List.iter (Replica.apply replica) ops;
  Alcotest.(check int) "all recorded" 20 (Flight_recorder.recorded fr);
  Alcotest.(check int) "capacity" 8 (Flight_recorder.capacity fr);
  let retained = recorded_ops fr in
  Alcotest.(check int) "ring keeps capacity events" 8 (List.length retained);
  (* The retained tail is exactly the last 8 applied ops, oldest first. *)
  Alcotest.(check (list string)) "tail ops match the applied ops"
    (op_strings (List.filteri (fun i _ -> i >= 12) ops))
    (op_strings retained);
  (* Sequence numbers are the global record indices. *)
  (match Flight_recorder.events fr with
  | Flight_recorder.Op { seq; _ } :: _ ->
      Alcotest.(check int) "oldest retained seq" 12 seq
  | _ -> Alcotest.fail "expected an op first");
  (* A failover over the replica's bytes feeds every replayed suffix op to
     its recorder exactly once, in log order. *)
  let replayed = Flight_recorder.create ~capacity:64 () in
  (match
     Supervisor.failover
       ~observer:(Flight_recorder.observer replayed)
       ~fabric:(Fabric.create topo)
       (Wire.contents (Option.get (Replica.wire replica)))
   with
  | Error e -> Alcotest.fail e
  | Ok o ->
      let suffix = o.Supervisor.loaded.Wire.l_suffix in
      Alcotest.(check int) "the whole run is the suffix" 20
        (List.length suffix);
      Alcotest.(check int) "one record per replayed op" 20
        (Flight_recorder.recorded replayed);
      Alcotest.(check (list string)) "replayed ops in log order"
        (op_strings suffix)
        (op_strings (recorded_ops replayed)));
  (* Notes interleave with ops in arrival order. *)
  Flight_recorder.note fr "watermark" ~a:7 ~b:1_000_000;
  match List.rev (Flight_recorder.events fr) with
  | Flight_recorder.Note { label; a; b; seq } :: _ ->
      Alcotest.(check string) "note label" "watermark" label;
      Alcotest.(check (pair int int)) "note payload" (7, 1_000_000) (a, b);
      Alcotest.(check int) "note seq" 20 seq
  | _ -> Alcotest.fail "note should be newest"

let test_flight_dump () =
  let fr = Flight_recorder.create ~capacity:4 () in
  List.iter (Flight_recorder.record_op fr) (journal_ops 6);
  Flight_recorder.note fr "blackhole" ~a:3 ~b:9;
  let json = Flight_recorder.dump ~reason:"test" fr in
  List.iter
    (fun affix ->
      Alcotest.(check bool) (affix ^ " present") true
        (Astring.String.is_infix ~affix json))
    [
      {|"flight_recorder"|};
      {|"reason": "test"|};
      {|"recorded": 7|};
      {|"capacity": 4|};
      {|"kind": "note"|};
      {|"label": "blackhole"|};
      {|"kind": "op"|};
    ];
  (* Overwritten slots are gone: the oldest retained seq is 3 of 7. *)
  Alcotest.(check bool) "evicted op absent" false
    (Astring.String.is_infix ~affix:{|"seq": 2|} json);
  Alcotest.(check bool) "oldest retained present" true
    (Astring.String.is_infix ~affix:{|"seq": 3|} json)

(* {1 End-to-end report} *)

let report_topo () =
  Topology.create ~pods:2 ~leaves_per_pod:2 ~spines_per_pod:2 ~hosts_per_leaf:8
    ~cores_per_plane:1

let small_cfg () =
  {
    (Report.default_config (report_topo ())) with
    Report.groups = 32;
    tenants = 4;
    packets = 300;
    churn_events = 40;
    k = 8;
  }

let test_report_run () =
  let fr = Flight_recorder.create ~capacity:64 () in
  let res = Report.run ~flight:fr (small_cfg ()) in
  Alcotest.(check int) "all packets injected" 300
    (res.Report.injected + res.Report.no_header);
  Alcotest.(check bool) "sketch bounds hold" true res.Report.sketch_ok;
  Alcotest.(check int) "no missed heavy group" 0 res.Report.missed_heavy;
  (* Exact counts and the sketch were fed from the same injections. *)
  Alcotest.(check int) "exact total = sketch total"
    (Array.fold_left ( + ) 0 res.Report.exact)
    (Sketch.total (Recorder.sketch res.Report.recorder));
  Alcotest.(check bool) "links observed" true
    (Report.link_rows res ~n:5 <> []);
  List.iter
    (fun (e : Report.elephant) ->
      Alcotest.(check bool) "elephant within bound" true e.Report.within)
    (Report.elephants res ~n:8);
  (* The control-plane ops of the run landed in the flight recorder:
     setup adds plus churn joins/leaves. *)
  Alcotest.(check bool) "flight recorder saw the ops" true
    (Flight_recorder.recorded fr > 32);
  (* Determinism: same config, same flight tail, same exact counts. *)
  let res2 = Report.run ~flight:(Flight_recorder.create ()) (small_cfg ()) in
  Alcotest.(check bool) "deterministic exact counts" true
    (res.Report.exact = res2.Report.exact)

let test_report_watermark_notes () =
  (* A tiny threshold forces crossings; each drained crossing lands as a
     watermark note in the flight recorder — the telemetry anomaly tap. *)
  let fr = Flight_recorder.create ~capacity:512 () in
  let cfg = { (small_cfg ()) with Report.watermark = 0.0001 } in
  let res = Report.run ~flight:fr cfg in
  let ls = Recorder.links res.Report.recorder in
  Alcotest.(check bool) "crossings happened" true
    (Link_series.watermark_events ls > 0);
  let notes =
    List.filter
      (function
        | Flight_recorder.Note { label = "watermark"; _ } -> true
        | Flight_recorder.Note _ | Flight_recorder.Op _ | Flight_recorder.Pad
          ->
            false)
      (Flight_recorder.events fr)
  in
  Alcotest.(check bool) "watermark notes recorded" true (notes <> [])

(* {1 Runtime zero-alloc probes} *)

(* The static lint annotations on Sketch.update, Link_series.record and
   Recorder.record_hop each get the Gc.minor_words cross-check the
   apply_delta hot path already has. *)

let test_sketch_update_zero_alloc () =
  let sk = Sketch.create 8 in
  (* Pre-fill all slots so the probe exercises both hit and evict paths. *)
  for key = 0 to 7 do
    Sketch.update sk ~key ~weight:1_000
  done;
  let report =
    Allocs.probe ~warmup:64 ~events:4_096 (fun i ->
        (* Alternate a tracked key (hit) and a rotating miss (evict). *)
        if i land 1 = 0 then Sketch.update sk ~key:0 ~weight:3
        else Sketch.update sk ~key:(100 + (i land 7)) ~weight:1)
  in
  Alcotest.(check (option (pair int int))) "sketch update clean" None
    report.Allocs.first_alloc

let test_record_hop_zero_alloc () =
  let topo = small_topo () in
  let recorder = Recorder.create ~advance_every:1_000_000 topo in
  let hops =
    [|
      { Fabric.hop_from = Fabric.Host_node 0; hop_to = Fabric.Leaf_node 0;
        hop_header_bytes = 40 };
      { Fabric.hop_from = Fabric.Leaf_node 0; hop_to = Fabric.Spine_node 1;
        hop_header_bytes = 40 };
      { Fabric.hop_from = Fabric.Spine_node 1; hop_to = Fabric.Core_node 0;
        hop_header_bytes = 24 };
      { Fabric.hop_from = Fabric.Leaf_node 2; hop_to = Fabric.Host_node 9;
        hop_header_bytes = 0 };
    |]
  in
  let report =
    Allocs.probe ~warmup:64 ~events:4_096 (fun i ->
        Recorder.record_hop recorder ~payload:1_500 hops.(i land 3))
  in
  Alcotest.(check (option (pair int int))) "record_hop clean" None
    report.Allocs.first_alloc;
  let ls = Recorder.links recorder in
  Alcotest.(check bool) "probe traffic recorded" true
    (Link_series.total_hops ls > 4_000)

let tests =
  [
    Alcotest.test_case "sketch bounds vs exact" `Quick test_sketch_bounds;
    Alcotest.test_case "sketch exact while unevicted" `Quick
      test_sketch_exact_while_unevicted;
    Alcotest.test_case "link numbering pinned" `Quick test_link_numbering;
    Alcotest.test_case "link_gbps scales capacity" `Quick
      test_link_gbps_scales_capacity;
    Alcotest.test_case "windows and watermark" `Quick
      test_windows_and_watermark;
    Alcotest.test_case "recorder accounting" `Quick test_recorder_accounting;
    Alcotest.test_case "disabled-telemetry equivalence" `Quick
      test_disabled_equivalence;
    Alcotest.test_case "flight ring matches journal" `Quick
      test_flight_ring_matches_journal;
    Alcotest.test_case "flight dump" `Quick test_flight_dump;
    Alcotest.test_case "report run" `Quick test_report_run;
    Alcotest.test_case "report watermark notes" `Quick
      test_report_watermark_notes;
    Alcotest.test_case "sketch update zero-alloc" `Quick
      test_sketch_update_zero_alloc;
    Alcotest.test_case "record_hop zero-alloc" `Quick
      test_record_hop_zero_alloc;
  ]
