module Obs = Elmo_obs.Obs

(* One self-contained measured run: place a tenant workload, batch-install
   it, churn memberships, then drive a skewed packet
   workload through the operational fabric with a Recorder attached. The
   result carries both the sketch view and the exact per-group byte counts,
   so callers (tests, bench te-baseline, elmo-sim top) can cross-validate
   the sketch's error bounds against ground truth. *)

type config = {
  topo : Topology.t;
  params : Params.t;
  groups : int;
  tenants : int;
  packets : int;
  churn_events : int;
  payload : int;
  zipf : float;
  seed : int;
  k : int;
  windows : int;
  window_s : float;
  advance_every : int;
  watermark : float;
}

let default_config topo =
  {
    topo;
    params = Params.create ();
    groups = 256;
    tenants = 20;
    packets = 2000;
    churn_events = 200;
    payload = 1500;
    zipf = 1.1;
    seed = 42;
    k = 16;
    windows = 8;
    window_s = 1e-3;
    advance_every = 64;
    watermark = 0.0;
  }

type result = {
  recorder : Recorder.t;
  exact : int array;  (* per-group exact wire bytes *)
  injected : int;
  no_header : int;
  churn : Controller.churn_stats;
  sketch_ok : bool;  (* every tracked entry within its error bound *)
  missed_heavy : int;  (* groups over total/k the sketch failed to track *)
}

let random_role rng =
  match Rng.int rng 3 with
  | 0 -> Controller.Sender
  | 1 -> Controller.Receiver
  | _ -> Controller.Both

(* Zipf(s) over ranks 1..n: cumulative weights, inverted by binary search
   on a uniform float draw. Group_dist sizes the groups; this skews which
   group talks, making a few groups the elephants the sketch must find. *)
let zipf_picker rng ~n ~s =
  let cum = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (i + 1)) s);
    cum.(i) <- !acc
  done;
  let total = !acc in
  fun () ->
    let x = Rng.float rng total in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cum.(mid) <= x then lo := mid + 1 else hi := mid
    done;
    !lo

let run ?flight cfg =
  Obs.with_span "telemetry.report"
    ~attrs:
      [ ("groups", Obs.Int cfg.groups); ("packets", Obs.Int cfg.packets) ]
  @@ fun () ->
  let fr =
    match flight with Some fr -> fr | None -> Flight_recorder.ambient ()
  in
  let rng = Rng.create cfg.seed in
  (* Tenant sizes scaled to the topology: a tenant under Pack_up_to 12 can
     hold at most 12 VMs per rack, so cap the size distribution where the
     paper's parameters would overflow a small test fabric. *)
  let max_tenant = max 10 (min 5000 (12 * Topology.num_leaves cfg.topo)) in
  let mean = Float.min 135.5 (float_of_int max_tenant /. 4.0) in
  let tenant_sizes =
    Array.init cfg.tenants (fun _ ->
        Vm_placement.tenant_size_sample rng ~min:10 ~mean ~max:max_tenant)
  in
  let placement =
    Vm_placement.place rng cfg.topo ~strategy:(Vm_placement.Pack_up_to 12)
      ~host_capacity:20 ~tenant_sizes
  in
  let groups =
    Workload.generate (Rng.split rng) placement ~kind:Group_dist.Wve
      ~total_groups:cfg.groups
  in
  let ctrl = Controller.create cfg.topo cfg.params in
  let batch =
    Array.to_list groups
    |> List.map (fun g ->
           ( g.Workload.group_id,
             Array.to_list g.Workload.member_hosts
             |> List.map (fun h -> (h, random_role rng)) ))
  in
  ignore (Controller.install_all ctrl batch : Controller.updates);
  List.iter
    (fun (group, members) ->
      Flight_recorder.record_op fr (Journal.Add_group { group; members }))
    batch;
  (* Membership churn before the packet phase, so the measured encodings
     include fast-path deltas, not just fresh encodes. *)
  let n = Array.length groups in
  for _ = 1 to cfg.churn_events do
    let gi = Rng.int rng (max 1 n) in
    let g = groups.(gi) in
    let group = g.Workload.group_id in
    let members = Controller.members ctrl ~group in
    let vms = placement.Vm_placement.tenants.(g.Workload.tenant_id).Vm_placement.vm_hosts in
    let is_member h = List.exists (fun (m, _) -> m = h) members in
    let want_join = List.is_empty members || Rng.bool rng in
    let joined =
      if not want_join then false
      else begin
        let rec try_pick attempts =
          if attempts = 0 then false
          else begin
            let h = vms.(Rng.int rng (Array.length vms)) in
            if is_member h then try_pick (attempts - 1)
            else begin
              let role = random_role rng in
              ignore (Controller.join ctrl ~group ~host:h ~role : Controller.updates);
              Flight_recorder.record_op fr (Journal.Join { group; host = h; role });
              true
            end
          end
        in
        try_pick 10
      end
    in
    if not joined then
      match members with
      | [] -> ()
      | ms ->
          let host, _ = List.nth ms (Rng.int rng (List.length ms)) in
          ignore (Controller.leave ctrl ~group ~host : Controller.updates);
          Flight_recorder.record_op fr (Journal.Leave { group; host })
  done;
  (* Materialize the post-churn encodings as fabric s-rules and attach the
     recorder before any packet flows. *)
  let fab = Fabric.create cfg.topo in
  Array.iter
    (fun g ->
      match Controller.encoding ctrl ~group:g.Workload.group_id with
      | Some enc -> Fabric.install_encoding fab ~group:g.Workload.group_id enc
      | None -> ())
    groups;
  let recorder =
    Recorder.create ~windows:cfg.windows ~window_s:cfg.window_s ~k:cfg.k
      ~advance_every:cfg.advance_every ~watermark:cfg.watermark ~flight:fr
      cfg.topo
  in
  Recorder.attach recorder fab;
  let pick = zipf_picker (Rng.split rng) ~n ~s:cfg.zipf in
  let exact = Array.make n 0 in
  let injected = ref 0 in
  let no_header = ref 0 in
  for _ = 1 to cfg.packets do
    let gi = pick () in
    let g = groups.(gi) in
    let group = g.Workload.group_id in
    match Controller.members ctrl ~group with
    | [] -> ()
    | ms -> (
        let sender, _ = List.nth ms (Rng.int rng (List.length ms)) in
        match Controller.header ctrl ~group ~sender with
        | None -> incr no_header
        | Some header ->
            let r = Fabric.inject fab ~sender ~group ~header ~payload:cfg.payload in
            incr injected;
            exact.(gi) <-
              exact.(gi)
              + (cfg.payload * r.Fabric.transmissions)
              + r.Fabric.header_bytes)
  done;
  Recorder.detach fab;
  Recorder.publish recorder;
  (* Cross-validate the sketch against ground truth. Sketch keys are group
     ids; [exact] is indexed by array position — identical here because
     Workload numbers groups densely from 0. *)
  let sketch = Recorder.sketch recorder in
  let total = Sketch.total sketch in
  let sketch_ok =
    List.for_all
      (fun (e : Sketch.entry) ->
        e.Sketch.key < n
        && e.Sketch.est - e.Sketch.err <= exact.(e.Sketch.key)
        && exact.(e.Sketch.key) <= e.Sketch.est)
      (Sketch.entries sketch)
  in
  let missed_heavy = ref 0 in
  for gi = 0 to n - 1 do
    if exact.(gi) * cfg.k > total && not (Sketch.mem sketch gi) then
      incr missed_heavy
  done;
  {
    recorder;
    exact;
    injected = !injected;
    no_header = !no_header;
    churn = Controller.churn_stats ctrl;
    sketch_ok;
    missed_heavy = !missed_heavy;
  }

(* {1 Presentation} *)

type link_row = {
  row_link : int;
  row_kind : Link_series.link_kind;
  row_a : int;
  row_b : int;
  row_bytes : int;
  row_max_util : float;
  row_mean_util : float;
}

let link_rows res ~n =
  let ls = Recorder.links res.recorder in
  List.map
    (fun link ->
      let kind, a, b = Link_series.describe ls link in
      {
        row_link = link;
        row_kind = kind;
        row_a = a;
        row_b = b;
        row_bytes = Link_series.link_bytes ls ~link;
        row_max_util = Link_series.max_utilization ls ~link;
        row_mean_util = Link_series.mean_utilization ls ~link;
      })
    (Link_series.top ls ~n)

type elephant = {
  eg : int;
  est : int;
  err : int;
  exact_bytes : int;
  within : bool;
}

let elephants res ~n =
  List.map
    (fun (e : Sketch.entry) ->
      let exact =
        if e.Sketch.key < Array.length res.exact then res.exact.(e.Sketch.key)
        else 0
      in
      {
        eg = e.Sketch.key;
        est = e.Sketch.est;
        err = e.Sketch.err;
        exact_bytes = exact;
        within = e.Sketch.est - e.Sketch.err <= exact && exact <= e.Sketch.est;
      })
    (Sketch.top (Recorder.sketch res.recorder) ~n)

let kind_name = function
  | Link_series.Host_link -> "host"
  | Link_series.Leaf_spine -> "leaf-spine"
  | Link_series.Spine_core -> "spine-core"

let pp ppf res =
  let ls = Recorder.links res.recorder in
  Format.fprintf ppf "packets injected      %d (no header: %d)@."
    res.injected res.no_header;
  Format.fprintf ppf "active links          %d / %d@."
    (Link_series.active_links ls) (Link_series.nlinks ls);
  Format.fprintf ppf "max link utilization  %.4f@."
    (Recorder.max_utilization res.recorder);
  Format.fprintf ppf "mean link utilization %.4f (active links)@."
    (Recorder.mean_utilization res.recorder);
  Format.fprintf ppf "watermark events      %d (threshold %g)@."
    (Link_series.watermark_events ls) (Link_series.watermark ls);
  let fp = res.churn.Controller.fast_path
  and re = res.churn.Controller.reencoded in
  if fp + re > 0 then
    Format.fprintf ppf "churn fast-path       %d/%d (%.1f%%)@." fp (fp + re)
      (100.0 *. float_of_int fp /. float_of_int (fp + re));
  Format.fprintf ppf "@.hottest links:@.";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-10s %a  %9d B  max %.4f  mean %.4f@."
        (kind_name r.row_kind)
        (fun ppf () -> Link_series.pp_link ls ppf r.row_link)
        () r.row_bytes r.row_max_util r.row_mean_util)
    (link_rows res ~n:10);
  Format.fprintf ppf "@.elephant groups (sketch est vs exact):@.";
  List.iter
    (fun e ->
      Format.fprintf ppf "  group %-6d est %9d B  err <= %-8d exact %9d B  %s@."
        e.eg e.est e.err e.exact_bytes
        (if e.within then "ok" else "OUT OF BOUND"))
    (elephants res ~n:10);
  Format.fprintf ppf "@.sketch bounds hold    %b (missed heavy groups: %d)@."
    res.sketch_ok res.missed_heavy
