type point = {
  prules : int;
  header_bytes : int;
  single_mpps : float;
  single_gbps : float;
  per_rule_mpps : float;
  per_rule_gbps : float;
}

let header_with_rules topo n =
  if n < 0 then invalid_arg "Fig7.header_with_rules";
  let leaf_w = Topology.leaf_downstream_width topo in
  let spine_w = Topology.spine_downstream_width topo in
  let num_leaves = Topology.num_leaves topo in
  let leaf_rule i =
    let bm = Bitmap.create leaf_w in
    Bitmap.set bm (i mod leaf_w);
    Bitmap.set bm ((i + 7) mod leaf_w);
    { Prule.bitmap = bm; switches = [ i mod num_leaves; (i + 1) mod num_leaves ] }
  in
  let spine_rule i =
    let bm = Bitmap.create spine_w in
    Bitmap.set bm (i mod spine_w);
    { Prule.bitmap = bm; switches = [ i mod topo.Topology.pods ] }
  in
  let u_leaf =
    {
      Prule.down = Bitmap.of_list leaf_w [ 0 ];
      up = Bitmap.create (Topology.leaf_upstream_width topo);
      multipath = true;
    }
  in
  let u_spine =
    if Topology.is_two_tier topo then None
    else
      Some
        {
          Prule.down = Bitmap.create spine_w;
          up = Bitmap.create (Topology.spine_upstream_width topo);
          multipath = true;
        }
  in
  let core =
    if Topology.is_two_tier topo then None
    else Some (Bitmap.of_list (Topology.core_downstream_width topo) [ 0; 1 ])
  in
  {
    Prule.u_leaf;
    u_spine;
    core;
    downstream =
      Prule.down topo
        ~d_spine:(List.init (min 2 topo.Topology.pods) spine_rule)
        ~d_spine_default:None ~d_leaf:(List.init n leaf_rule) ~d_leaf_default:None;
  }

(* Time [f] until at least 50 ms have elapsed; returns calls per second. *)
let rate ~iterations f =
  let rec go total_calls total_time =
    let t0 = Unix.gettimeofday () in (* elmo-lint: allow determinism — wall-clock times the encoder itself; it never feeds simulation state *)
    for _ = 1 to iterations do
      ignore (Sys.opaque_identity (f ()))
    done;
    let dt = Unix.gettimeofday () -. t0 in (* elmo-lint: allow determinism — wall-clock times the encoder itself; it never feeds simulation state *)
    let total_calls = total_calls + iterations in
    let total_time = total_time +. dt in
    if total_time < 0.05 then go total_calls total_time
    else float_of_int total_calls /. total_time
  in
  go 0 0.0

let run ?(payload = 1458) ?(iterations = 2_000) topo counts =
  let fabric = Fabric.create topo in
  let hv = Hypervisor.create fabric ~host:0 in
  let payload_bytes = Bytes.create payload in
  List.map
    (fun n ->
      let header = header_with_rules topo n in
      let bytes = Prule.header_bytes topo header in
      Hypervisor.install_sender hv ~group:n header;
      let single =
        rate ~iterations (fun () ->
            Hypervisor.encap hv ~group:n ~payload:payload_bytes)
      in
      let per_rule =
        rate ~iterations (fun () ->
            Hypervisor.encap_per_rule hv ~group:n ~payload:payload_bytes)
      in
      let gbps pps = pps *. float_of_int ((payload + bytes) * 8) /. 1e9 in
      {
        prules = n;
        header_bytes = bytes;
        single_mpps = single /. 1e6;
        single_gbps = gbps single;
        per_rule_mpps = per_rule /. 1e6;
        per_rule_gbps = gbps per_rule;
      })
    counts

let pp_point ppf p =
  Format.fprintf ppf
    "%2d p-rules (%3d B): single-write %.2f Mpps / %.2f Gbps; per-rule %.2f Mpps / %.2f Gbps"
    p.prules p.header_bytes p.single_mpps p.single_gbps p.per_rule_mpps
    p.per_rule_gbps
