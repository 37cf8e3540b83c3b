module Obs = Elmo_obs.Obs

type config = {
  topo : Topology.t;
  tenants : int;
  total_groups : int;
  strategy : Vm_placement.strategy;
  dist : Group_dist.kind;
  params : Params.t;
  seed : int;
}

let groups_from_env default =
  match Sys.getenv_opt "ELMO_FULL" with
  | Some ("1" | "true") -> 1_000_000
  | Some _ | None -> (
      match Sys.getenv_opt "ELMO_GROUPS" with
      | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> default)
      | None -> default)

let paper_scale_groups = 1_000_000
let paper_scale_fmax = 30_000

let scaled_fmax ~total_groups ~fmax_at_paper_scale =
  max 50 (fmax_at_paper_scale * total_groups / paper_scale_groups)

let default_config () =
  let total_groups = groups_from_env 100_000 in
  let fmax = scaled_fmax ~total_groups ~fmax_at_paper_scale:paper_scale_fmax in
  {
    topo = Topology.facebook_fabric ();
    tenants = 3_000;
    total_groups;
    strategy = Vm_placement.Pack_up_to 12;
    dist = Group_dist.Wve;
    params = Params.create ~fmax ();
    seed = 42;
  }

type point = {
  r : int;
  total_groups : int;
  covered : int;
  covered_pure_prules : int;
  groups_with_default : int;
  groups_with_srules : int;
  leaf_srules : Stats.summary;
  spine_srules : Stats.summary;
  header_bytes : Stats.summary;
  overhead_64 : float;
  overhead_1500 : float;
  unicast_overhead : float;
  overlay_overhead : float;
  li_leaf_entries : Stats.summary;
  li_spine_entries : Stats.summary;
}

let placement_of config =
  let rng = Rng.create config.seed in
  let tenant_sizes = Vm_placement.default_tenant_sizes rng config.tenants in
  Vm_placement.place rng config.topo ~strategy:config.strategy ~host_capacity:20
    ~tenant_sizes

let run_point_with placement (config : config) ~r =
  Obs.with_span "scalability.run_point"
    ~attrs:[ ("r", Obs.Int r); ("groups", Obs.Int config.total_groups) ]
  @@ fun () ->
  let topo = config.topo in
  let params = Params.with_r config.params r in
  let srules = Srule_state.create topo ~fmax:params.Params.fmax in
  let li = Li_et_al.create topo in
  let covered = ref 0 in
  let covered_pure = ref 0 in
  let with_default = ref 0 in
  let with_srules = ref 0 in
  let n = ref 0 in
  let header_sizes = ref [] in
  let sum_tx = ref 0.0 in
  let sum_hdr = ref 0.0 in
  let sum_ideal = ref 0.0 in
  let sum_unicast = ref 0.0 in
  let sum_overlay = ref 0.0 in
  let workload_rng = Rng.create (config.seed + 1) in
  let sender_rng = Rng.create (config.seed + 2) in
  Workload.iter workload_rng placement ~kind:config.dist
    ~total_groups:config.total_groups (fun g ->
      let sender = Rng.choice sender_rng g.Workload.member_hosts in
      let tree = Tree.of_members topo (Array.to_list g.Workload.member_hosts) in
      let enc = Encoding.encode params srules tree in
      incr n;
      if Encoding.covered_without_default enc then incr covered;
      if Encoding.covered_by_prules enc then incr covered_pure;
      if Encoding.uses_default enc then incr with_default;
      if Encoding.srule_entries enc > 0 then incr with_srules;
      Li_et_al.add_group li ~group:g.Workload.group_id tree;
      header_sizes :=
        float_of_int (Encoding.header_bytes enc ~sender) :: !header_sizes;
      let c = Traffic.measure enc ~sender in
      sum_tx := !sum_tx +. float_of_int c.Traffic.transmissions;
      sum_hdr := !sum_hdr +. float_of_int c.Traffic.header_bytes;
      sum_ideal := !sum_ideal +. float_of_int c.Traffic.ideal_transmissions;
      let uc = Unicast_overlay.unicast tree ~sender in
      let ov = Unicast_overlay.overlay tree ~sender in
      sum_unicast := !sum_unicast +. float_of_int uc.Unicast_overlay.transmissions;
      sum_overlay := !sum_overlay +. float_of_int ov.Unicast_overlay.transmissions);
  let overhead payload =
    let per_packet = payload +. float_of_int Traffic.vxlan_encap_bytes in
    ((!sum_tx *. per_packet) +. !sum_hdr) /. (!sum_ideal *. per_packet) -. 1.0
  in
  {
    r;
    total_groups = !n;
    covered = !covered;
    covered_pure_prules = !covered_pure;
    groups_with_default = !with_default;
    groups_with_srules = !with_srules;
    leaf_srules = Stats.summarize (Stats.of_ints (Srule_state.leaf_occupancy srules));
    spine_srules =
      Stats.summarize (Stats.of_ints (Srule_state.spine_occupancy srules));
    header_bytes = Stats.summarize (Array.of_list !header_sizes);
    overhead_64 = overhead 64.0;
    overhead_1500 = overhead 1500.0;
    unicast_overhead = (!sum_unicast /. !sum_ideal) -. 1.0;
    overlay_overhead = (!sum_overlay /. !sum_ideal) -. 1.0;
    li_leaf_entries = Stats.summarize (Stats.of_ints (Li_et_al.leaf_entries li));
    li_spine_entries = Stats.summarize (Stats.of_ints (Li_et_al.spine_entries li));
  }

let run_point config ~r = run_point_with (placement_of config) config ~r

let run config ~r_values =
  let placement = placement_of config in
  List.map (fun r -> run_point_with placement config ~r) r_values

let pp_point ppf p =
  Format.fprintf ppf
    "@[<v>R=%d groups=%d covered=%d (%.1f%%) pure-prule=%d srule-groups=%d default-groups=%d@ \
     leaf s-rules: %a@ spine s-rules: %a@ header bytes: %a@ \
     overhead: %.1f%% (64B) %.1f%% (1500B); unicast %.0f%% overlay %.0f%%@ \
     Li leaf entries: %a@ Li spine entries: %a@]"
    p.r p.total_groups p.covered
    (100.0 *. float_of_int p.covered /. float_of_int (max 1 p.total_groups))
    p.covered_pure_prules p.groups_with_srules p.groups_with_default Stats.pp_summary p.leaf_srules
    Stats.pp_summary p.spine_srules Stats.pp_summary p.header_bytes
    (100.0 *. p.overhead_64) (100.0 *. p.overhead_1500)
    (100.0 *. p.unicast_overhead) (100.0 *. p.overlay_overhead)
    Stats.pp_summary p.li_leaf_entries Stats.pp_summary p.li_spine_entries
