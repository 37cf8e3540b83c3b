type witness = { w_group : int; w_switch : Pred.switch; w_port : int }

let pp_witness ppf w =
  Format.fprintf ppf "%d/%a/%d" w.w_group Pred.pp_switch w.w_switch w.w_port

let bitmap_opt_get bm i =
  match bm with Some bm -> Bitmap.get bm i | None -> false

(* Downstream assignment of one logical switch under the installed state,
   resolved as the switch parser does: p-rule identifier scan, then the
   group-table entry — the compensated truthful bitmap when the site is
   stale, the clustering's s-rule otherwise — then the default p-rule,
   which applies to any switch falling through. [None] means the switch
   forwards nothing (equivalently, an empty bitmap). *)
let assigned cfg ~group ~site (enc : Encoding.t) =
  let layer, id, truthful =
    match site with
    | Srule_state.Leaf l ->
        (enc.Encoding.d_leaf, l, Tree.leaf_bitmap enc.Encoding.tree l)
    | Srule_state.Pod p ->
        (enc.Encoding.d_spine, p, Tree.spine_bitmap enc.Encoding.tree p)
  in
  match
    List.find_opt (fun r -> Prule.rule_mem r id) layer.Clustering.prules
  with
  | Some r -> Some r.Prule.bitmap
  | None ->
      if Installed_config.is_stale cfg ~group site then truthful
      else (
        match List.assoc_opt id layer.Clustering.srules with
        | Some bm -> Some bm
        | None -> (
            match layer.Clustering.default with
            | Some (_, bm) -> Some bm
            | None -> None))

let compile ctx cfg ~group =
  match Installed_config.group cfg group with
  | None -> Pred.of_pairs ctx []
  | Some g -> (
      match (g.Installed_config.receivers, g.Installed_config.enc) with
      | [], _ | _, None -> Pred.of_pairs ctx []
      | receivers, Some enc ->
          let topo = cfg.Installed_config.topo in
          let spec = Tree.of_members topo receivers in
          let tree = enc.Encoding.tree in
          (* On a multi-pod topology some sender always sits outside any
             given pod, so cross-pod reachability (core bitmap + downstream
             spine assignment) is required for every receiver pod — the
             encoder sets the core bit even for single-pod trees. *)
          let cross_pod = topo.Topology.pods > 1 in
          let acc = ref [] in
          let add sw port = acc := (sw, port) :: !acc in
          List.iter
            (fun (p, spec_spine) ->
              let core_covered =
                (not cross_pod) || Bitmap.get tree.Tree.core_bitmap p
              in
              if cross_pod && core_covered then add Pred.Core p;
              let in_pod = Tree.spine_bitmap tree p in
              let down_spine =
                if cross_pod then
                  assigned cfg ~group ~site:(Srule_state.Pod p) enc
                else None
              in
              Bitmap.iter
                (fun lp ->
                  let spine_covered =
                    bitmap_opt_get in_pod lp
                    && ((not cross_pod)
                       || (core_covered && bitmap_opt_get down_spine lp))
                  in
                  if spine_covered then begin
                    add (Pred.Spine p) lp;
                    let l = (p * topo.Topology.leaves_per_pod) + lp in
                    match
                      ( Tree.leaf_bitmap spec l,
                        assigned cfg ~group ~site:(Srule_state.Leaf l) enc,
                        Tree.leaf_bitmap tree l )
                    with
                    | Some spec_ports, Some down_leaf, Some tree_ports ->
                        Bitmap.iter
                          (fun q ->
                            if Bitmap.get down_leaf q && Bitmap.get tree_ports q
                            then add (Pred.Leaf l) q)
                          spec_ports
                    | _, _, _ -> ()
                  end)
                spec_spine)
            spec.Tree.spine_bitmaps;
          Pred.of_pairs ctx !acc)

let intent ctx cfg ~group =
  match Installed_config.group cfg group with
  | None -> Pred.of_pairs ctx []
  | Some g -> (
      match g.Installed_config.receivers with
      | [] -> Pred.of_pairs ctx []
      | receivers ->
          let topo = cfg.Installed_config.topo in
          let spec = Tree.of_members topo receivers in
          let cross_pod = topo.Topology.pods > 1 in
          let acc = ref [] in
          let add sw port = acc := (sw, port) :: !acc in
          List.iter
            (fun (p, bm) ->
              if cross_pod then add Pred.Core p;
              Bitmap.iter (fun lp -> add (Pred.Spine p) lp) bm)
            spec.Tree.spine_bitmaps;
          List.iter
            (fun (l, bm) -> Bitmap.iter (fun q -> add (Pred.Leaf l) q) bm)
            spec.Tree.leaf_bitmaps;
          Pred.of_pairs ctx !acc)

(* {1 Per-sender routes, factored into parts}

   A sender's delivery edges depend on the sender only through its leaf
   [sl] (hence its pod [sp]), its own host port, the planes its leaf
   forwards up on and the cores it picks on each plane. They are the union
   of three parts:

   - [local_part]: the sender leaf's tree ports minus the sender's own;
   - [in_pod_part (sl, plane)], per live upstream plane: the sender pod's
     spine forwarding down to the pod's other tree leaves;
   - [cross_part (sp, plane)], per live upstream plane on which some chosen
     core is alive: the core edge and [pod_down (p, plane)] of every tree
     pod [p] other than [sp]. It is the same for every live core on the
     plane.

   [compile_sender] interns that union; [sender_blackholes] memoizes the
   keyed parts per group, so a group's senders share them. Each part
   reports its edges through [add]; [cross_part] hands each pod's
   sub-part to [pod]. *)

type route = {
  r_cfg : Installed_config.t;
  r_group : Installed_config.group_view;
  r_enc : Encoding.t;
  r_assigned : (int, Bitmap.t option) Hashtbl.t;
      (* [assigned] by [Srule_state.site_key], filled on first visit *)
}

let route cfg (g : Installed_config.group_view) =
  Option.map
    (fun enc ->
      {
        r_cfg = cfg;
        r_group = g;
        r_enc = enc;
        r_assigned = Hashtbl.create 16;
      })
    g.Installed_config.enc

let site_assigned r site =
  let key = Srule_state.site_key site in
  match Hashtbl.find_opt r.r_assigned key with
  | Some a -> a
  | None ->
      let a =
        assigned r.r_cfg ~group:r.r_group.Installed_config.gid ~site r.r_enc
      in
      Hashtbl.add r.r_assigned key a;
      a

let leaf_down r l add =
  match site_assigned r (Srule_state.Leaf l) with
  | None -> ()
  | Some bm -> Bitmap.iter (fun q -> add (Pred.Leaf l) q) bm

(* Co-located delivery: the hypervisor serves co-resident member VMs
   directly. *)
let local_part r ~sender add =
  let topo = r.r_cfg.Installed_config.topo in
  let sl = Topology.leaf_of_host topo sender in
  match Tree.leaf_bitmap r.r_enc.Encoding.tree sl with
  | None -> ()
  | Some bm ->
      let sport = Topology.host_port_on_leaf topo sender in
      Bitmap.iter (fun q -> if q <> sport then add (Pred.Leaf sl) q) bm

(* In-pod downstream: the sender pod's tree leaves minus the sender's own,
   link-gated on [plane]. *)
let in_pod_part r ~sl ~plane add =
  let cfg = r.r_cfg in
  let topo = cfg.Installed_config.topo in
  let sp = Topology.pod_of_leaf topo sl in
  match Tree.spine_bitmap r.r_enc.Encoding.tree sp with
  | None -> ()
  | Some bm ->
      let slp = Topology.leaf_port_on_spine topo sl in
      Bitmap.iter
        (fun lp ->
          if lp <> slp then begin
            let leaf = (sp * topo.Topology.leaves_per_pod) + lp in
            if Installed_config.link_ok cfg ~leaf ~plane then begin
              add (Pred.Spine sp) lp;
              leaf_down r leaf add
            end
          end)
        bm

(* A remote pod's spine on [plane] forwarding down: the pod's spine
   assignment, link-gated. *)
let pod_down r ~pod ~plane add =
  let cfg = r.r_cfg in
  let lpp = cfg.Installed_config.topo.Topology.leaves_per_pod in
  match site_assigned r (Srule_state.Pod pod) with
  | None -> ()
  | Some bm ->
      Bitmap.iter
        (fun lp ->
          let leaf = (pod * lpp) + lp in
          if Installed_config.link_ok cfg ~leaf ~plane then begin
            add (Pred.Spine pod) lp;
            leaf_down r leaf add
          end)
        bm

(* Cross-pod downstream from a live core on [plane]: the header's core
   bitmap, i.e. the tree pods minus the sender's own (reached via the
   upstream spine), each spine-gated on [plane]. *)
let cross_part r ~sp ~plane ~pod add =
  Bitmap.iter
    (fun p ->
      if p <> sp then begin
        add Pred.Core p;
        if Installed_config.spine_ok r.r_cfg ~pod:p ~plane then pod p
      end)
    r.r_enc.Encoding.tree.Tree.core_bitmap

(* The upstream planes [sender]'s packet climbs on — the override's leaf
   ports, else the ECMP spine choice — that survive the sender leaf's link
   and the sender pod's spine, each paired with whether one of the cores
   it picks on that plane (the override's spine ports, else the ECMP core
   choice) is alive. [None] for a sender degraded to hypervisor unicast;
   no planes when the tree never leaves the sender's leaf. *)
let sender_planes r ~sender =
  let g = r.r_group in
  match List.assoc_opt sender g.Installed_config.overrides with
  | Some o when o.Installed_config.unicast -> None
  | ov ->
      let cfg = r.r_cfg in
      let topo = cfg.Installed_config.topo in
      let tree = r.r_enc.Encoding.tree in
      let sl = Topology.leaf_of_host topo sender in
      let sp = Topology.pod_of_leaf topo sl in
      let other_leaves_in_pod =
        List.exists
          (fun (l, _) -> l <> sl && Topology.pod_of_leaf topo l = sp)
          tree.Tree.leaf_bitmaps
      in
      let other_pods =
        List.exists (fun (p, _) -> p <> sp) tree.Tree.spine_bitmaps
      in
      if not (other_leaves_in_pod || other_pods) then Some []
      else begin
        let hash = Ecmp.flow_hash ~group:g.Installed_config.gid ~sender in
        let cpp = topo.Topology.cores_per_plane in
        let core_ok c = cfg.Installed_config.core_ok.(c) in
        let via_core plane =
          match ov with
          | Some { Installed_config.up_spine_ports = Some ports; _ }
            when other_pods ->
              List.exists
                (fun q -> core_ok ((plane * cpp) + q))
                (Bitmap.to_list ports)
          | _ ->
              other_pods && cpp > 0
              && core_ok (Ecmp.core_choice topo ~hash ~plane)
        in
        let planes =
          match ov with
          | Some o -> Bitmap.to_list o.Installed_config.up_leaf_ports
          | None -> [ Ecmp.spine_choice topo ~hash ]
        in
        Some
          (List.filter_map
             (fun plane ->
               if
                 Installed_config.link_ok cfg ~leaf:sl ~plane
                 && Installed_config.spine_ok cfg ~pod:sp ~plane
               then Some (plane, via_core plane)
               else None)
             planes)
      end

let compile_sender ctx cfg ~group ~sender =
  match Option.bind (Installed_config.group cfg group) (route cfg) with
  | None -> None
  | Some r ->
      sender_planes r ~sender
      |> Option.map (fun planes ->
             let topo = cfg.Installed_config.topo in
             let sl = Topology.leaf_of_host topo sender in
             let sp = Topology.pod_of_leaf topo sl in
             let acc = ref [] in
             let add sw port = acc := (sw, port) :: !acc in
             local_part r ~sender add;
             List.iter
               (fun (plane, via_core) ->
                 in_pod_part r ~sl ~plane add;
                 if via_core then
                   cross_part r ~sp ~plane add ~pod:(fun pod ->
                       pod_down r ~pod ~plane add))
               planes;
             Pred.of_pairs ctx !acc)

let receiver_endpoints ctx cfg ~group ~sender =
  match Installed_config.group cfg group with
  | None -> Pred.of_pairs ctx []
  | Some g ->
      let topo = cfg.Installed_config.topo in
      g.Installed_config.receivers
      |> List.filter_map (fun h ->
             if h = sender then None
             else
               Some
                 ( Pred.Leaf (Topology.leaf_of_host topo h),
                   Topology.host_port_on_leaf topo h ))
      |> Pred.of_pairs ctx

let header_pred ctx topo ~sender (h : Prule.header) =
  let lpp = topo.Topology.leaves_per_pod in
  let sl = Topology.leaf_of_host topo sender in
  let sp = Topology.pod_of_leaf topo sl in
  let acc = ref [] in
  let add sw port = acc := (sw, port) :: !acc in
  let matched rules id default =
    match List.find_opt (fun r -> Prule.rule_mem r id) rules with
    | Some r -> Some r.Prule.bitmap
    | None -> default
  in
  let d = h.Prule.downstream in
  let at_leaf_down l =
    match matched d.Prule.d_leaf l d.Prule.d_leaf_default with
    | None -> ()
    | Some bm -> Bitmap.iter (fun q -> add (Pred.Leaf l) q) bm
  in
  let at_spine_down p =
    match matched d.Prule.d_spine p d.Prule.d_spine_default with
    | None -> ()
    | Some bm ->
        Bitmap.iter
          (fun lp ->
            add (Pred.Spine p) lp;
            at_leaf_down ((p * lpp) + lp))
          bm
  in
  let at_core () =
    match h.Prule.core with
    | None -> ()
    | Some bm ->
        Bitmap.iter
          (fun p ->
            add Pred.Core p;
            at_spine_down p)
          bm
  in
  let at_spine_up () =
    match h.Prule.u_spine with
    | None -> ()
    | Some u ->
        Bitmap.iter
          (fun lp ->
            add (Pred.Spine sp) lp;
            at_leaf_down ((sp * lpp) + lp))
          u.Prule.down;
        if u.Prule.multipath then begin
          if topo.Topology.cores_per_plane > 0 then at_core ()
        end
        else if not (Bitmap.is_empty u.Prule.up) then at_core ()
  in
  let u = h.Prule.u_leaf in
  Bitmap.iter (fun q -> add (Pred.Leaf sl) q) u.Prule.down;
  if u.Prule.multipath || not (Bitmap.is_empty u.Prule.up) then at_spine_up ();
  Pred.of_pairs ctx !acc

let equiv = Pred.equiv
let subsumes = Pred.subsumes

let witness ~group (sw, port) =
  { w_group = group; w_switch = sw; w_port = port }

let diff ~group a b = Option.map (witness ~group) (Pred.first_diff a b)

let check_equiv ~group a b =
  match Pred.first_diff a b with
  | None -> Ok ()
  | Some e -> Error (witness ~group e)

let check_subsumes ~group ~big ~small =
  match Pred.first_missing ~big ~small with
  | None -> Ok ()
  | Some e -> Error (witness ~group e)

(* {1 Hostile-header admission}

   The semantic half of hostile-header hardening, layered over
   [Header_codec.decode_checked]'s structural half: a decoded header is
   admitted only when the deliveries its own bits imply are a subset of
   the caller's intent predicate. Never raises — structural rejection and
   over-delivery both come back as typed errors. *)

type admit_error =
  | Malformed of Header_codec.decode_error
  | Over_delivery of witness

let pp_admit_error ppf = function
  | Malformed e -> Header_codec.pp_decode_error ppf e
  | Over_delivery w ->
      Format.fprintf ppf "over-delivery at %a" pp_witness w

let admit_header ctx topo ~intent ~sender data =
  match Header_codec.decode_checked topo data with
  | Error e -> Error (Malformed e)
  | Ok h -> (
      let hp = header_pred ctx topo ~sender h in
      (* group number 0: admission is per-header; the witness's group field
         is not meaningful here. *)
      match check_subsumes ~group:0 ~big:intent ~small:hp with
      | Ok () -> Ok h
      | Error w -> Error (Over_delivery w))

(* Walk the view's groups in ascending gid order until [step] returns a
   witness; [Ok n] counts the groups walked. *)
let walk_groups cfg step =
  let groups = cfg.Installed_config.groups in
  let rec go i =
    if i = Array.length groups then Ok i
    else
      match step groups.(i).Installed_config.gid with
      | Ok () -> go (i + 1)
      | Error _ as e -> e
  in
  go 0

let check_config cfg =
  let ctx = Pred.create_ctx () in
  walk_groups cfg (fun gid ->
      let c = compile ctx cfg ~group:gid in
      let i = intent ctx cfg ~group:gid in
      check_equiv ~group:gid c i)

(* {1 Zero-blackhole sweep}

   Every sender's delivery edges must cover its receiver endpoints. The
   obligation has only [Leaf] edges, whose canonical order is ascending
   host order, so the first receiver (other than the sender) missing from
   the sender's covered host set is exactly the witness [check_subsumes]
   gives on [compile_sender] and [receiver_endpoints]. The covered set is
   the sender's own host (it owes itself nothing) and local ports ORed
   with the group's memoized in-pod and cross-pod parts, each kept as a
   host bitmap of its [Leaf] edges. A subset test against the group's
   receiver bitmap passes most senders; only a failing one scans its
   receivers for the witness. No per-sender predicate is built. *)

let sender_blackholes cfg =
  let topo = cfg.Installed_config.topo in
  let hosts = Topology.num_hosts topo in
  let hpl = topo.Topology.hosts_per_leaf in
  let planes = topo.Topology.spines_per_pod in
  let leaves = Topology.num_leaves topo and pods = topo.Topology.pods in
  let covered = Bitmap.create hosts in
  let leaf_hosts hs sw port =
    match sw with
    | Pred.Leaf l -> Bitmap.set hs ((l * hpl) + port)
    | Pred.Core | Pred.Spine _ -> ()
  in
  (* The group's parts as host bitmaps, built on first use. Keys: in-pod
     parts by (leaf, plane), then cross-pod parts by (pod, plane), then
     [pod_down] sub-parts by (pod, plane). *)
  let parts = Hashtbl.create 64 in
  let part ~base site plane build =
    let key = ((base + site) * planes) + plane in
    match Hashtbl.find_opt parts key with
    | Some hs -> hs
    | None ->
        let hs = Bitmap.create hosts in
        build hs;
        Hashtbl.add parts key hs;
        hs
  in
  let in_pod_hosts r ~sl ~plane =
    part ~base:0 sl plane (fun hs -> in_pod_part r ~sl ~plane (leaf_hosts hs))
  in
  let pod_hosts r ~pod ~plane =
    part ~base:(leaves + pods) pod plane (fun hs ->
        pod_down r ~pod ~plane (leaf_hosts hs))
  in
  let cross_hosts r ~sp ~plane =
    part ~base:leaves sp plane (fun hs ->
        cross_part r ~sp ~plane (leaf_hosts hs) ~pod:(fun pod ->
            Bitmap.union_into ~dst:hs (pod_hosts r ~pod ~plane)))
  in
  let wanted = Bitmap.create hosts in
  let first_uncovered receivers =
    if Bitmap.subset wanted covered then None
    else List.find_opt (fun h -> not (Bitmap.get covered h)) receivers
  in
  let check_group acc (g : Installed_config.group_view) =
    match route cfg g with
    | None -> acc
    | Some r ->
        Hashtbl.reset parts;
        Bitmap.reset wanted;
        List.iter (Bitmap.set wanted) g.Installed_config.receivers;
        List.fold_left
          (fun acc sender ->
            match sender_planes r ~sender with
            | None -> acc
            | Some route_planes -> (
                let sl = Topology.leaf_of_host topo sender in
                let sp = Topology.pod_of_leaf topo sl in
                Bitmap.reset covered;
                Bitmap.set covered sender;
                local_part r ~sender (leaf_hosts covered);
                List.iter
                  (fun (plane, via_core) ->
                    Bitmap.union_into ~dst:covered (in_pod_hosts r ~sl ~plane);
                    if via_core then
                      Bitmap.union_into ~dst:covered (cross_hosts r ~sp ~plane))
                  route_planes;
                match first_uncovered g.Installed_config.receivers with
                | None -> acc
                | Some h ->
                    witness ~group:g.Installed_config.gid
                      ( Pred.Leaf (Topology.leaf_of_host topo h),
                        Topology.host_port_on_leaf topo h )
                    :: acc))
          acc g.Installed_config.senders
  in
  Array.fold_left check_group [] cfg.Installed_config.groups |> List.rev

(* {1 Incremental checking}

   [compile] and [intent] depend only on the group's own view (members,
   encoding, overrides) and the stale table — never on another group and
   never on the health arrays — so a group whose view did not change since
   the last check compiles to the same predicate. The cache keeps one
   persistent hash-consing context and the (compile, intent) pair of every
   group that last checked [Ok]; a check then recompiles only the groups
   the caller marked dirty (e.g. from [Controller.drain_dirty]), making
   the per-event oracle cost proportional to the event's footprint instead
   of the total group count. *)

type cache = {
  c_ctx : Pred.ctx;
  c_preds : (int, Pred.t * Pred.t) Hashtbl.t;
      (* gid -> (compile, intent), both interned in [c_ctx]; present only
         for groups whose last check passed, so a cached group needs no
         re-check — equal then means equal now *)
  mutable c_hits : int;
  mutable c_misses : int;
}

let create_cache () =
  {
    c_ctx = Pred.create_ctx ();
    c_preds = Hashtbl.create 256;
    c_hits = 0;
    c_misses = 0;
  }

let cache_ctx cache = cache.c_ctx
let cached_preds cache gid = Hashtbl.find_opt cache.c_preds gid
let cache_stats cache = (cache.c_hits, cache.c_misses)

let check_config_cached cache cfg ~dirty =
  (* Dirty groups (including removed ones, which the view no longer
     lists) drop out of the cache before the walk. *)
  List.iter (fun gid -> Hashtbl.remove cache.c_preds gid) dirty;
  walk_groups cfg (fun gid ->
      if Hashtbl.mem cache.c_preds gid then begin
        cache.c_hits <- cache.c_hits + 1;
        Ok ()
      end
      else begin
        cache.c_misses <- cache.c_misses + 1;
        let c = compile cache.c_ctx cfg ~group:gid in
        let i = intent cache.c_ctx cfg ~group:gid in
        let res = check_equiv ~group:gid c i in
        if Result.is_ok res then Hashtbl.add cache.c_preds gid (c, i);
        res
      end)

let check_controller ctrl = check_config (Controller.installed_config ctrl)

let check_controller_cached cache ctrl =
  check_config_cached cache
    (Controller.installed_config ctrl)
    ~dirty:(Controller.drain_dirty ctrl)

let probe ctrl fabric ~group ~sender =
  match Controller.encoding ctrl ~group with
  | None -> None
  | Some enc -> (
      match Controller.header ctrl ~group ~sender with
      | None -> None
      | Some header ->
          let report = Fabric.inject fabric ~sender ~group ~header ~payload:64 in
          let ok =
            Fabric.deliveries_correct report ~tree:enc.Encoding.tree ~sender
          in
          Some (ok, report.Fabric.transmissions))
