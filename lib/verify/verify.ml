type witness = { w_group : int; w_switch : Pred.switch; w_port : int }

let pp_witness ppf w =
  Format.fprintf ppf "%d/%a/%d" w.w_group Pred.pp_switch w.w_switch w.w_port

(* Every public entry point that takes a view checks it once: a view
   borrows its controller's encodings, so one read after a later mutation
   would mix old and new state. *)
let current cfg =
  if not (Installed_config.is_current cfg) then
    invalid_arg "Verify: view taken before its controller's last mutation" (* elmo-lint: allow exception-discipline — documented API-misuse guard *)

let bitmap_opt_get bm i =
  match bm with Some bm -> Bitmap.get bm i | None -> false

(* The output bitmap of the first p-rule naming switch [id]. *)
let rec prule_bitmap id = function
  | [] -> None
  | r :: rest -> if Prule.rule_mem r id then Some r.Prule.bitmap else prule_bitmap id rest

(* The tree's own bitmap at a site: what a stale site's compensated
   entry holds. *)
let truthful tree = function
  | Srule_state.Leaf l -> Tree.leaf_bitmap tree l
  | Srule_state.Pod p -> Tree.spine_bitmap tree p

(* Downstream assignment of one logical switch under the installed state,
   resolved as the switch parser does: p-rule identifier scan, then the
   group-table entry — the compensated truthful bitmap when the site is
   stale, the clustering's s-rule otherwise — then the default p-rule,
   which applies to any switch falling through. [None] means the switch
   forwards nothing (equivalently, an empty bitmap). [layer] and [id] are
   the site's layer of [enc] and its switch id. *)
let assigned_in cfg ~group ~site (enc : Encoding.t) (layer : Clustering.result) id =
  match prule_bitmap id layer.Clustering.prules with
  | Some _ as bm -> bm
  | None ->
      if Installed_config.is_stale cfg ~group site then
        truthful enc.Encoding.tree site
      else (
        match Int_list.assoc_opt id layer.Clustering.srules with
        | Some _ as bm -> bm
        | None -> (
            match layer.Clustering.default with
            | Some (_, bm) -> Some bm
            | None -> None))

let assigned cfg ~group ~site (enc : Encoding.t) =
  match site with
  | Srule_state.Leaf l -> assigned_in cfg ~group ~site enc enc.Encoding.d_leaf l
  | Srule_state.Pod p -> assigned_in cfg ~group ~site enc enc.Encoding.d_spine p

(* {1 The spec walk}

   [compile] never holds an edge [intent] lacks: every compiled edge is an
   edge of the receivers' specification tree that the installed state also
   covers. [spec_walk] visits every spec edge — per receiver pod its core
   edge (multi-pod topologies only), per receiver leaf its spine edge, per
   receiver its leaf edge — and calls [edge sw port covered] with whether
   the installed state covers it, each layer gated on its parent. [compile]
   keeps the covered edges, [intent] all of them, and [check_config] only
   the smallest uncovered one; none builds the spec [Tree.t]. Receivers
   are ascending, so each pod's and leaf's installed state is looked up
   once. *)
let spec_walk cfg (g : Installed_config.group_view) edge =
  let topo = cfg.Installed_config.topo in
  (* On a multi-pod topology some sender always sits outside any given
     pod, so cross-pod reachability (core bitmap + downstream spine
     assignment) is required for every receiver pod — the encoder sets the
     core bit even for single-pod trees. *)
  let cross_pod = topo.Topology.pods > 1 in
  let enc = g.Installed_config.enc in
  let site_assigned site =
    match enc with
    | Some enc -> assigned cfg ~group:g.Installed_config.gid ~site enc
    | None -> None
  in
  let tree = Option.map (fun (e : Encoding.t) -> e.Encoding.tree) enc in
  (* The current pod: its spine switch, whether the core forwards into it,
     its in-pod tree ports and its downstream spine assignment. *)
  let pod = ref (-1) and spine_sw = ref Pred.Core in
  let core_covered = ref false in
  let in_pod = ref None and down_spine = ref None in
  (* The current leaf: its switch, and the installed ports that reach its
     hosts — both [Some] only when its spine edge is covered. *)
  let leaf = ref (-1) and leaf_sw = ref Pred.Core in
  let down_leaf = ref None and tree_ports = ref None in
  List.iter
    (fun h ->
      let l = Topology.leaf_of_host topo h in
      if l <> !leaf then begin
        let p = Topology.pod_of_leaf topo l in
        if p <> !pod then begin
          pod := p;
          spine_sw := Pred.Spine p;
          (core_covered :=
             match tree with
             | None -> false
             | Some t -> (not cross_pod) || Bitmap.get t.Tree.core_bitmap p);
          if cross_pod then edge Pred.Core p !core_covered;
          (in_pod :=
             match tree with Some t -> Tree.spine_bitmap t p | None -> None);
          down_spine :=
            if cross_pod then site_assigned (Srule_state.Pod p) else None
        end;
        leaf := l;
        leaf_sw := Pred.Leaf l;
        let lp = Topology.leaf_port_on_spine topo l in
        let spine_covered =
          bitmap_opt_get !in_pod lp
          && ((not cross_pod)
             || (!core_covered && bitmap_opt_get !down_spine lp))
        in
        edge !spine_sw lp spine_covered;
        if spine_covered then begin
          down_leaf := site_assigned (Srule_state.Leaf l);
          tree_ports :=
            match tree with Some t -> Tree.leaf_bitmap t l | None -> None
        end
        else begin
          down_leaf := None;
          tree_ports := None
        end
      end;
      let q = Topology.host_port_on_leaf topo h in
      edge !leaf_sw q
        (bitmap_opt_get !down_leaf q && bitmap_opt_get !tree_ports q))
    g.Installed_config.receivers

let spec_pred ctx cfg ~group keep =
  current cfg;
  match Installed_config.group cfg group with
  | None -> Pred.of_pairs ctx []
  | Some g ->
      let acc = ref [] in
      spec_walk cfg g (fun sw port covered ->
          if keep covered then acc := (sw, port) :: !acc);
      Pred.of_pairs ctx !acc

let compile ctx cfg ~group = spec_pred ctx cfg ~group Fun.id
let intent ctx cfg ~group = spec_pred ctx cfg ~group (fun _ -> true)

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

   [compile_sender] interns that union; [sender_blackholes] memoizes, per
   group, the leaves the in-pod and cross-pod parts reach, by (sender pod,
   plane), so a group's senders share them. Each part reports its edges
   through [add]; [cross_part] hands each pod's sub-part to [pod], and
   [live_leaves] walks the link-gated leaves both parts descend to. *)

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
      { r_cfg = cfg; r_group = g; r_enc = enc; r_assigned = Hashtbl.create 16 })
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

(* The leaves of [pod] among [ports] (leaf ports on its spine) whose link
   on [plane] is up, each passed to [f] as its port and its id. *)
let live_leaves cfg ~pod ~plane f ports =
  let lpp = cfg.Installed_config.topo.Topology.leaves_per_pod in
  Bitmap.iter
    (fun lp ->
      let leaf = (pod * lpp) + lp in
      if Installed_config.link_ok cfg ~leaf ~plane then f lp leaf)
    ports

(* The tree leaves of [pod] among those whose link on [plane] is up, read
   off the pod's tree spine bitmap: none when the tree does not reach it. *)
let live_tree_leaves r ~pod ~plane f =
  Option.iter
    (live_leaves r.r_cfg ~pod ~plane f)
    (Tree.spine_bitmap r.r_enc.Encoding.tree pod)

(* In-pod downstream: the sender pod's tree leaves minus the sender's own,
   link-gated on [plane]. *)
let in_pod_part r ~sl ~plane add =
  let sp = Topology.pod_of_leaf r.r_cfg.Installed_config.topo sl in
  live_tree_leaves r ~pod:sp ~plane (fun lp leaf ->
      if leaf <> sl then begin
        add (Pred.Spine sp) lp;
        leaf_down r leaf add
      end)

(* A remote pod's spine on [plane] forwarding down: the pod's spine
   assignment, link-gated. *)
let pod_down r ~pod ~plane add =
  match site_assigned r (Srule_state.Pod pod) with
  | None -> ()
  | Some bm ->
      live_leaves r.r_cfg ~pod ~plane
        (fun lp leaf ->
          add (Pred.Spine pod) lp;
          leaf_down r leaf add)
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
  match Int_list.assoc_opt sender g.Installed_config.overrides with
  | Some o when o.Installed_config.unicast -> None
  | ov ->
      let cfg = r.r_cfg in
      let topo = cfg.Installed_config.topo in
      let sl = Topology.leaf_of_host topo sender in
      let sp = Topology.pod_of_leaf topo sl in
      let tree = r.r_enc.Encoding.tree in
      let other_pods = Tree.spans_other_pod tree sp in
      if not (other_pods || Tree.spans_other_leaf_in_pod tree sl) then Some []
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
  current cfg;
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
  current cfg;
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
  let groups = Installed_config.groups cfg in
  let rec go i =
    if i = Array.length groups then Ok i
    else
      match step groups.(i) with
      | Ok () -> go (i + 1)
      | Error _ as e -> e
  in
  go 0

(* [compile = intent] for one group. [compile] is [intent] minus the
   uncovered spec edges, so the first edge on which they differ is the
   smallest uncovered one in [Pred]'s canonical order — the witness
   [check_equiv] would give, found without building either predicate. *)
let check_group cfg (g : Installed_config.group_view) =
  let first = ref None in
  spec_walk cfg g (fun sw port covered ->
      if not covered then
        match !first with
        | Some e when Pred.compare_edge e (sw, port) <= 0 -> ()
        | Some _ | None -> first := Some (sw, port));
  match !first with
  | None -> Ok ()
  | Some e -> Error (witness ~group:g.Installed_config.gid e)

let check_config cfg =
  current cfg;
  walk_groups cfg (check_group cfg)

(* {1 Zero-blackhole sweep}

   Every sender's delivery edges must cover its receiver endpoints. The
   obligation has only [Leaf] edges, whose canonical order is ascending
   host order, so the first receiver (other than the sender) that the
   sender's route misses is exactly the witness [check_subsumes] gives on
   [compile_sender] and [receiver_endpoints]. A receiver on leaf [l] is
   covered when it is the sender; when [l] is the sender's leaf [sl] and
   its port is in the tree's leaf bitmap ([local_part]); or when [l] is
   another leaf one of the sender's parts reaches and the port is in
   [assigned (Leaf l)] (the part's [leaf_down]).

   So senders are decided on leaf sets. One pass over a group's receivers
   records [want], the receiver leaves; the bad leaves, whose assignment
   misses a receiver's port; and the local-bad leaves, whose tree leaf
   bitmap does. The leaves a part reaches depend on the sender only
   through (sender pod, plane) once the in-pod part's skip of [sl] is
   dropped, and [sl] is decided by the local rule anyway; so they are
   memoized per group. A sender on [sl] passes when [sl] is not
   local-bad, no leaf other than [sl] is bad, and [want] lies within its
   parts' reach plus [sl]. Only a sender failing that test scans its
   receivers under the exact rule for the witness. No per-sender
   predicate is built. *)

let sender_blackholes cfg =
  current cfg;
  let topo = cfg.Installed_config.topo in
  let leaves = Topology.num_leaves topo in
  let planes = topo.Topology.spines_per_pod in
  let slots = topo.Topology.pods * planes in
  let want = Bitmap.create leaves and local_bad = Bitmap.create leaves in
  let reach = Bitmap.create leaves in
  (* The group's reach memo: the in-pod part of (sender pod [sp], [plane])
     at slot [(sp * planes) + plane], its cross-pod part [slots] further
     on. [filled] holds the number of the group a slot was built for. *)
  let memo = Array.init (2 * slots) (fun _ -> Bitmap.create leaves) in
  let filled = Array.make (2 * slots) (-1) and group_no = ref (-1) in
  let reached slot build =
    let bm = memo.(slot) in
    if filled.(slot) <> !group_no then begin
      Bitmap.reset bm;
      build (fun _ leaf -> Bitmap.set bm leaf);
      filled.(slot) <- !group_no
    end;
    bm
  in
  let in_pod_reach r ~sp ~plane =
    reached ((sp * planes) + plane) (live_tree_leaves r ~pod:sp ~plane)
  in
  let cross_reach r ~sp ~plane =
    reached (slots + (sp * planes) + plane) (fun set ->
        cross_part r ~sp ~plane (fun _ _ -> ()) ~pod:(fun pod ->
            Option.iter
              (live_leaves cfg ~pod ~plane set)
              (site_assigned r (Srule_state.Pod pod))))
  in
  let first_uncovered r (g : Installed_config.group_view) ~sender ~sl =
    let local = Tree.leaf_bitmap r.r_enc.Encoding.tree sl in
    List.find_opt
      (fun h ->
        let l = Topology.leaf_of_host topo h in
        let q = Topology.host_port_on_leaf topo h in
        h <> sender
        && not
             (if l = sl then bitmap_opt_get local q
              else
                Bitmap.get reach l
                && bitmap_opt_get (site_assigned r (Srule_state.Leaf l)) q))
      g.Installed_config.receivers
  in
  let check_group acc (g : Installed_config.group_view) =
    match route cfg g with
    | None -> acc
    | Some r ->
        incr group_no;
        let tree = r.r_enc.Encoding.tree in
        Bitmap.reset want;
        Bitmap.reset local_bad;
        (* The bad leaves: how many, and the last one. *)
        let bad = ref 0 and bad_leaf = ref (-1) in
        let leaf = ref (-1) and down = ref None and ports = ref None in
        List.iter
          (fun h ->
            let l = Topology.leaf_of_host topo h in
            if l <> !leaf then begin
              leaf := l;
              Bitmap.set want l;
              down := site_assigned r (Srule_state.Leaf l);
              ports := Tree.leaf_bitmap tree l
            end;
            let q = Topology.host_port_on_leaf topo h in
            if (not (bitmap_opt_get !down q)) && !bad_leaf <> l then begin
              incr bad;
              bad_leaf := l
            end;
            if not (bitmap_opt_get !ports q) then Bitmap.set local_bad l)
          g.Installed_config.receivers;
        List.fold_left
          (fun acc sender ->
            match sender_planes r ~sender with
            | None -> acc
            | Some route_planes -> (
                let sl = Topology.leaf_of_host topo sender in
                let sp = Topology.pod_of_leaf topo sl in
                Bitmap.reset reach;
                Bitmap.set reach sl;
                List.iter
                  (fun (plane, via_core) ->
                    Bitmap.union_into ~dst:reach (in_pod_reach r ~sp ~plane);
                    if via_core then
                      Bitmap.union_into ~dst:reach (cross_reach r ~sp ~plane))
                  route_planes;
                if
                  (not (Bitmap.get local_bad sl))
                  && (!bad = 0 || (!bad = 1 && !bad_leaf = sl))
                  && Bitmap.subset want reach
                then acc
                else
                  match first_uncovered r g ~sender ~sl with
                  | None -> acc
                  | Some h ->
                      witness ~group:g.Installed_config.gid
                        ( Pred.Leaf (Topology.leaf_of_host topo h),
                          Topology.host_port_on_leaf topo h )
                      :: acc))
          acc g.Installed_config.senders
  in
  Array.fold_left check_group [] (Installed_config.groups cfg) |> List.rev

(* {1 Incremental checking}

   A group's check depends only on its own view (members, encoding) and
   the stale table — never on another group and never on the health
   arrays — so a group whose view did not change since it last passed
   still passes. The cache keeps the set of gids whose last check passed
   and the verdict of its last call. When that call passed every group of
   a view of the same controller, a check re-walks only the groups the
   caller marked dirty (e.g. from [Controller.drain_dirty]) that the view
   still lists, found by binary search: the per-event oracle costs the
   event's footprint, not the group table. Otherwise it walks every group
   in gid order, accepting the cached ones. *)

type cache = {
  c_passed : (int, unit) Hashtbl.t;
      (* gids whose last check passed and that are not dirty since *)
  mutable c_owner : int ref;
      (* generation counter of the views last checked: identifies their
         controller *)
  mutable c_clean : bool;  (* the last call returned [Ok] *)
  mutable c_hits : int;
  mutable c_misses : int;
}

let create_cache () =
  {
    c_passed = Hashtbl.create 256;
    c_owner = ref 0;
    c_clean = false;
    c_hits = 0;
    c_misses = 0;
  }

let is_cached cache gid = Hashtbl.mem cache.c_passed gid
let cache_stats cache = (cache.c_hits, cache.c_misses)

let recheck cache cfg g =
  cache.c_misses <- cache.c_misses + 1;
  let res = check_group cfg g in
  if Result.is_ok res then Hashtbl.replace cache.c_passed g.Installed_config.gid ();
  res

let full_walk cache cfg =
  walk_groups cfg (fun g ->
      if is_cached cache g.Installed_config.gid then begin
        cache.c_hits <- cache.c_hits + 1;
        Ok ()
      end
      else recheck cache cfg g)

let rec ascending = function
  | (a : int) :: (b :: _ as rest) -> a < b && ascending rest
  | [ _ ] | [] -> true

(* Every group outside [slots] (ascending positions in the view) passed
   last time: re-check those in order, and count the rest as hits up to
   the first failure, as the full walk would. *)
let dirty_walk cache cfg slots =
  let n = Installed_config.count cfg in
  let rec go rechecked = function
    | [] ->
        cache.c_hits <- cache.c_hits + n - rechecked;
        Ok n
    | slot :: rest -> (
        match recheck cache cfg (Installed_config.nth cfg slot) with
        | Ok () -> go (rechecked + 1) rest
        | Error _ as e ->
            cache.c_hits <- cache.c_hits + slot - rechecked;
            e)
  in
  go 0 slots

let check_config_cached cache cfg ~dirty =
  current cfg;
  let same_owner = cache.c_owner == cfg.Installed_config.generation in
  (* Dirty groups (including removed ones, which the view no longer
     lists) drop out of the cache before the walk; a cache last used on
     another controller's views knows none of this one's groups. *)
  if same_owner then List.iter (Hashtbl.remove cache.c_passed) dirty
  else Hashtbl.reset cache.c_passed;
  let dirty = if ascending dirty then dirty else List.sort_uniq Int.compare dirty in
  let slots =
    List.filter_map
      (fun gid ->
        let slot = Installed_config.slot cfg gid in
        if slot < 0 then None else Some slot)
      dirty
  in
  let res =
    if
      same_owner && cache.c_clean
      && Hashtbl.length cache.c_passed + List.length slots = Installed_config.count cfg
    then dirty_walk cache cfg slots
    else begin
      (* The cache cannot vouch for every other group: a cold cache, a
         failure last time, or a passed set that does not match the view. *)
      if same_owner && cache.c_clean then Hashtbl.reset cache.c_passed;
      full_walk cache cfg
    end
  in
  cache.c_owner <- cfg.Installed_config.generation;
  cache.c_clean <- Result.is_ok res;
  res

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
