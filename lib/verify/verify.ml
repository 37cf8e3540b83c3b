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

(* {1 Installed assignments}

   A switch resolves its downstream assignment as the switch parser does:
   the first p-rule naming it, then the group-table entry — the
   compensated truthful bitmap when the site is stale, the first s-rule
   naming it otherwise — then the default p-rule, which applies to any
   switch falling through. [None] means the switch forwards nothing.

   [sites] holds, per layer, one slot per switch of the fabric. For the
   group it last indexed it records, from the rule records themselves,
   the bitmap of the first p-rule naming each switch (stamped [stamp]),
   and of the first s-rule naming each switch no p-rule names (stamped
   [stamp + 1]). Indexing a group costs the switch ids its rules name and
   resolving a switch is then O(1) beside the stale lookup, where a scan
   of the layer's rules per switch was O(rules). The encoding's own slot
   dispatch ([Encoding.idx_*]) is not read: a check that trusted it would
   miss a rule record edited behind it. One [sites] serves one group at a
   time; a caller allocates it once per call and indexes each group
   before resolving its switches. *)

type layer_index = {
  at : int array;  (* the stamp of the rule recorded at each switch *)
  first : Bitmap.t array;  (* that rule's bitmap *)
}

type sites = {
  leaf_ix : layer_index;
  pod_ix : layer_index;
  mutable stamp : int;  (* even; 2 more for each group indexed *)
  no_ports : Bitmap.t;  (* empty: the ports of a leaf the tree lacks *)
}

let layer_index n = { at = Array.make n (-1); first = Array.make n (Bitmap.create 0) }

let sites topo =
  {
    leaf_ix = layer_index (Topology.num_leaves topo);
    pod_ix = layer_index topo.Topology.pods;
    stamp = 0;
    no_ports = Bitmap.create (Topology.leaf_downstream_width topo);
  }

(* Record [bm] at switch [id], stamped [mark], unless a rule of the group
   stamped [stamp] is recorded there already; ids off the fabric name no
   switch. *)
let record ix stamp mark id bm =
  if id >= 0 && id < Array.length ix.at && ix.at.(id) < stamp then begin
    ix.at.(id) <- mark;
    ix.first.(id) <- bm
  end

let rec record_ids ix stamp bm = function
  | [] -> ()
  | id :: rest ->
      record ix stamp stamp id bm;
      record_ids ix stamp bm rest

let rec record_prules ix stamp = function
  | [] -> ()
  | (r : Prule.prule) :: rest ->
      record_ids ix stamp r.Prule.bitmap r.Prule.switches;
      record_prules ix stamp rest

let rec record_srules ix stamp = function
  | [] -> ()
  | (id, bm) :: rest ->
      record ix stamp (stamp + 1) id bm;
      record_srules ix stamp rest

let index_layer ix stamp (layer : Clustering.result) =
  record_prules ix stamp layer.Clustering.prules;
  record_srules ix stamp layer.Clustering.srules

let index_group s (enc : Encoding.t) =
  s.stamp <- s.stamp + 2;
  index_layer s.leaf_ix s.stamp enc.Encoding.d_leaf;
  index_layer s.pod_ix s.stamp enc.Encoding.d_spine

(* The tree's own bitmap at a site: what a stale site's compensated
   entry holds. *)
let truthful tree = function
  | Srule_state.Leaf l -> Tree.leaf_bitmap tree l
  | Srule_state.Pod p -> Tree.spine_bitmap tree p

let leaf_site l = Srule_state.Leaf l
let pod_site p = Srule_state.Pod p

(* Switch [id]'s assignment in [layer] of the group [s] last indexed,
   [enc]; [site] names the switch's site. *)
let resolve s ix ~site cfg ~group (enc : Encoding.t) (layer : Clustering.result) id =
  let at = ix.at.(id) in
  if at = s.stamp then Some ix.first.(id)
  else
    let site = site id in
    if Installed_config.is_stale cfg ~group site then
      truthful enc.Encoding.tree site
    else if at = s.stamp + 1 then Some ix.first.(id)
    else Option.map snd layer.Clustering.default

let leaf_assigned s cfg ~group (enc : Encoding.t) l =
  resolve s s.leaf_ix ~site:leaf_site cfg ~group enc enc.Encoding.d_leaf l

let pod_assigned s cfg ~group (enc : Encoding.t) p =
  resolve s s.pod_ix ~site:pod_site cfg ~group enc enc.Encoding.d_spine p

(* {1 The spec walk}

   [compile] never holds an edge [intent] lacks: every compiled edge is an
   edge of the receivers' specification tree that the installed state also
   covers. [spec_walk] visits every spec edge, each layer gated on its
   parent: per receiver pod its core edge (multi-pod topologies only),
   calling [core pod covered]; per receiver leaf its spine edge, calling
   [spine pod leaf_port covered]; and per receiver leaf the run of its
   receivers, calling [leaf l receivers base lo hi down ports]. The run is
   [receivers.(lo) .. receivers.(hi - 1)], whose ports on [l] are the
   hosts minus [base]; [down] is the leaf's installed assignment and
   [ports] its tree bitmap. When the spine edge is uncovered [down] is
   [None], and [ports] is empty then and when the tree lacks the leaf.
   A leaf edge is covered when its port is in both.

   The receivers ascend, so a leaf's receivers are one run: the first
   one's leaf gives the host range (one division per run, none per host),
   and a binary search finds where the run ends. The runs' pods and
   leaves ascend as the tree's pod and leaf slots do, so one cursor per
   layer finds each in the tree. Each pod's and leaf's installed state is
   looked up once.
   [compile] and [intent] expand each run into its leaf edges and keep the
   covered ones or all of them; [check_group] tests a run as one bitmap.
   None builds the spec [Tree.t]. *)

(* The first slot at or after [i] of the ascending [ids] whose id is not
   below [id]: where [id] is, if [ids] holds it, and where the search for
   any greater id starts. *)
let rec seek (ids : int array) id i =
  if i < Array.length ids && ids.(i) < id then seek ids id (i + 1) else i

let holds (ids : int array) id i = i < Array.length ids && ids.(i) = id

let spec_walk s cfg (g : Installed_config.group_view) ~core ~spine ~leaf =
  let topo = cfg.Installed_config.topo in
  let hpl = topo.Topology.hosts_per_leaf and lpp = topo.Topology.leaves_per_pod in
  (* On a multi-pod topology some sender always sits outside any given
     pod, so cross-pod reachability (core bitmap + downstream spine
     assignment) is required for every receiver pod — the encoder sets the
     core bit even for single-pod trees. *)
  let cross_pod = topo.Topology.pods > 1 in
  let group = g.Installed_config.gid and enc = g.Installed_config.enc in
  (match enc with Some e -> index_group s e | None -> ());
  let rcv = g.Installed_config.receivers in
  let last = Array.length rcv - 1 in
  (* The current pod: its id and first leaf past it, whether the core
     forwards into it, its slot in the tree (-1 when the tree lacks it)
     and its downstream spine assignment. *)
  let pod = ref (-1) and pod_end = ref 0 and core_covered = ref false in
  let pod_slot = ref (-1) and down_spine = ref None in
  let pod_cur = ref 0 and leaf_cur = ref 0 in
  let lo = ref 0 in
  while !lo <= last do
    let l = rcv.(!lo) / hpl in
    let base = l * hpl in
    let hi = Int_array.lower_bound rcv (base + hpl) ~lo:(!lo + 1) ~hi:last in
    if l >= !pod_end then begin
      let p = l / lpp in
      pod := p;
      pod_end := (p + 1) * lpp;
      (match enc with
      | None ->
          core_covered := false;
          pod_slot := -1;
          down_spine := None
      | Some e ->
          let t = e.Encoding.tree in
          core_covered := (not cross_pod) || Bitmap.get t.Tree.core_bitmap p;
          pod_cur := seek t.Tree.pod_ids p !pod_cur;
          pod_slot := if holds t.Tree.pod_ids p !pod_cur then !pod_cur else -1;
          down_spine :=
            if cross_pod then pod_assigned s cfg ~group e p else None);
      if cross_pod then core p !core_covered
    end;
    let lp = l - (!pod * lpp) in
    let spine_covered =
      match enc with
      | Some e when !pod_slot >= 0 ->
          Bitmap.get e.Encoding.tree.Tree.spine_bms.(!pod_slot) lp
          && ((not cross_pod) || (!core_covered && bitmap_opt_get !down_spine lp))
      | Some _ | None -> false
    in
    spine !pod lp spine_covered;
    (match enc with
    | Some e when spine_covered ->
        let t = e.Encoding.tree in
        leaf_cur := seek t.Tree.leaf_ids l !leaf_cur;
        leaf l rcv base !lo hi
          (leaf_assigned s cfg ~group e l)
          (if holds t.Tree.leaf_ids l !leaf_cur then t.Tree.leaf_bms.(!leaf_cur)
           else s.no_ports)
    | Some _ | None -> leaf l rcv base !lo hi None s.no_ports);
    lo := hi
  done

let spec_pred ctx cfg ~group keep =
  current cfg;
  match Installed_config.group cfg group with
  | None -> Pred.of_pairs ctx []
  | Some g ->
      let acc = ref [] in
      let add sw port covered = if keep covered then acc := (sw, port) :: !acc in
      spec_walk (sites cfg.Installed_config.topo) cfg g
        ~core:(fun p covered -> add Pred.Core p covered)
        ~spine:(fun p lp covered -> add (Pred.Spine p) lp covered)
        ~leaf:(fun l rcv base lo hi down ports ->
          for i = lo to hi - 1 do
            let q = rcv.(i) - base in
            add (Pred.Leaf l) q (bitmap_opt_get down q && Bitmap.get ports q)
          done);
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
  r_sites : sites;  (* indexed for this group; valid until the next route *)
}

let route s cfg (g : Installed_config.group_view) =
  Option.map
    (fun enc ->
      index_group s enc;
      { r_cfg = cfg; r_group = g; r_enc = enc; r_sites = s })
    g.Installed_config.enc

let route_leaf r l =
  leaf_assigned r.r_sites r.r_cfg ~group:r.r_group.Installed_config.gid r.r_enc l

let route_pod r p =
  pod_assigned r.r_sites r.r_cfg ~group:r.r_group.Installed_config.gid r.r_enc p

let leaf_down r l add =
  match route_leaf r l with
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
  match route_pod r pod with
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
  match
    Option.bind (Installed_config.group cfg group)
      (route (sites cfg.Installed_config.topo) cfg)
  with
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
      Array.fold_right
        (fun h acc ->
          if h = sender then acc
          else
            ( Pred.Leaf (Topology.leaf_of_host topo h),
              Topology.host_port_on_leaf topo h )
            :: acc)
        g.Installed_config.receivers []
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
   [check_equiv] would give, found without building either predicate.

   The walk meets pods, leaves and ports in ascending order, so within
   one layer the first uncovered edge it meets is the smallest, and
   [Pred] sorts every core edge before every spine edge and every spine
   edge before every leaf edge. The check keeps the first uncovered edge
   of the topmost layer met so far. Once it holds one, no later leaf edge
   can beat it, so no further run is tested; a later core or spine edge
   still can. A run is tested as one bitmap: its ports are set in
   [run], and it passes when they lie within both the leaf's installed
   assignment and its tree bitmap. Only a failing run is scanned, for its
   first host outside either. *)

type state = {
  sites : sites;
  run : Bitmap.t;  (* one bit per host port of a leaf *)
  mutable rank : int;
      (* the layer of the witness so far: 0 core, 1 spine, 2 leaf, 3 none *)
  mutable w_switch : Pred.switch;
  mutable w_port : int;
}

(* One check's state and [spec_walk]'s callbacks over it, built once per
   call and reused for every group. *)
type scratch = {
  st : state;
  on_core : int -> bool -> unit;
  on_spine : int -> int -> bool -> unit;
  on_leaf :
    int -> int array -> int -> int -> int -> Bitmap.t option -> Bitmap.t -> unit;
}

let keep st layer sw port =
  if layer < st.rank then begin
    st.rank <- layer;
    st.w_switch <- sw;
    st.w_port <- port
  end

let on_core st p covered = if not covered then keep st 0 Pred.Core p
let on_spine st p lp covered = if not covered then keep st 1 (Pred.Spine p) lp

let on_leaf st l rcv base lo hi down ports =
  if st.rank = 3 then
    match down with
    | Some down ->
        let run = st.run in
        Bitmap.reset run;
        for i = lo to hi - 1 do
          Bitmap.set run (rcv.(i) - base)
        done;
        if not (Bitmap.subset run down && Bitmap.subset run ports) then begin
          let covered i =
            let q = rcv.(i) - base in
            Bitmap.get down q && Bitmap.get ports q
          in
          let i = ref lo in
          while covered !i do
            incr i
          done;
          keep st 2 (Pred.Leaf l) (rcv.(!i) - base)
        end
    | None -> keep st 2 (Pred.Leaf l) (rcv.(lo) - base)

let scratch topo =
  let st =
    {
      sites = sites topo;
      run = Bitmap.create (Topology.leaf_downstream_width topo);
      rank = 3;
      w_switch = Pred.Core;
      w_port = 0;
    }
  in
  { st; on_core = on_core st; on_spine = on_spine st; on_leaf = on_leaf st }

let check_group sc cfg (g : Installed_config.group_view) =
  let st = sc.st in
  st.rank <- 3;
  spec_walk st.sites cfg g ~core:sc.on_core ~spine:sc.on_spine ~leaf:sc.on_leaf;
  if st.rank = 3 then Ok ()
  else Error (witness ~group:g.Installed_config.gid (st.w_switch, st.w_port))

let check_config cfg =
  current cfg;
  walk_groups cfg (check_group (scratch cfg.Installed_config.topo) cfg)

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
  let s = sites topo in
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
            Option.iter (live_leaves cfg ~pod ~plane set) (route_pod r pod)))
  in
  let first_uncovered r (g : Installed_config.group_view) ~sender ~sl =
    let local = Tree.leaf_bitmap r.r_enc.Encoding.tree sl in
    Array.find_opt
      (fun h ->
        let l = Topology.leaf_of_host topo h in
        let q = Topology.host_port_on_leaf topo h in
        h <> sender
        && not
             (if l = sl then bitmap_opt_get local q
              else Bitmap.get reach l && bitmap_opt_get (route_leaf r l) q))
      g.Installed_config.receivers
  in
  let check_group acc (g : Installed_config.group_view) =
    match route s cfg g with
    | None -> acc
    | Some r ->
        incr group_no;
        let tree = r.r_enc.Encoding.tree in
        Bitmap.reset want;
        Bitmap.reset local_bad;
        (* The bad leaves: how many, and the last one. *)
        let bad = ref 0 and bad_leaf = ref (-1) in
        let leaf = ref (-1) and down = ref None and ports = ref None in
        Array.iter
          (fun h ->
            let l = Topology.leaf_of_host topo h in
            if l <> !leaf then begin
              leaf := l;
              Bitmap.set want l;
              down := route_leaf r l;
              ports := Tree.leaf_bitmap tree l
            end;
            let q = Topology.host_port_on_leaf topo h in
            if (not (bitmap_opt_get !down q)) && !bad_leaf <> l then begin
              incr bad;
              bad_leaf := l
            end;
            if not (bitmap_opt_get !ports q) then Bitmap.set local_bad l)
          g.Installed_config.receivers;
        Array.fold_left
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
  mutable c_scratch : scratch option;
      (* the check's scratch, kept across calls: sized by the fabric, it
         would otherwise cost every event an allocation in the major
         heap *)
}

let create_cache () =
  {
    c_passed = Hashtbl.create 256;
    c_owner = ref 0;
    c_clean = false;
    c_hits = 0;
    c_misses = 0;
    c_scratch = None;
  }

(* The cache's scratch, made again for a fabric of other dimensions. Its
   stamps only grow, so what earlier calls recorded never reads as the
   current group's. *)
let cache_scratch cache topo =
  match cache.c_scratch with
  | Some sc
    when Array.length sc.st.sites.leaf_ix.at = Topology.num_leaves topo
         && Array.length sc.st.sites.pod_ix.at = topo.Topology.pods
         && Bitmap.width sc.st.run = Topology.leaf_downstream_width topo ->
      sc
  | Some _ | None ->
      let sc = scratch topo in
      cache.c_scratch <- Some sc;
      sc

let is_cached cache gid = Hashtbl.mem cache.c_passed gid
let cache_stats cache = (cache.c_hits, cache.c_misses)

let recheck cache sc cfg g =
  cache.c_misses <- cache.c_misses + 1;
  let res = check_group sc cfg g in
  if Result.is_ok res then Hashtbl.replace cache.c_passed g.Installed_config.gid ();
  res

let full_walk cache sc cfg =
  walk_groups cfg (fun g ->
      if is_cached cache g.Installed_config.gid then begin
        cache.c_hits <- cache.c_hits + 1;
        Ok ()
      end
      else recheck cache sc cfg g)

let rec ascending = function
  | (a : int) :: (b :: _ as rest) -> a < b && ascending rest
  | [ _ ] | [] -> true

(* Every group outside [slots] (ascending positions in the view) passed
   last time: re-check those in order, and count the rest as hits up to
   the first failure, as the full walk would. *)
let dirty_walk cache sc cfg slots =
  let n = Installed_config.count cfg in
  let rec go rechecked = function
    | [] ->
        cache.c_hits <- cache.c_hits + n - rechecked;
        Ok n
    | slot :: rest -> (
        match recheck cache sc cfg (Installed_config.nth cfg slot) with
        | Ok () -> go (rechecked + 1) rest
        | Error _ as e ->
            cache.c_hits <- cache.c_hits + slot - rechecked;
            e)
  in
  go 0 slots

let check_config_cached cache cfg ~dirty =
  current cfg;
  let same_owner = cache.c_owner == cfg.Installed_config.generation in
  let sc = cache_scratch cache cfg.Installed_config.topo in
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
    then dirty_walk cache sc cfg slots
    else begin
      (* The cache cannot vouch for every other group: a cold cache, a
         failure last time, or a passed set that does not match the view. *)
      if same_owner && cache.c_clean then Hashtbl.reset cache.c_passed;
      full_walk cache sc cfg
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
