type node =
  | Host_node of int
  | Leaf_node of int
  | Spine_node of int
  | Core_node of int

type hop = { hop_from : node; hop_to : node; hop_header_bytes : int }

(* Per-traversal observation callbacks. [tel_hop] fires on every link
   traversal with a hop record built for it (with no hook attached, no hop
   is built); [tel_packet] fires once at the end of each inject with the
   packet's total wire bytes. *)
type telemetry = {
  tel_hop : payload:int -> hop -> unit;
  tel_packet : group:int -> sender:int -> bytes:int -> unit;
}

type t = {
  topo : Topology.t;
  leaf_tables : (int, Bitmap.t) Hashtbl.t array;
  spine_tables : (int, Bitmap.t) Hashtbl.t array;  (* per physical spine *)
  spine_up : bool array;
  core_up : bool array;
  link_up : bool array;  (* leaf <-> pod spine links, index leaf * spp + plane *)
  leaf_legacy : bool array;  (* cannot parse Elmo headers (§7) *)
  spine_legacy : bool array;
  mutable telemetry : telemetry option;
  mutable fence_epoch : int;
      (* minimum controller epoch whose mutations the fabric accepts; a
         fenced ex-primary's late installs bounce off it *)
  mutable fenced : int;  (* mutations refused below the fence, cumulative *)
}

let create topo =
  {
    topo;
    leaf_tables = Array.init (Topology.num_leaves topo) (fun _ -> Hashtbl.create 8);
    spine_tables = Array.init (Topology.num_spines topo) (fun _ -> Hashtbl.create 8);
    spine_up = Array.make (Topology.num_spines topo) true;
    core_up = Array.make (max 1 (Topology.num_cores topo)) true;
    link_up =
      Array.make (Topology.num_leaves topo * topo.Topology.spines_per_pod) true;
    leaf_legacy = Array.make (Topology.num_leaves topo) false;
    spine_legacy = Array.make (Topology.num_spines topo) false;
    telemetry = None;
    fence_epoch = 0;
    fenced = 0;
  }

let topology t = t.topo
let set_telemetry t tel = t.telemetry <- tel

let install_leaf_srule t ~leaf ~group bm = Hashtbl.replace t.leaf_tables.(leaf) group bm
let remove_leaf_srule t ~leaf ~group = Hashtbl.remove t.leaf_tables.(leaf) group

let install_pod_srule t ~pod ~group bm =
  List.iter
    (fun s -> Hashtbl.replace t.spine_tables.(s) group bm)
    (Topology.spines_of_pod t.topo pod)

let remove_pod_srule t ~pod ~group =
  List.iter
    (fun s -> Hashtbl.remove t.spine_tables.(s) group)
    (Topology.spines_of_pod t.topo pod)

let install_encoding t ~group enc =
  List.iter
    (fun (leaf, bm) -> install_leaf_srule t ~leaf ~group bm)
    enc.Encoding.d_leaf.Clustering.srules;
  List.iter
    (fun (pod, bm) -> install_pod_srule t ~pod ~group bm)
    enc.Encoding.d_spine.Clustering.srules

let remove_encoding t ~group enc =
  List.iter
    (fun (leaf, _) -> remove_leaf_srule t ~leaf ~group)
    enc.Encoding.d_leaf.Clustering.srules;
  List.iter
    (fun (pod, _) -> remove_pod_srule t ~pod ~group)
    enc.Encoding.d_spine.Clustering.srules

let leaf_table_size t l = Hashtbl.length t.leaf_tables.(l)
let spine_table_size t s = Hashtbl.length t.spine_tables.(s)

let leaf_srule t ~leaf ~group = Hashtbl.find_opt t.leaf_tables.(leaf) group

let pod_srule t ~pod ~group =
  match Topology.spines_of_pod t.topo pod with
  | [] -> None
  | s :: rest -> (
      match Hashtbl.find_opt t.spine_tables.(s) group with
      | None -> None
      | Some bm ->
          let same s' =
            match Hashtbl.find_opt t.spine_tables.(s') group with
            | Some bm' -> Bitmap.equal bm bm'
            | None -> false
          in
          if List.for_all same rest then Some bm else None)

(* Perfect (never-failing) controller hooks over this fabric; wrap them in
   a fault schedule with [Fault.hooks] to exercise the reliable
   installation path. *)
let controller_hooks t =
  {
    Controller.install_leaf =
      (fun ~leaf ~group bm ->
        install_leaf_srule t ~leaf ~group bm;
        Ok ());
    remove_leaf =
      (fun ~leaf ~group ->
        remove_leaf_srule t ~leaf ~group;
        Ok ());
    install_pod =
      (fun ~pod ~group bm ->
        install_pod_srule t ~pod ~group bm;
        Ok ());
    remove_pod =
      (fun ~pod ~group ->
        remove_pod_srule t ~pod ~group;
        Ok ());
    read_leaf = (fun ~leaf ~group -> leaf_srule t ~leaf ~group);
    read_pod = (fun ~pod ~group -> pod_srule t ~pod ~group);
  }

(* {1 Epoch fencing (failover)}

   The fabric is the arbiter of controller succession: [set_fence e]
   records that a controller of epoch [e] has taken over, and the
   epoch-stamped hooks below refuse every mutation from an older epoch —
   the classic fencing-token scheme, so a paused ex-primary that wakes up
   mid-install cannot clobber the new primary's state. Reads answer
   normally at any epoch: the ex-primary's read-back verification then
   sees its install never landed and degrades, instead of wrongly
   believing it succeeded. *)

let set_fence t epoch =
  if epoch < t.fence_epoch then
    invalid_arg "Fabric.set_fence: fence epochs are monotonic"; (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
  t.fence_epoch <- epoch

let fence_epoch t = t.fence_epoch
let fenced_refusals t = t.fenced

let controller_hooks_at t ~epoch =
  let admitted () = epoch >= t.fence_epoch in
  let refuse () =
    t.fenced <- t.fenced + 1;
    Error Controller.Refused
  in
  {
    Controller.install_leaf =
      (fun ~leaf ~group bm ->
        if not (admitted ()) then refuse ()
        else begin
          install_leaf_srule t ~leaf ~group bm;
          Ok ()
        end);
    remove_leaf =
      (fun ~leaf ~group ->
        if not (admitted ()) then refuse ()
        else begin
          remove_leaf_srule t ~leaf ~group;
          Ok ()
        end);
    install_pod =
      (fun ~pod ~group bm ->
        if not (admitted ()) then refuse ()
        else begin
          install_pod_srule t ~pod ~group bm;
          Ok ()
        end);
    remove_pod =
      (fun ~pod ~group ->
        if not (admitted ()) then refuse ()
        else begin
          remove_pod_srule t ~pod ~group;
          Ok ()
        end);
    read_leaf = (fun ~leaf ~group -> leaf_srule t ~leaf ~group);
    read_pod = (fun ~pod ~group -> pod_srule t ~pod ~group);
  }

(* {1 Table enumeration (reconcile sweeps)} *)

let leaf_groups t leaf =
  Hashtbl.fold (fun g _ acc -> g :: acc) t.leaf_tables.(leaf) []
  |> List.sort_uniq Int.compare

let pod_groups t pod =
  List.fold_left
    (fun acc s -> Hashtbl.fold (fun g _ acc -> g :: acc) t.spine_tables.(s) acc)
    []
    (Topology.spines_of_pod t.topo pod)
  |> List.sort_uniq Int.compare

let link_index t ~leaf ~plane =
  if plane < 0 || plane >= t.topo.Topology.spines_per_pod then
    invalid_arg "Fabric: plane out of range"; (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
  (leaf * t.topo.Topology.spines_per_pod) + plane

let fail_link t ~leaf ~plane = t.link_up.(link_index t ~leaf ~plane) <- false
let recover_link t ~leaf ~plane = t.link_up.(link_index t ~leaf ~plane) <- true
let link_ok t ~leaf ~plane = t.link_up.((leaf * t.topo.Topology.spines_per_pod) + plane)

let set_leaf_legacy t l v = t.leaf_legacy.(l) <- v
let set_spine_legacy t s v = t.spine_legacy.(s) <- v

let fail_spine t s = t.spine_up.(s) <- false
let recover_spine t s = t.spine_up.(s) <- true
let fail_core t c = t.core_up.(c) <- false
let recover_core t c = t.core_up.(c) <- true

type report = {
  delivered : (int * int) list;
  transmissions : int;
  header_bytes : int;
  lost : int;
}

let pp_node ppf = function
  | Host_node h -> Format.fprintf ppf "host %d" h
  | Leaf_node l -> Format.fprintf ppf "leaf %d" l
  | Spine_node s -> Format.fprintf ppf "spine %d" s
  | Core_node c -> Format.fprintf ppf "core %d" c

let pp_trace ppf hops =
  List.iter
    (fun h ->
      Format.fprintf ppf "%a -> %a (%d header bytes)@." pp_node h.hop_from
        pp_node h.hop_to h.hop_header_bytes)
    hops

(* {1 One packet's walk}

   [inject_wire] and [trace] make the same walk. A hop's ends travel as a
   kind and an id; the [hop] record and its [node]s are built only when
   someone observes them, a telemetry hook or a trace. *)

type kind = Host | Leaf | Spine | Core

let node kind id =
  match kind with
  | Host -> Host_node id
  | Leaf -> Leaf_node id
  | Spine -> Spine_node id
  | Core -> Core_node id

type walk = {
  fabric : t;
  group : int;
  sender : int;
  wire : Header_codec.wire;
  data : bytes;  (* the wire's bytes, which every switch reads in place *)
  (* Each section is read at most once per packet, by the first switch
     that needs it, at its stage's offset in [data]. *)
  u_spine : Prule.uprule option Lazy.t;
  core : Bitmap.t option Lazy.t;
  d_spine : Header_codec.section_index Lazy.t;
  d_leaf : Header_codec.section_index Lazy.t;
  mutable transmissions : int;
  mutable header_bytes : int;
  mutable lost : int;
  mutable hosts : int array;  (* deliveries so far, in [0, n_hosts) *)
  mutable n_hosts : int;
  tracing : bool;
  mutable hops : hop list;  (* reversed; built only when [tracing] *)
  tel : telemetry option;
  payload : int;
}

let link w src_kind src dst_kind dst bytes =
  w.transmissions <- w.transmissions + 1;
  w.header_bytes <- w.header_bytes + bytes;
  if w.tracing || Option.is_some w.tel then begin
    let h =
      { hop_from = node src_kind src; hop_to = node dst_kind dst; hop_header_bytes = bytes }
    in
    if w.tracing then w.hops <- h :: w.hops;
    match w.tel with None -> () | Some tel -> tel.tel_hop ~payload:w.payload h
  end

let lose w = w.lost <- w.lost + 1

let deliver w leaf port =
  let host = (leaf * w.fabric.topo.Topology.hosts_per_leaf) + port in
  link w Leaf leaf Host host 0;
  if w.n_hosts = Array.length w.hosts then begin
    let grown = Array.make (2 * w.n_hosts) 0 in
    Array.blit w.hosts 0 grown 0 w.n_hosts;
    w.hosts <- grown
  end;
  w.hosts.(w.n_hosts) <- host;
  w.n_hosts <- w.n_hosts + 1

(* Header bytes on a hop after [stage]: the wire from the stage's offset,
   rounded up to a byte. *)
let stage_bytes w stage =
  (Header_codec.wire_bits w.wire - Header_codec.stage_offset w.wire stage + 7) / 8

let section wire stage read =
  lazy
    (let r = Bitio.Reader.of_bytes (Header_codec.wire_bytes wire) in
     Bitio.Reader.seek r (Header_codec.stage_offset wire stage);
     read r)

(* Forwards on the group's entry in [table]; false if there is none. *)
let table_hit w table f =
  match Hashtbl.find_opt table w.group with
  | Some bm ->
      Bitmap.iter f bm;
      true
  | None -> false

(* The ports a downstream switch forwards on, as its parser finds them
   (§4.1): the p-rule naming [id], read where it lies in the wire; then the
   group table; then the section's default. A legacy switch cannot parse
   the header at all: group table or drop. *)
let forward w ~legacy table index ~id ~width f =
  if legacy then ignore (table_hit w table f : bool)
  else begin
    let ix = Lazy.force index in
    let at = Header_codec.rule_offset ix id in
    if at >= 0 then Bitio.Reader.iter_bitmap w.data ~off:at width f
    else if not (table_hit w table f) then begin
      let at = Header_codec.default_offset ix in
      if at >= 0 then Bitio.Reader.iter_bitmap w.data ~off:at width f
    end
  end

let at_leaf_down w leaf =
  let f = w.fabric in
  forward w ~legacy:f.leaf_legacy.(leaf) f.leaf_tables.(leaf) w.d_leaf ~id:leaf
    ~width:(Topology.leaf_downstream_width f.topo) (deliver w leaf)

(* A spine sends to leaf [port] of pod [p] over its [plane]'s link. *)
let spine_to_leaf w s ~pod ~plane bytes port =
  let leaf = (pod * w.fabric.topo.Topology.leaves_per_pod) + port in
  link w Spine s Leaf leaf bytes;
  if link_ok w.fabric ~leaf ~plane then at_leaf_down w leaf else lose w

(* Downstream spine (physical [s]) in pod [p]. *)
let at_spine_down w s p =
  let f = w.fabric in
  let topo = f.topo in
  forward w ~legacy:f.spine_legacy.(s) f.spine_tables.(s) w.d_spine ~id:p
    ~width:(Topology.spine_downstream_width topo)
    (spine_to_leaf w s ~pod:p ~plane:(s mod topo.Topology.spines_per_pod)
       (stage_bytes w Header_codec.After_d_spine))

let at_core w c =
  let f = w.fabric in
  if not f.core_up.(c) then lose w
  else
    match Lazy.force w.core with
    | None -> ()
    | Some bm ->
        let plane = c / f.topo.Topology.cores_per_plane in
        let to_spine = stage_bytes w Header_codec.After_core in
        Bitmap.iter
          (fun p ->
            let s = (p * f.topo.Topology.spines_per_pod) + plane in
            link w Core c Spine s to_spine;
            if f.spine_up.(s) then at_spine_down w s p else lose w)
          bm

(* Sender-pod spine (physical [s]): upstream processing. *)
let at_spine_up w ~pod s =
  let f = w.fabric in
  let topo = f.topo in
  if not f.spine_up.(s) then lose w
  else
    match Lazy.force w.u_spine with
    | None -> ()
    | Some u ->
        let plane = s mod topo.Topology.spines_per_pod in
        Bitmap.iter
          (spine_to_leaf w s ~pod ~plane (stage_bytes w Header_codec.After_d_spine))
          u.Prule.down;
        let to_core = stage_bytes w Header_codec.After_u_spine in
        let send_core c =
          link w Spine s Core c to_core;
          at_core w c
        in
        if u.Prule.multipath then begin
          if topo.Topology.cores_per_plane > 0 then
            send_core
              (Ecmp.core_choice topo ~hash:(Ecmp.flow_hash ~group:w.group ~sender:w.sender)
                 ~plane)
        end
        else
          Bitmap.iter
            (fun port -> send_core ((plane * topo.Topology.cores_per_plane) + port))
            u.Prule.up

(* Sender leaf: upstream processing of the full header. *)
let at_leaf_up w =
  let f = w.fabric in
  let topo = f.topo in
  let sl = Topology.leaf_of_host topo w.sender in
  let sp = Topology.pod_of_leaf topo sl in
  link w Host w.sender Leaf sl (Bytes.length w.data);
  let u = Header_codec.read_u_leaf topo (Bitio.Reader.of_bytes w.data) in
  Bitmap.iter (deliver w sl) u.Prule.down;
  let to_spine = stage_bytes w Header_codec.After_u_leaf in
  let send_spine s =
    link w Leaf sl Spine s to_spine;
    if link_ok f ~leaf:sl ~plane:(s mod topo.Topology.spines_per_pod) then
      at_spine_up w ~pod:sp s
    else lose w
  in
  let first = sp * topo.Topology.spines_per_pod in
  if u.Prule.multipath then
    send_spine
      (first + Ecmp.spine_choice topo ~hash:(Ecmp.flow_hash ~group:w.group ~sender:w.sender))
  else Bitmap.iter (fun port -> send_spine (first + port)) u.Prule.up

let walk t ~sender ~group ~wire ~payload ~tel ~tracing =
  let topo = t.topo in
  let w =
    {
      fabric = t;
      group;
      sender;
      wire;
      data = Header_codec.wire_bytes wire;
      u_spine = section wire Header_codec.After_u_leaf (Header_codec.read_u_spine topo);
      core = section wire Header_codec.After_u_spine (Header_codec.read_core topo);
      d_spine =
        section wire Header_codec.After_core (Header_codec.index_section topo `Spine);
      d_leaf =
        section wire Header_codec.After_d_spine (Header_codec.index_section topo `Leaf);
      transmissions = 0;
      header_bytes = 0;
      lost = 0;
      hosts = Array.make 16 0;
      n_hosts = 0;
      tracing;
      hops = [];
      tel;
      payload;
    }
  in
  at_leaf_up w;
  w

(* {2 Deliveries, sorted once}

   A leaf delivers its ports in ascending order and leaves are reached
   mostly in ascending order (the sender's leaf and pod come first), so
   the deliveries arrive as a few ascending runs. A merge sort over those
   natural runs takes a pass or two where a comparison sort takes
   [log n]. *)

(* The end of the ascending run of [a] that starts at [i]. *)
let rec run_end a i n = if i + 1 < n && a.(i) <= a.(i + 1) then run_end a (i + 1) n else i + 1

(* Merges [src.(i) .. src.(mid - 1)] and [src.(j) .. src.(hi - 1)] into
   [dst], from [dst.(k)] on. *)
let rec merge src dst i mid j hi k =
  if i < mid && (j >= hi || src.(i) <= src.(j)) then begin
    dst.(k) <- src.(i);
    merge src dst (i + 1) mid j hi (k + 1)
  end
  else if j < hi then begin
    dst.(k) <- src.(j);
    merge src dst i mid (j + 1) hi (k + 1)
  end

(* Merges each pair of adjacent runs of [src.(lo) .. src.(n - 1)] into
   [dst]; returns how many merged runs that makes, plus [runs]. *)
let rec merge_pass src dst lo n runs =
  if lo >= n then runs
  else begin
    let mid = run_end src lo n in
    let hi = if mid < n then run_end src mid n else n in
    merge src dst lo mid mid hi lo;
    merge_pass src dst hi n (runs + 1)
  end

(* [a.(0) .. a.(n - 1)] sorted, in [a] or in [tmp]. *)
let rec sort_runs a tmp n = if merge_pass a tmp 0 n 0 <= 1 then tmp else sort_runs tmp a n

(* The first index at or before [j] of the run of [h]s ending at [j]. *)
let rec run_start a h j = if j > 0 && a.(j - 1) = h then run_start a h (j - 1) else j

(* (host, copies), ascending, counted from the end. *)
let delivered w =
  let n = w.n_hosts in
  let a = sort_runs w.hosts (Array.make n 0) n in
  let rec runs i acc =
    if i < 0 then acc
    else
      let j = run_start a a.(i) i in
      runs (j - 1) ((a.(i), i - j + 1) :: acc)
  in
  runs (n - 1) []

let inject_wire t ~sender ~group ~wire ~payload =
  let w = walk t ~sender ~group ~wire ~payload ~tel:t.telemetry ~tracing:false in
  (match t.telemetry with
  | None -> ()
  | Some tel ->
      tel.tel_packet ~group ~sender
        ~bytes:((payload * w.transmissions) + w.header_bytes));
  {
    delivered = delivered w;
    transmissions = w.transmissions;
    header_bytes = w.header_bytes;
    lost = w.lost;
  }

let inject t ~sender ~group ~header ~payload =
  inject_wire t ~sender ~group ~wire:(Header_codec.to_wire t.topo header) ~payload

let trace t ~sender ~group ~header =
  let wire = Header_codec.to_wire t.topo header in
  List.rev (walk t ~sender ~group ~wire ~payload:0 ~tel:None ~tracing:true).hops

(* Both lists ascend: one merge, skipping deliveries to non-members. *)
let deliveries_correct report ~tree ~sender =
  let rec merge members delivered =
    match (members, delivered) with
    | [], _ -> true
    | m :: ms, _ when m = sender -> merge ms delivered
    | m :: _, (d, _) :: ds when d < m -> merge members ds
    | m :: ms, (d, 1) :: ds when d = m -> merge ms ds
    | _ :: _, _ -> false
  in
  merge (Tree.member_list tree) report.delivered
