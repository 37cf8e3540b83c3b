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

(* One packet's walk state. A fabric owns one and reuses it for every
   packet, so a walk allocates only its report (and, when observed, its
   hops): nothing is kept from one packet to the next but the buffers'
   capacity. A telemetry hook must therefore not re-enter [inject] on the
   same fabric. *)
type walk = {
  mutable group : int;
  mutable sender : int;
  mutable payload : int;
  mutable tel : telemetry option;  (* the fabric's for [inject], none for [trace] *)
  mutable tracing : bool;
  mutable transmissions : int;
  mutable header_bytes : int;
  mutable lost : int;
  mutable hosts : int array;  (* deliveries so far, in [0, n_hosts) *)
  mutable merged : int array;  (* the delivery sort's other buffer, as long *)
  mutable n_hosts : int;
  mutable hops : hop list;  (* reversed; built only when [tracing] *)
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
  walk : walk;
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
    walk =
      {
        group = 0;
        sender = 0;
        payload = 0;
        tel = None;
        tracing = false;
        transmissions = 0;
        header_bytes = 0;
        lost = 0;
        hosts = Array.make 64 0;
        merged = Array.make 64 0;
        n_hosts = 0;
        hops = [];
      };
  }

let topology t = t.topo
let set_telemetry t tel = t.telemetry <- tel

(* A switch's group table holds its own copy of every entry: nothing the
   controller does to its bitmaps after an install reaches the fabric. *)
let install_leaf_srule t ~leaf ~group bm =
  Hashtbl.replace t.leaf_tables.(leaf) group (Bitmap.copy bm)
let remove_leaf_srule t ~leaf ~group = Hashtbl.remove t.leaf_tables.(leaf) group

let install_pod_srule t ~pod ~group bm =
  List.iter
    (fun s -> Hashtbl.replace t.spine_tables.(s) group (Bitmap.copy bm))
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

(* Perfect (never-failing) controller hooks over this fabric: no fence
   is ever above [max_int]. Wrap them in a fault schedule with
   [Fault.hooks] to exercise the reliable installation path. *)
let controller_hooks t = controller_hooks_at t ~epoch:max_int

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

   [inject_wire] and [trace] make the same walk. Every switch reads the
   field its layer reads where it lies in the wire ([Header_codec.uprule_at]
   .. [default_at]) and forwards out of the ports set there, visited by
   [next_set] loops: no section is parsed, no bitmap or closure built. A
   hop's ends travel as a kind and an id; the [hop] record and its [node]s
   are built only when someone observes them, a telemetry hook or a
   trace. *)

type kind = Host | Leaf | Spine | Core

let node kind id =
  match kind with
  | Host -> Host_node id
  | Leaf -> Leaf_node id
  | Spine -> Spine_node id
  | Core -> Core_node id

let link t src_kind src dst_kind dst bytes =
  let w = t.walk in
  w.transmissions <- w.transmissions + 1;
  w.header_bytes <- w.header_bytes + bytes;
  if w.tracing || Option.is_some w.tel then begin
    let h =
      { hop_from = node src_kind src; hop_to = node dst_kind dst; hop_header_bytes = bytes }
    in
    if w.tracing then w.hops <- h :: w.hops;
    match w.tel with None -> () | Some tel -> tel.tel_hop ~payload:w.payload h
  end

let lose t = t.walk.lost <- t.walk.lost + 1

let deliver t leaf port =
  let w = t.walk in
  let host = (leaf * t.topo.Topology.hosts_per_leaf) + port in
  link t Leaf leaf Host host 0;
  if w.n_hosts = Array.length w.hosts then begin
    let grown = Array.make (2 * w.n_hosts) 0 in
    Array.blit w.hosts 0 grown 0 w.n_hosts;
    w.hosts <- grown;
    w.merged <- Array.make (2 * w.n_hosts) 0
  end;
  w.hosts.(w.n_hosts) <- host;
  w.n_hosts <- w.n_hosts + 1

(* Header bytes on a hop after [stage]: the wire from the stage's offset,
   rounded up to a byte. *)
let stage_bytes wire stage =
  (Header_codec.wire_bits wire - Header_codec.stage_offset wire stage + 7) / 8

(* What a switch's output port [p] leads to. *)
type out =
  | Hosts  (* leaf [sw]: its host [p] *)
  | Pod_leaves  (* spine [sw], downstream: leaf [p] of its pod *)
  | Pod_spines  (* core [sw]: the spine of its plane in pod [p] *)
  | Up_spines  (* sender leaf [sw]: spine [p] of its pod *)
  | Up_cores  (* sender-pod spine [sw]: core [p] of its plane *)

let rec send t wire out sw p =
  let topo = t.topo in
  match out with
  | Hosts -> deliver t sw p
  | Pod_leaves -> spine_to_leaf t wire sw p
  | Pod_spines ->
      let s = (p * topo.Topology.spines_per_pod) + (sw / topo.Topology.cores_per_plane) in
      link t Core sw Spine s (stage_bytes wire Header_codec.After_core);
      if t.spine_up.(s) then at_spine_down t wire s else lose t
  | Up_spines ->
      let pod = sw / topo.Topology.leaves_per_pod in
      leaf_to_spine t wire sw ((pod * topo.Topology.spines_per_pod) + p)
  | Up_cores ->
      let plane = sw mod topo.Topology.spines_per_pod in
      spine_to_core t wire sw ((plane * topo.Topology.cores_per_plane) + p)

(* Sends out of every port set in the [width]-bit bitmap at bit [off] of
   the wire, from port [p] on. *)
and wire_ports t wire out sw ~off width p =
  if p >= 0 then begin
    send t wire out sw p;
    wire_ports t wire out sw ~off width
      (Bitio.Reader.next_set (Header_codec.wire_bytes wire) ~off width (p + 1))
  end

and each_wire_port t wire out sw ~off width =
  wire_ports t wire out sw ~off width
    (Bitio.Reader.next_set (Header_codec.wire_bytes wire) ~off width 0)

and table_ports t wire out sw bm p =
  if p >= 0 then begin
    send t wire out sw p;
    table_ports t wire out sw bm (Bitmap.next_set bm (p + 1))
  end

(* Forwards on the group's entry in [table]; false if there is none. *)
and table_hit t wire out sw table =
  match Hashtbl.find table t.walk.group with
  | bm ->
      table_ports t wire out sw bm (Bitmap.next_set bm 0);
      true
  | exception Not_found -> false

(* The ports a downstream switch forwards on, as its parser finds them
   (§4.1): the p-rule naming [id], read where it lies in the wire; then the
   group table; then the section's default. A legacy switch cannot parse
   the header at all: group table or drop. *)
and forward t wire out sw ~legacy table layer ~id ~width =
  if legacy then ignore (table_hit t wire out sw table : bool)
  else begin
    let at = Header_codec.rule_at wire layer id in
    if at >= 0 then each_wire_port t wire out sw ~off:at width
    else if not (table_hit t wire out sw table) then begin
      let at = Header_codec.default_at wire layer in
      if at >= 0 then each_wire_port t wire out sw ~off:at width
    end
  end

and at_leaf_down t wire leaf =
  forward t wire Hosts leaf ~legacy:t.leaf_legacy.(leaf) t.leaf_tables.(leaf) `Leaf ~id:leaf
    ~width:(Topology.leaf_downstream_width t.topo)

(* Spine [s] sends to leaf [port] of its pod over its plane's link. *)
and spine_to_leaf t wire s port =
  let topo = t.topo in
  let pod = s / topo.Topology.spines_per_pod in
  let leaf = (pod * topo.Topology.leaves_per_pod) + port in
  link t Spine s Leaf leaf (stage_bytes wire Header_codec.After_d_spine);
  if link_ok t ~leaf ~plane:(s mod topo.Topology.spines_per_pod) then at_leaf_down t wire leaf
  else lose t

(* Downstream spine (physical [s]). *)
and at_spine_down t wire s =
  let topo = t.topo in
  forward t wire Pod_leaves s ~legacy:t.spine_legacy.(s) t.spine_tables.(s) `Spine
    ~id:(s / topo.Topology.spines_per_pod)
    ~width:(Topology.spine_downstream_width topo)

and spine_to_core t wire s c =
  link t Spine s Core c (stage_bytes wire Header_codec.After_u_spine);
  if not t.core_up.(c) then lose t
  else begin
    let at = Header_codec.core_at wire in
    if at >= 0 then
      each_wire_port t wire Pod_spines c ~off:at (Topology.core_downstream_width t.topo)
  end

(* Sender-pod spine (physical [s]): upstream processing. *)
and at_spine_up t wire s =
  let topo = t.topo in
  let at = Header_codec.uprule_at wire `Spine in
  if not t.spine_up.(s) then lose t
  else if at >= 0 then begin
    let down = Topology.spine_downstream_width topo in
    let up = Topology.spine_upstream_width topo in
    each_wire_port t wire Pod_leaves s ~off:at down;
    if Bitio.Reader.bit_at (Header_codec.wire_bytes wire) (at + down + up) then begin
      if topo.Topology.cores_per_plane > 0 then
        spine_to_core t wire s
          (Ecmp.core_choice topo
             ~hash:(Ecmp.flow_hash ~group:t.walk.group ~sender:t.walk.sender)
             ~plane:(s mod topo.Topology.spines_per_pod))
    end
    else each_wire_port t wire Up_cores s ~off:(at + down) up
  end

and leaf_to_spine t wire sl s =
  link t Leaf sl Spine s (stage_bytes wire Header_codec.After_u_leaf);
  if link_ok t ~leaf:sl ~plane:(s mod t.topo.Topology.spines_per_pod) then
    at_spine_up t wire s
  else lose t

(* Sender leaf: upstream processing of the full header. *)
let at_leaf_up t wire =
  let topo = t.topo in
  let w = t.walk in
  let data = Header_codec.wire_bytes wire in
  let sl = Topology.leaf_of_host topo w.sender in
  link t Host w.sender Leaf sl (Bytes.length data);
  let down = Topology.leaf_downstream_width topo in
  let up = Topology.leaf_upstream_width topo in
  each_wire_port t wire Hosts sl ~off:0 down;
  if Bitio.Reader.bit_at data (down + up) then
    leaf_to_spine t wire sl
      ((Topology.pod_of_leaf topo sl * topo.Topology.spines_per_pod)
      + Ecmp.spine_choice topo ~hash:(Ecmp.flow_hash ~group:w.group ~sender:w.sender))
  else each_wire_port t wire Up_spines sl ~off:down up

let walk t ~sender ~group ~wire ~payload ~tel ~tracing =
  let w = t.walk in
  w.group <- group;
  w.sender <- sender;
  w.payload <- payload;
  w.tel <- tel;
  w.tracing <- tracing;
  w.transmissions <- 0;
  w.header_bytes <- 0;
  w.lost <- 0;
  w.n_hosts <- 0;
  w.hops <- [];
  at_leaf_up t wire

(* {2 Deliveries, sorted once}

   A leaf delivers its ports in ascending order and leaves are reached
   mostly in ascending order (the sender's leaf and pod come first), so
   the deliveries arrive as a few ascending runs. A merge sort over those
   natural runs takes a pass or two where a comparison sort takes
   [log n]. Everything is at [int]: one machine comparison per step. *)

(* The end of the ascending run of [a] that starts at [i]. *)
let rec run_end (a : int array) i n =
  if i + 1 < n && a.(i) <= a.(i + 1) then run_end a (i + 1) n else i + 1

(* Merges [src.(i) .. src.(mid - 1)] and [src.(j) .. src.(hi - 1)] into
   [dst], from [dst.(k)] on. *)
let rec merge (src : int array) (dst : int array) i mid j hi k =
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
let rec merge_pass (src : int array) (dst : int array) lo n runs =
  if lo >= n then runs
  else begin
    let mid = run_end src lo n in
    let hi = if mid < n then run_end src mid n else n in
    merge src dst lo mid mid hi lo;
    merge_pass src dst hi n (runs + 1)
  end

(* [a.(0) .. a.(n - 1)] sorted, in [a] or in [tmp]. *)
let rec sort_runs (a : int array) (tmp : int array) n =
  if merge_pass a tmp 0 n 0 <= 1 then tmp else sort_runs tmp a n

(* The first index at or before [j] of the run of [h]s ending at [j]. *)
let rec run_start (a : int array) (h : int) j =
  if j > 0 && a.(j - 1) = h then run_start a h (j - 1) else j

(* (host, copies) of the ascending [a.(0) .. a.(i)], onto [acc]. *)
let rec counts (a : int array) i acc =
  if i < 0 then acc
  else
    let j = run_start a a.(i) i in
    counts a (j - 1) ((a.(i), i - j + 1) :: acc)

let delivered w =
  counts (sort_runs w.hosts w.merged w.n_hosts) (w.n_hosts - 1) []

let inject_wire t ~sender ~group ~wire ~payload =
  walk t ~sender ~group ~wire ~payload ~tel:t.telemetry ~tracing:false;
  let w = t.walk in
  let report =
    {
      delivered = delivered w;
      transmissions = w.transmissions;
      header_bytes = w.header_bytes;
      lost = w.lost;
    }
  in
  (match t.telemetry with
  | None -> ()
  | Some tel ->
      tel.tel_packet ~group ~sender
        ~bytes:((payload * report.transmissions) + report.header_bytes));
  report

let inject t ~sender ~group ~header ~payload =
  inject_wire t ~sender ~group ~wire:(Header_codec.to_wire t.topo header) ~payload

let trace t ~sender ~group ~header =
  let wire = Header_codec.to_wire t.topo header in
  walk t ~sender ~group ~wire ~payload:0 ~tel:None ~tracing:true;
  let hops = List.rev t.walk.hops in
  t.walk.hops <- [];
  hops

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
