type node =
  | Host_node of int
  | Leaf_node of int
  | Spine_node of int
  | Core_node of int

type hop = { hop_from : node; hop_to : node; hop_header_bytes : int }

(* Per-traversal observation callbacks. [tel_hop] fires on every link
   traversal with the hop record the trace already allocated (so an attached
   hook adds no per-hop allocation of its own); [tel_packet] fires once at
   the end of each inject with the packet's total wire bytes. *)
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
  trace : hop list;
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

(* Mutable accumulator threaded through one packet's traversal. *)
type acc = {
  mutable transmissions : int;
  mutable header_bytes : int;
  mutable lost : int;
  hosts : (int, int) Hashtbl.t;
  mutable trace : hop list;  (* reversed *)
  payload : int;
  tel : telemetry option;
}

let hop acc ~src ~dst bytes =
  acc.transmissions <- acc.transmissions + 1;
  acc.header_bytes <- acc.header_bytes + bytes;
  let h = { hop_from = src; hop_to = dst; hop_header_bytes = bytes } in
  acc.trace <- h :: acc.trace;
  match acc.tel with
  | None -> ()
  | Some tel -> tel.tel_hop ~payload:acc.payload h

let deliver acc ~src host =
  hop acc ~src ~dst:(Host_node host) 0;
  let n = Option.value ~default:0 (Hashtbl.find_opt acc.hosts host) in
  Hashtbl.replace acc.hosts host (n + 1)

(* Find the p-rule addressed to [id] by scanning the rule list, as the
   switch parser does (§4.1); then the group table; then the default. A
   legacy switch cannot parse the header at all: group table or drop. *)
let match_rule ~legacy rules id table group default =
  if legacy then Hashtbl.find_opt table group
  else
    match List.find_opt (fun r -> List.mem id r.Prule.switches) rules with
    | Some r -> Some r.Prule.bitmap
    | None -> (
        match Hashtbl.find_opt table group with
        | Some bm -> Some bm
        | None -> default)

let inject_wire t ~sender ~group ~wire:w ~payload =
  let topo = t.topo in
  let acc =
    {
      transmissions = 0;
      header_bytes = 0;
      lost = 0;
      hosts = Hashtbl.create 16;
      trace = [];
      payload;
      tel = t.telemetry;
    }
  in
  let hash = Ecmp.flow_hash ~group ~sender in
  (* Every later stage is the sender's wire from that stage's offset, so a
     hop carries that suffix rounded up to a byte, and a switch parses only
     its own section, at that offset in the one wire: each section at most
     once per packet, by the first switch that reads it. Nothing is kept
     across packets. *)
  let wire = Header_codec.wire_bytes w in
  let stage_bytes stage =
    (Header_codec.wire_bits w - Header_codec.stage_offset w stage + 7) / 8
  in
  let section stage read =
    lazy
      (let r = Bitio.Reader.of_bytes wire in
       Bitio.Reader.seek r (Header_codec.stage_offset w stage);
       read r)
  in
  let u_spine = section Header_codec.After_u_leaf (Header_codec.read_u_spine topo) in
  let core = section Header_codec.After_u_spine (Header_codec.read_core topo) in
  let d_spine =
    section Header_codec.After_core (Header_codec.read_section topo `Spine)
  in
  let d_leaf =
    section Header_codec.After_d_spine (Header_codec.read_section topo `Leaf)
  in
  let sl = Topology.leaf_of_host topo sender in
  let sp = Topology.pod_of_leaf topo sl in

  (* Downstream leaf: parse the d_leaf section and forward. *)
  let at_leaf_down leaf =
    let rules, default = Lazy.force d_leaf in
    let fb =
      match_rule ~legacy:t.leaf_legacy.(leaf) rules leaf t.leaf_tables.(leaf)
        group default
    in
    match fb with
    | None -> ()
    | Some bm ->
        Bitmap.iter
          (fun port ->
            deliver acc ~src:(Leaf_node leaf)
              ((leaf * topo.Topology.hosts_per_leaf) + port))
          bm
  in
  (* Downstream spine (physical [s]) in pod [p]. *)
  let at_spine_down s p =
    let rules, default = Lazy.force d_spine in
    let fb =
      match_rule ~legacy:t.spine_legacy.(s) rules p t.spine_tables.(s) group
        default
    in
    match fb with
    | None -> ()
    | Some bm ->
        let to_leaf = stage_bytes Header_codec.After_d_spine in
        let plane = s mod topo.Topology.spines_per_pod in
        Bitmap.iter
          (fun port ->
            let leaf = (p * topo.Topology.leaves_per_pod) + port in
            hop acc ~src:(Spine_node s) ~dst:(Leaf_node leaf) to_leaf;
            if link_ok t ~leaf ~plane then at_leaf_down leaf
            else acc.lost <- acc.lost + 1)
          bm
  in
  let at_core c =
    if not t.core_up.(c) then acc.lost <- acc.lost + 1
    else begin
      match Lazy.force core with
      | None -> ()
      | Some bm ->
          let plane = c / topo.Topology.cores_per_plane in
          let to_spine = stage_bytes Header_codec.After_core in
          Bitmap.iter
            (fun p ->
              let s = (p * topo.Topology.spines_per_pod) + plane in
              hop acc ~src:(Core_node c) ~dst:(Spine_node s) to_spine;
              if t.spine_up.(s) then at_spine_down s p
              else acc.lost <- acc.lost + 1)
            bm
    end
  in
  (* Sender-pod spine (physical [s]): upstream processing. *)
  let at_spine_up s =
    if not t.spine_up.(s) then acc.lost <- acc.lost + 1
    else begin
      match Lazy.force u_spine with
      | None -> ()
      | Some u ->
          let to_leaf = stage_bytes Header_codec.After_d_spine in
          let plane = s mod topo.Topology.spines_per_pod in
          Bitmap.iter
            (fun port ->
              let leaf = (sp * topo.Topology.leaves_per_pod) + port in
              hop acc ~src:(Spine_node s) ~dst:(Leaf_node leaf) to_leaf;
              if link_ok t ~leaf ~plane then at_leaf_down leaf
              else acc.lost <- acc.lost + 1)
            u.Prule.down;
          let to_core = stage_bytes Header_codec.After_u_spine in
          let send_core c =
            hop acc ~src:(Spine_node s) ~dst:(Core_node c) to_core;
            at_core c
          in
          if u.Prule.multipath then begin
            if topo.Topology.cores_per_plane > 0 then
              send_core (Ecmp.core_choice topo ~hash ~plane)
          end
          else
            Bitmap.iter
              (fun port -> send_core ((plane * topo.Topology.cores_per_plane) + port))
              u.Prule.up
    end
  in
  (* Sender leaf: upstream processing of the full header. *)
  let at_leaf_up () =
    let u = Header_codec.read_u_leaf topo (Bitio.Reader.of_bytes wire) in
    Bitmap.iter
      (fun port ->
        deliver acc ~src:(Leaf_node sl)
          ((sl * topo.Topology.hosts_per_leaf) + port))
      u.Prule.down;
    let to_spine = stage_bytes Header_codec.After_u_leaf in
    let send_spine s =
      hop acc ~src:(Leaf_node sl) ~dst:(Spine_node s) to_spine;
      if link_ok t ~leaf:sl ~plane:(s mod topo.Topology.spines_per_pod) then
        at_spine_up s
      else acc.lost <- acc.lost + 1
    in
    if u.Prule.multipath then
      send_spine ((sp * topo.Topology.spines_per_pod) + Ecmp.spine_choice topo ~hash)
    else if not (Bitmap.is_empty u.Prule.up) then
      Bitmap.iter
        (fun port -> send_spine ((sp * topo.Topology.spines_per_pod) + port))
        u.Prule.up
  in
  hop acc ~src:(Host_node sender) ~dst:(Leaf_node sl) (Bytes.length wire);
  at_leaf_up ();
  (match t.telemetry with
  | None -> ()
  | Some tel ->
      tel.tel_packet ~group ~sender
        ~bytes:((payload * acc.transmissions) + acc.header_bytes));
  let delivered =
    Hashtbl.fold (fun h n l -> (h, n) :: l) acc.hosts []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  {
    delivered;
    transmissions = acc.transmissions;
    header_bytes = acc.header_bytes;
    lost = acc.lost;
    trace = List.rev acc.trace;
  }

let inject t ~sender ~group ~header ~payload =
  inject_wire t ~sender ~group ~wire:(Header_codec.to_wire t.topo header) ~payload

let deliveries_correct report ~tree ~sender =
  let expected =
    Tree.member_list tree |> List.filter (fun h -> h <> sender)
  in
  List.for_all
    (fun h ->
      match List.assoc_opt h report.delivered with
      | Some 1 -> true
      | Some _ | None -> false)
    expected
