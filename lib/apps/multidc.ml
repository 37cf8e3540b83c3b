type dc = { fabric : Fabric.t; srules : Srule_state.t }

type group_state = {
  members : (int * int) list;  (* (dc, host) *)
  encodings : (int * Encoding.t) list;  (* dc -> local encoding *)
}

type t = {
  params : Params.t;
  dcs : dc array;
  groups : (int, group_state) Hashtbl.t;
}

let create params fabrics =
  if List.is_empty fabrics then invalid_arg "Multidc.create: no datacenters";
  {
    params;
    dcs =
      Array.of_list
        (List.map
           (fun fabric ->
             {
               fabric;
               srules =
                 Srule_state.create (Fabric.topology fabric)
                   ~fmax:params.Params.fmax;
             })
           fabrics);
    groups = Hashtbl.create 16;
  }

let datacenters t = Array.length t.dcs

let local_members st dc = List.filter_map
    (fun (d, h) -> if d = dc then Some h else None)
    st.members

let relay_of st dc =
  match local_members st dc with [] -> None | h :: _ -> Some h

let add_group t ~group members =
  if Hashtbl.mem t.groups group then invalid_arg "Multidc.add_group: group exists";
  if List.length (List.sort_uniq compare members) <> List.length members then
    invalid_arg "Multidc.add_group: duplicate member";
  List.iter
    (fun (d, _) ->
      if d < 0 || d >= Array.length t.dcs then
        invalid_arg "Multidc.add_group: unknown datacenter")
    members;
  let st = { members = List.sort compare members; encodings = [] } in
  let encodings =
    List.filter_map
      (fun dc_idx ->
        match local_members st dc_idx with
        | [] -> None
        | hosts ->
            let dc = t.dcs.(dc_idx) in
            let tree = Tree.of_members (Fabric.topology dc.fabric) hosts in
            let enc = Encoding.encode t.params dc.srules tree in
            Fabric.install_encoding dc.fabric ~group enc;
            Some (dc_idx, enc))
      (List.init (Array.length t.dcs) Fun.id)
  in
  Hashtbl.replace t.groups group { st with encodings }

let remove_group t ~group =
  match Hashtbl.find_opt t.groups group with
  | None -> ()
  | Some st ->
      List.iter
        (fun (dc_idx, enc) ->
          let dc = t.dcs.(dc_idx) in
          Fabric.remove_encoding dc.fabric ~group enc;
          Encoding.release dc.srules enc)
        st.encodings;
      Hashtbl.remove t.groups group

type send_report = {
  local : Fabric.report;
  wan_unicasts : int;
  remote : (int * Fabric.report) list;
}

let find_group t group =
  match Hashtbl.find_opt t.groups group with
  | Some st -> st
  | None -> raise Not_found

let multicast t st ~dc_idx ~sender ~group =
  let enc = Int_list.assoc dc_idx st.encodings in
  let header = Encoding.header_for_sender enc ~sender in
  Fabric.inject t.dcs.(dc_idx).fabric ~sender ~group ~header ~payload:0

let send t ~group ~sender_dc ~sender =
  let st = find_group t group in
  if sender_dc < 0 || sender_dc >= Array.length t.dcs then
    invalid_arg "Multidc.send: unknown datacenter";
  let local =
    if Int_list.mem_assoc sender_dc st.encodings then
      multicast t st ~dc_idx:sender_dc ~sender ~group
    else
      { Fabric.delivered = []; transmissions = 0; header_bytes = 0; lost = 0 }
  in
  let remote_dcs =
    List.filter (fun (d, _) -> d <> sender_dc) st.encodings |> List.map fst
  in
  let remote =
    List.map
      (fun dc_idx ->
        let relay = Option.get (relay_of st dc_idx) in
        (* The relay hypervisor re-multicasts; it does not redeliver to its
           own VM (it consumed the WAN copy). *)
        (dc_idx, multicast t st ~dc_idx ~sender:relay ~group))
      remote_dcs
  in
  { local; wan_unicasts = List.length remote_dcs; remote }

let deliveries_correct t ~group ~sender_dc ~sender report =
  let st = find_group t group in
  let got dc host =
    if dc = sender_dc then
      Option.value ~default:0 (Int_list.assoc_opt host report.local.Fabric.delivered)
    else begin
      match Int_list.assoc_opt dc report.remote with
      | None -> 0
      | Some r ->
          let relay = Option.get (relay_of st dc) in
          let wan = if host = relay then 1 else 0 in
          wan + Option.value ~default:0 (Int_list.assoc_opt host r.Fabric.delivered)
    end
  in
  List.for_all
    (fun (dc, host) ->
      if dc = sender_dc && host = sender then true else got dc host = 1)
    st.members
