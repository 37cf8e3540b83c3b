type cost = { transmissions : int; source_packets : int }

let path_links topo ~src ~dst =
  if src = dst then 0
  else begin
    let sl = Topology.leaf_of_host topo src in
    let dl = Topology.leaf_of_host topo dst in
    if sl = dl then 2
    else if Topology.pod_of_leaf topo sl = Topology.pod_of_leaf topo dl then 4
    else 6
  end

let unicast tree ~sender =
  let topo = tree.Tree.topo in
  let transmissions = ref 0 in
  let copies = ref 0 in
  Tree.iter_members
    (fun h ->
      if h <> sender then begin
        transmissions := !transmissions + path_links topo ~src:sender ~dst:h;
        incr copies
      end)
    tree;
  { transmissions = !transmissions; source_packets = !copies }

let overlay tree ~sender =
  let topo = tree.Tree.topo in
  let sl = Topology.leaf_of_host topo sender in
  let transmissions = ref 0 in
  let source_packets = ref 0 in
  Array.iteri
    (fun s leaf ->
      let members =
        Bitmap.to_list tree.Tree.leaf_bms.(s)
        |> List.map (fun port -> (leaf * topo.Topology.hosts_per_leaf) + port)
        |> List.filter (fun h -> h <> sender)
      in
      match members with
      | [] -> ()
      | relay :: rest ->
          if leaf = sl then begin
            (* The source relays for its own leaf: direct local unicasts. *)
            List.iter
              (fun h ->
                transmissions := !transmissions + path_links topo ~src:sender ~dst:h;
                incr source_packets)
              (relay :: rest)
          end
          else begin
            (* One copy to the relay, which fans out under its leaf. *)
            transmissions := !transmissions + path_links topo ~src:sender ~dst:relay;
            incr source_packets;
            List.iter
              (fun h ->
                transmissions := !transmissions + path_links topo ~src:relay ~dst:h)
              rest
          end)
    tree.Tree.leaf_ids;
  { transmissions = !transmissions; source_packets = !source_packets }

let overhead_vs_ideal tree ~sender cost =
  let ideal = Tree.ideal_link_transmissions tree ~sender in
  float_of_int (cost.transmissions - ideal) /. float_of_int ideal
