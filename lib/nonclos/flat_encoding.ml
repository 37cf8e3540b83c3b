module Flat_tree = struct
  type t = {
    topo : Graph_topology.t;
    root : int;
    bitmaps : (int * Bitmap.t) list;
    members : int array;
  }

  let of_members topo ~root member_list =
    if member_list = [] then invalid_arg "Flat_tree.of_members: empty group";
    let members = Array.of_list (List.sort_uniq compare member_list) in
    Array.iter
      (fun h ->
        if h < 0 || h >= Graph_topology.num_hosts topo then
          invalid_arg "Flat_tree.of_members: host out of range")
      members;
    let parents = Graph_topology.bfs_parents topo ~root in
    let width = Graph_topology.port_width topo in
    let tbl = Hashtbl.create 64 in
    let bitmap_of s =
      match Hashtbl.find_opt tbl s with
      | Some bm -> bm
      | None ->
          let bm = Bitmap.create width in
          Hashtbl.add tbl s bm;
          bm
    in
    (* Walk each member's path to the root, marking child-facing ports. *)
    Array.iter
      (fun h ->
        let s = Graph_topology.switch_of_host topo h in
        Bitmap.set (bitmap_of s) (Graph_topology.host_port topo h);
        let rec up child =
          let parent = parents.(child) in
          if parent >= 0 then begin
            let bm = bitmap_of parent in
            let port = Graph_topology.port_towards topo ~switch:parent ~neighbour:child in
            if not (Bitmap.get bm port) then begin
              Bitmap.set bm port;
              up parent
            end
            else ()
            (* already marked: the rest of the path is shared *)
          end
        in
        up s)
      members;
    let bitmaps =
      Hashtbl.fold (fun s bm acc -> (s, bm) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    { topo; root; bitmaps; members }

  let transmissions t =
    (* Sender-host uplink + one traversal per set bit (each network bit is a
       switch-to-switch link, each host bit a delivery). *)
    1 + List.fold_left (fun acc (_, bm) -> acc + Bitmap.popcount bm) 0 t.bitmaps
end

type t = { tree : Flat_tree.t; rules : Clustering.result }

let encode ?(r = 0) ?(semantics = Params.Sum) ?(hmax = 64) ?(kmax = 2) _topo
    (tree : Flat_tree.t) =
  let rules =
    Clustering.run ~r ~semantics ~hmax ~kmax
      ~has_srule_space:(fun _ -> false)
      (Array.of_list (List.map fst tree.Flat_tree.bitmaps))
      (Array.of_list (List.map snd tree.Flat_tree.bitmaps))
  in
  { tree; rules }

let header_bits t =
  let topo = t.tree.Flat_tree.topo in
  let width = Graph_topology.port_width topo in
  let idb = Graph_topology.id_bits topo in
  let rule_bits r = 1 + width + (List.length r.Prule.switches * (idb + 1)) in
  let rules = List.fold_left (fun acc r -> acc + rule_bits r) 0 t.rules.Clustering.prules in
  let default =
    match t.rules.Clustering.default with Some _ -> 1 + width | None -> 1
  in
  rules + 1 + default

let header_bytes t = (header_bits t + 7) / 8

let switches_per_rule t =
  match t.rules.Clustering.prules with
  | [] -> 0.0
  | prules ->
      let switches =
        List.fold_left (fun acc r -> acc + List.length r.Prule.switches) 0 prules
      in
      float_of_int switches /. float_of_int (List.length prules)

let covered t = Option.is_none t.rules.Clustering.default
