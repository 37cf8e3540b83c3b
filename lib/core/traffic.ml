type counts = {
  transmissions : int;
  ideal_transmissions : int;
  header_bytes : int;
  delivered_hosts : int;
  spurious_hosts : int;
}

let measure enc ~sender =
  let tree = enc.Encoding.tree in
  let topo = tree.Tree.topo in
  let header = Encoding.header_for_sender enc ~sender in
  let bytes bits = (bits + 7) / 8 in
  let full = Prule.header_bits topo header in
  let after layer = Prule.remaining_bits_after topo header layer in
  let transmissions = ref 0 in
  let header_bytes = ref 0 in
  let delivered = ref 0 in
  let spurious = ref 0 in
  let hop n hbits =
    transmissions := !transmissions + n;
    header_bytes := !header_bytes + (n * bytes hbits)
  in
  (* Deliveries at the leaf in tree slot [slot] (-1 off the tree)
     forwarding on bitmap [fb]: split into members and spurious using the
     exact tree bitmap. Headers towards hosts are stripped by the leaf
     egress (§4.1). *)
  let deliver_at_leaf slot fb =
    let n = Bitmap.popcount fb in
    hop n 0;
    let members =
      if slot < 0 then 0
      else Bitmap.popcount (Bitmap.inter fb tree.Tree.leaf_bms.(slot))
    in
    delivered := !delivered + members;
    spurious := !spurious + (n - members)
  in
  (* Every tree leaf sits in exactly one rule, whose bitmap its slot's
     dispatch holds. A leaf off the tree is addressed by no rule: the switch
     falls back to the default p-rule if the header carries one, else
     drops. *)
  let leaf_forward l =
    let slot = Tree.leaf_slot tree l in
    if slot >= 0 then deliver_at_leaf slot enc.Encoding.idx_site_bm.(slot)
    else
      match enc.Encoding.d_leaf.Clustering.default with
      | Some (_, fb) -> deliver_at_leaf slot fb
      | None -> ()
  in
  let sl = Topology.leaf_of_host topo sender in
  let sp = Topology.pod_of_leaf topo sl in
  (* Hypervisor to sender leaf. *)
  hop 1 full;
  (* Local deliveries via the upstream leaf rule (exact by construction). *)
  let local = Bitmap.popcount header.Prule.u_leaf.Prule.down in
  hop local 0;
  delivered := !delivered + local;
  if header.Prule.u_leaf.Prule.multipath then begin
    (* Up to one pod spine. *)
    hop 1 (after `U_leaf);
    match header.Prule.u_spine with
    | None -> ()
    | Some u ->
        (* Down to the other member leaves of the sender pod; the spine pops
           everything but the d-leaf section towards a leaf. *)
        Bitmap.iter
          (fun port ->
            let l = (sp * topo.Topology.leaves_per_pod) + port in
            hop 1 (after `D_spine);
            leaf_forward l)
          u.Prule.down;
        if u.Prule.multipath then begin
          (* Up to one core. *)
          hop 1 (after `U_spine);
          match header.Prule.core with
          | None -> ()
          | Some core_bm ->
              Bitmap.iter
                (fun p ->
                  (* Core down to pod [p]'s logical spine. *)
                  hop 1 (after `Core);
                  let spine_fb =
                    match Clustering.assigned_bitmap enc.Encoding.d_spine p with
                    | Some fb -> Some fb
                    | None -> (
                        match enc.Encoding.d_spine.Clustering.default with
                        | Some (_, fb) -> Some fb
                        | None -> None)
                  in
                  match spine_fb with
                  | None -> ()
                  | Some fb ->
                      Bitmap.iter
                        (fun port ->
                          let l = (p * topo.Topology.leaves_per_pod) + port in
                          hop 1 (after `D_spine);
                          leaf_forward l)
                        fb)
                core_bm
        end
  end;
  {
    transmissions = !transmissions;
    ideal_transmissions = Tree.ideal_link_transmissions tree ~sender;
    header_bytes = !header_bytes;
    delivered_hosts = !delivered;
    spurious_hosts = !spurious;
  }

let vxlan_encap_bytes = 50

let overhead_ratio ?(encap = vxlan_encap_bytes) c ~payload =
  if payload <= 0 then invalid_arg "Traffic.overhead_ratio: payload"; (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
  if encap < 0 then invalid_arg "Traffic.overhead_ratio: encap"; (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
  let per_packet = payload + encap in
  let actual = (c.transmissions * per_packet) + c.header_bytes in
  let ideal = c.ideal_transmissions * per_packet in
  float_of_int (actual - ideal) /. float_of_int ideal
