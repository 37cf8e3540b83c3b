(* Only the wire is kept, not the header it came from: an install leaves
   the bytes and their stage offsets live, and the header's own bitmaps
   die young. *)
type rules = {
  wire : Header_codec.wire;  (* pre-serialized header, written in one call *)
  mutable parts : bytes list option;
      (* per-rule write units, built on first use by the unoptimized path *)
}

type bucket = {
  rate : float;  (* tokens per second *)
  burst : float;
  mutable tokens : float;
  mutable last : float;
}

type t = {
  fabric : Fabric.t;
  host : int;
  senders : (int, rules) Hashtbl.t;
  receivers : (int, int) Hashtbl.t;  (* group -> local member VMs *)
  limits : (int, bucket) Hashtbl.t;
  mutable policy_drops : int;
}

let create fabric ~host =
  let topo = Fabric.topology fabric in
  if host < 0 || host >= Topology.num_hosts topo then
    invalid_arg "Hypervisor.create: host out of range"; (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
  {
    fabric;
    host;
    senders = Hashtbl.create 16;
    receivers = Hashtbl.create 16;
    limits = Hashtbl.create 4;
    policy_drops = 0;
  }

let host t = t.host

let install_sender t ~group header =
  let topo = Fabric.topology t.fabric in
  Hashtbl.replace t.senders group
    { wire = Header_codec.to_wire topo header; parts = None }

let remove_sender t ~group = Hashtbl.remove t.senders group

let install_receiver t ~group ~vms =
  if vms <= 0 then invalid_arg "Hypervisor.install_receiver: vms"; (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
  Hashtbl.replace t.receivers group vms

let remove_receiver t ~group = Hashtbl.remove t.receivers group

let set_rate_limit t ~group ~packets_per_second ~burst =
  if packets_per_second <= 0.0 || burst <= 0 then
    invalid_arg "Hypervisor.set_rate_limit"; (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
  Hashtbl.replace t.limits group
    {
      rate = packets_per_second;
      burst = float_of_int burst;
      tokens = float_of_int burst;
      last = 0.0;
    }

let clear_rate_limit t ~group = Hashtbl.remove t.limits group

let admit t ~group ~now =
  match Hashtbl.find_opt t.limits group with
  | None -> true
  | Some b ->
      let elapsed = Float.max 0.0 (now -. b.last) in
      b.tokens <- Float.min b.burst (b.tokens +. (elapsed *. b.rate));
      b.last <- now;
      if b.tokens >= 1.0 then begin
        b.tokens <- b.tokens -. 1.0;
        true
      end
      else begin
        t.policy_drops <- t.policy_drops + 1;
        false
      end

let policy_drops t = t.policy_drops

let sender_groups t =
  Hashtbl.fold (fun g _ acc -> g :: acc) t.senders [] |> List.sort compare

let flow_rules t = Hashtbl.length t.senders + Hashtbl.length t.receivers

let encap t ~group ~payload =
  match Hashtbl.find_opt t.senders group with
  | None -> None
  | Some r ->
      let blob = Header_codec.wire_bytes r.wire in
      let hl = Bytes.length blob in
      let packet = Bytes.create (hl + Bytes.length payload) in
      Bytes.blit blob 0 packet 0 hl;
      Bytes.blit payload 0 packet hl (Bytes.length payload);
      Some packet

let encap_per_rule t ~group ~payload =
  match Hashtbl.find_opt t.senders group with
  | None -> None
  | Some r ->
      let parts =
        match r.parts with
        | Some parts -> parts
        | None ->
            let topo = Fabric.topology t.fabric in
            let parts =
              Header_codec.encode_parts topo
                (Header_codec.decode topo (Header_codec.wire_bytes r.wire))
            in
            r.parts <- Some parts;
            parts
      in
      let hl = List.fold_left (fun acc p -> acc + Bytes.length p) 0 parts in
      let packet = Bytes.create (hl + Bytes.length payload) in
      let pos = ref 0 in
      List.iter
        (fun part ->
          Bytes.blit part 0 packet !pos (Bytes.length part);
          pos := !pos + Bytes.length part)
        parts;
      Bytes.blit payload 0 packet !pos (Bytes.length payload);
      Some packet

(* Outer addressing derived from the host id: deterministic, collision-free
   within a fabric. *)
let mac_of_host h = 0x020000000000 lor h
let ip_of_host h = Int32.of_int (0x0A000000 lor h)

let encap_vxlan t ~group ~payload =
  match encap t ~group ~payload with
  | None -> None
  | Some inner ->
      let vx =
        {
          Vxlan.src_mac = mac_of_host t.host;
          dst_mac = 0x01005E000000 lor (group land 0x7FFFFF);
          src_ip = ip_of_host t.host;
          dst_ip = Int32.of_int (0xE0000000 lor (group land 0xFFFFFF));
          src_port = 49152 + (Ecmp.flow_hash ~group ~sender:t.host mod 16384);
          vni = group land Vxlan.max_vni;
        }
      in
      Some (Vxlan.encode vx ~inner)

let decap_vxlan t packet =
  match Vxlan.decode packet with
  | Error _ -> None
  | Ok (vx, inner) -> (
      let group = vx.Vxlan.vni in
      match Hashtbl.find_opt t.receivers group with
      | None -> None
      | Some vms ->
          (* The network leaf strips the Elmo stack before the host (4.1);
             packets built by encap_vxlan still carry it. Its length is
             parsed from the packet: this host's own rules, if any, may
             hold a header of another size. *)
          let topo = Fabric.topology t.fabric in
          match Header_codec.header_length topo inner with
          | exception Bitio.Reader.Truncated -> None
          | header_len ->
              let payload =
                Bytes.sub inner header_len (Bytes.length inner - header_len)
              in
              Some (group, vms, payload))

(* [find], not [find_opt]: a send allocates only the fabric's report. *)
let send t ~group ~payload =
  match Hashtbl.find t.senders group with
  | exception Not_found -> None
  | r -> Some (Fabric.inject_wire t.fabric ~sender:t.host ~group ~wire:r.wire ~payload)

let deliver t ~group =
  Option.value ~default:0 (Hashtbl.find_opt t.receivers group)
