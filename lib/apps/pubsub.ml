type mode = Unicast | Elmo

type measurement = {
  subscribers : int;
  packets_per_message : int;
  fabric_transmissions : int;
  throughput_rps : float;
  cpu_percent : float;
  all_delivered : bool;
}

let single_subscriber_rps = 185_000.0
let base_cpu_percent = 4.9

(* Linear per-stream CPU cost fitted to the paper's 32% at 64 subscribers. *)
let per_stream_cpu = (32.0 -. base_cpu_percent) /. 63.0

let derive_rates ~streams ~packets_per_message =
  let throughput = single_subscriber_rps /. float_of_int packets_per_message in
  let cpu =
    Float.min 100.0 (base_cpu_percent +. (per_stream_cpu *. float_of_int (streams - 1)))
  in
  (throughput, cpu)

let check_subscribers ~publisher subscribers =
  if subscribers = [] then invalid_arg "Pubsub.run: no subscribers";
  if Int_list.mem publisher subscribers then
    invalid_arg "Pubsub.run: publisher cannot subscribe to itself";
  if
    List.length (List.sort_uniq compare subscribers)
    <> List.length subscribers
  then invalid_arg "Pubsub.run: duplicate subscriber"

let run fabric ~publisher ~subscribers mode =
  check_subscribers ~publisher subscribers;
  let topo = Fabric.topology fabric in
  let n = List.length subscribers in
  let tree = Tree.of_members topo subscribers in
  match mode with
  | Unicast ->
      let cost = Unicast_overlay.unicast tree ~sender:publisher in
      let throughput_rps, cpu_percent =
        derive_rates ~streams:n ~packets_per_message:cost.Unicast_overlay.source_packets
      in
      {
        subscribers = n;
        packets_per_message = cost.Unicast_overlay.source_packets;
        fabric_transmissions = cost.Unicast_overlay.transmissions;
        throughput_rps;
        cpu_percent;
        all_delivered = true;
      }
  | Elmo ->
      let params = Params.default in
      let srules = Srule_state.create topo ~fmax:params.Params.fmax in
      let enc = Encoding.encode params srules tree in
      let group = 0x7000 + n in
      Fabric.install_encoding fabric ~group enc;
      let header = Encoding.header_for_sender enc ~sender:publisher in
      let report =
        Fabric.inject fabric ~sender:publisher ~group ~header ~payload:100
      in
      Fabric.remove_encoding fabric ~group enc;
      let throughput_rps, cpu_percent =
        (* One multicast stream regardless of group size. *)
        derive_rates ~streams:1 ~packets_per_message:1
      in
      {
        subscribers = n;
        packets_per_message = 1;
        fabric_transmissions = report.Fabric.transmissions;
        throughput_rps;
        cpu_percent;
        all_delivered =
          Fabric.deliveries_correct report ~tree ~sender:publisher;
      }

let sweep fabric ~publisher ~subscribers mode sizes =
  List.map
    (fun size ->
      if size <= 0 || size > List.length subscribers then
        invalid_arg "Pubsub.sweep: size out of range";
      let subs = List.filteri (fun i _ -> i < size) subscribers in
      run fabric ~publisher ~subscribers:subs mode)
    sizes
