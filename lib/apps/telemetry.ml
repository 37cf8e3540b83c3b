type mode = Unicast | Elmo

type measurement = {
  collectors : int;
  datagrams_per_export : int;
  egress_kbps : float;
  all_delivered : bool;
}

let per_stream_kbps = 5.8

let run fabric ~agent ~collectors mode =
  if collectors = [] then invalid_arg "Telemetry.run: no collectors";
  if Int_list.mem agent collectors then
    invalid_arg "Telemetry.run: agent cannot collect from itself";
  let topo = Fabric.topology fabric in
  let n = List.length collectors in
  let tree = Tree.of_members topo collectors in
  match mode with
  | Unicast ->
      let cost = Unicast_overlay.unicast tree ~sender:agent in
      {
        collectors = n;
        datagrams_per_export = cost.Unicast_overlay.source_packets;
        egress_kbps =
          per_stream_kbps *. float_of_int cost.Unicast_overlay.source_packets;
        all_delivered = true;
      }
  | Elmo ->
      let params = Params.default in
      let srules = Srule_state.create topo ~fmax:params.Params.fmax in
      let enc = Encoding.encode params srules tree in
      let group = 0x8000 + n in
      Fabric.install_encoding fabric ~group enc;
      let header = Encoding.header_for_sender enc ~sender:agent in
      let report = Fabric.inject fabric ~sender:agent ~group ~header ~payload:256 in
      Fabric.remove_encoding fabric ~group enc;
      {
        collectors = n;
        datagrams_per_export = 1;
        egress_kbps = per_stream_kbps;
        all_delivered = Fabric.deliveries_correct report ~tree ~sender:agent;
      }

let sweep fabric ~agent ~collectors mode sizes =
  List.map
    (fun size ->
      if size <= 0 || size > List.length collectors then
        invalid_arg "Telemetry.sweep: size out of range";
      let cs = List.filteri (fun i _ -> i < size) collectors in
      run fabric ~agent ~collectors:cs mode)
    sizes
