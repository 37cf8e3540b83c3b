(* Multicast traceroute (§7 "Monitoring"): the paper notes that in-band
   telemetry makes multicast debuggable — every copy of a packet can report
   the path it took. The simulated fabric records exactly that: tracing a
   packet returns an INT-style per-hop trace of the whole replication tree,
   including how many Elmo header bytes each hop still carried (watch them
   shrink as layers pop). Injecting the same packet reports what it
   delivered; the trace is the same walk.

   Run with: dune exec examples/mtrace.exe *)

let () =
  let topo = Topology.running_example () in
  let h = topo.Topology.hosts_per_leaf in
  let members = [ 0; 1; (5 * h) + 2; (6 * h) + 4; (6 * h) + 5; (7 * h) + 7 ] in
  let tree = Tree.of_members topo members in
  let srules = Srule_state.create topo ~fmax:100 in
  let enc = Encoding.encode Params.default srules tree in
  let fabric = Fabric.create topo in
  Fabric.install_encoding fabric ~group:3 enc;
  let header = Encoding.header_for_sender enc ~sender:0 in
  let report = Fabric.inject fabric ~sender:0 ~group:3 ~header ~payload:64 in
  let hops = Fabric.trace fabric ~sender:0 ~group:3 ~header in

  Format.printf "mtrace for group 3 from host 0 (%d members):@.@."
    (Tree.member_count tree);
  Format.printf "%a" Fabric.pp_trace hops;
  Format.printf
    "@.%d link traversals, %d receivers, header shrank from %d bytes to 0 on \
     every root-to-host path.@."
    report.Fabric.transmissions
    (List.length report.Fabric.delivered)
    (match hops with
    | first :: _ -> first.Fabric.hop_header_bytes
    | [] -> 0);
  assert (List.length hops = report.Fabric.transmissions);
  assert (Fabric.deliveries_correct report ~tree ~sender:0)
