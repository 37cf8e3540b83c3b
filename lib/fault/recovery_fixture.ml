let churn ?checkpoint_at ~snapshot_every ~events ~seed () =
  let topo = Topology.running_example () in
  let params =
    Params.create ~hmax_leaf:1 ~hmax_spine:1 ~header_budget:None ~fmax:6 ()
  in
  let fabric = Fabric.create topo in
  let replica =
    Replica.create ~snapshot_every
      ~fabric_hooks:(Fabric.controller_hooks_at fabric ~epoch:0)
      topo params
  in
  let rng = Rng.create seed in
  let n = Topology.num_hosts topo in
  let ngroups = 4 in
  let member = Array.init ngroups (fun _ -> Array.make n false) in
  let size g =
    Array.fold_left (fun a m -> if m then a + 1 else a) 0 member.(g)
  in
  for g = 0 to ngroups - 1 do
    let members =
      List.init (4 + Rng.int rng 8) (fun _ -> Rng.int rng n)
      |> List.sort_uniq Int.compare
    in
    List.iter (fun h -> member.(g).(h) <- true) members;
    Replica.apply replica
      (Journal.Add_group
         { group = g; members = List.map (fun h -> (h, Controller.Both)) members })
  done;
  let spines = Topology.num_spines topo in
  let spine_down = Array.make spines false in
  for i = 1 to events do
    (match checkpoint_at with
    | Some c when c = i -> Replica.checkpoint replica
    | Some _ | None -> ());
    let g = Rng.int rng ngroups and h = Rng.int rng n in
    match Rng.int rng 8 with
    | 0 when size g > 2 && member.(g).(h) ->
        member.(g).(h) <- false;
        Replica.apply replica (Journal.Leave { group = g; host = h })
    | 1 ->
        let s = Rng.int rng spines in
        spine_down.(s) <- not spine_down.(s);
        Replica.apply replica
          (if spine_down.(s) then Journal.Fail_spine s
           else Journal.Recover_spine s)
    | _ when not member.(g).(h) ->
        member.(g).(h) <- true;
        Replica.apply replica
          (Journal.Join { group = g; host = h; role = Controller.Both })
    | _ -> ()
  done;
  Option.get (Replica.wire replica)
