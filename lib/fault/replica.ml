module Obs = Elmo_obs.Obs

type t = {
  fabric_hooks : Controller.fabric_hooks option;
  snapshot_every : int;
  mutable ctrl : Controller.t;
  journal : Journal.t;
  mutable snap : Controller.snapshot;
  mutable snap_at : int;  (* journal position the snapshot covers *)
  mutable wire : Wire.t option;
  mutable epoch : int;  (* fencing epoch stamped on appended records *)
}

let checkpoint t =
  t.snap <- Controller.snapshot t.ctrl;
  t.snap_at <- Journal.length t.journal;
  (match t.wire with
  | Some w -> Wire.append_snapshot w ~epoch:t.epoch t.snap
  | None -> ());
  Obs.incr "replica.checkpoints"

let create ?(snapshot_every = 64) ?fabric_hooks ?(incremental = true)
    ?(durable = false) ?observer topo params =
  let ctrl = Controller.create ?fabric_hooks ~incremental topo params in
  let snap = Controller.snapshot ctrl in
  let wire =
    if not durable then None
    else begin
      (* Genesis snapshot: the wire is self-contained from byte 0 — a log
         that loses every later snapshot still recovers from here. *)
      let w = Wire.create () in
      Wire.append_snapshot w ~epoch:0 snap;
      Some w
    end
  in
  {
    fabric_hooks;
    snapshot_every;
    ctrl;
    journal = Journal.create ?observer ();
    snap;
    snap_at = 0;
    wire;
    epoch = 0;
  }

let controller t = t.ctrl
let journal t = t.journal
let wire t = t.wire
let epoch t = t.epoch

let set_epoch t e =
  if e < t.epoch then invalid_arg "Replica.set_epoch: epoch regression";
  t.epoch <- e

(* The pods an op can touch, computed against the {e pre-op} controller
   state. Group ops are tagged with the pods of every member host (senders
   included: sender-side upstream state and failure overrides live in the
   sender's pod); spine and link events belong to the pod that owns the
   switch, since only flows with a member in that pod traverse it; core
   events are global — any cross-pod group may route through the core. *)
let pods_of_op t op =
  let topo = Controller.topology t.ctrl in
  let pod_of_host h = Topology.pod_of_host topo h in
  let member_pods group =
    match Controller.members t.ctrl ~group with
    | ms -> List.map (fun (h, _) -> pod_of_host h) ms
    | exception Not_found -> []
  in
  match op with
  | Journal.Add_group { members; _ } ->
      Some (List.sort_uniq Int.compare (List.map (fun (h, _) -> pod_of_host h) members))
  | Journal.Remove_group { group } ->
      Some (List.sort_uniq Int.compare (member_pods group))
  | Journal.Join { group; host; _ } | Journal.Leave { group; host } ->
      Some (List.sort_uniq Int.compare (pod_of_host host :: member_pods group))
  | Journal.Fail_spine s | Journal.Recover_spine s ->
      Some [ s / topo.Topology.spines_per_pod ]
  | Journal.Fail_link { leaf; _ } | Journal.Recover_link { leaf; _ } ->
      Some [ Topology.pod_of_leaf topo leaf ]
  | Journal.Fail_core _ | Journal.Recover_core _ -> None

let apply t op =
  let pods = pods_of_op t op in
  Journal.append ?pods t.journal op;
  (* Write-ahead: the op record is durable before execution, so a crash
     mid-execute replays it rather than losing it. *)
  (match t.wire with
  | Some w -> Wire.append_op w ~epoch:t.epoch { Journal.e_op = op; e_pods = pods }
  | None -> ());
  Journal.apply t.ctrl op;
  if Journal.length t.journal - t.snap_at >= t.snapshot_every then
    checkpoint t

let recovered t =
  Obs.with_span "replica.recover" (fun () ->
      let ctrl = Controller.restore ?fabric_hooks:t.fabric_hooks t.snap in
      let suffix = Journal.suffix t.journal ~from:t.snap_at in
      List.iter (Journal.apply ctrl) suffix;
      Obs.observe "replica.replayed_ops" (float_of_int (List.length suffix));
      ctrl)

(* Shard-scoped recovery: replay only the suffix ops that can touch
   [pod]'s shard — its transitive component. Connectivity must be
   transitive because group ops chain: a join's tag shares pods with the
   preceding membership ops of the same group, so any op affecting a
   component group pulls in the whole chain that built that group's
   state. Global (untagged) ops always replay. For every group whose
   members stay inside the component, the recovered controller is
   bit-identical to a full {!recovered} — skipped ops touch only disjoint
   pods, which the per-pod commit confinement keeps invisible to the
   component (global counters and out-of-component groups may differ). *)
let recover_shard t ~pod =
  Obs.with_span "replica.recover_shard" ~attrs:[ ("pod", Obs.Int pod) ]
  @@ fun () ->
  let ctrl = Controller.restore ?fabric_hooks:t.fabric_hooks t.snap in
  let topo = Controller.topology ctrl in
  let suffix = Journal.suffix_entries t.journal ~from:t.snap_at in
  let in_comp = Array.make topo.Topology.pods false in
  in_comp.(pod) <- true;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun e ->
        match e.Journal.e_pods with
        | None -> ()
        | Some ps ->
            if List.exists (fun p -> in_comp.(p)) ps then
              List.iter
                (fun p ->
                  if not in_comp.(p) then begin
                    in_comp.(p) <- true;
                    changed := true
                  end)
                ps)
      suffix
  done;
  let relevant e =
    match e.Journal.e_pods with
    | None -> true
    | Some ps -> List.exists (fun p -> in_comp.(p)) ps
  in
  let replayed = ref 0 in
  List.iter
    (fun e ->
      if relevant e then begin
        incr replayed;
        Journal.apply ctrl e.Journal.e_op
      end)
    suffix;
  Obs.observe "replica.shard_replayed_ops" (float_of_int !replayed);
  Obs.observe "replica.shard_skipped_ops"
    (float_of_int (List.length suffix - !replayed));
  ctrl

let crash t = t.ctrl <- recovered t

let installed_config t = Controller.installed_config t.ctrl

let last_snapshot t = t.snap

let of_wire ?(snapshot_every = 64) ?fabric_hooks ?observer ?epoch
    (l : Wire.loaded) =
  match l.Wire.l_snapshot with
  | None -> Error "wire log has no recoverable snapshot"
  | Some snap -> (
      let epoch = match epoch with Some e -> e | None -> l.Wire.l_epoch in
      if epoch < l.Wire.l_epoch then
        Error
          (Printf.sprintf "epoch %d regresses below the log's epoch %d" epoch
             l.Wire.l_epoch)
      else
        match
          Obs.with_span "replica.of_wire" @@ fun () ->
          let ctrl = Controller.restore ?fabric_hooks snap in
          let journal = Journal.create ?observer () in
          (* Re-append the suffix through the journal so the observer (the
             flight recorder) sees every replayed op, then execute it. *)
          List.iter
            (fun e ->
              Journal.append ?pods:e.Journal.e_pods journal e.Journal.e_op;
              Journal.apply ctrl e.Journal.e_op)
            l.Wire.l_suffix;
          Obs.observe "replica.replayed_ops"
            (float_of_int (List.length l.Wire.l_suffix));
          (* Seed a fresh wire with the post-replay state: the new log is
             self-contained and the old (possibly corrupt) bytes are never
             appended to. *)
          let snap = Controller.snapshot ctrl in
          let w = Wire.create () in
          Wire.append_snapshot w ~epoch snap;
          {
            fabric_hooks;
            snapshot_every;
            ctrl;
            journal;
            snap;
            snap_at = Journal.length journal;
            wire = Some w;
            epoch;
          }
        with
        | t -> Ok t
        | exception exn ->
            (* Replay executes controller entry points over decoded — but
               adversarial — state; any failure is a recovery failure, not
               a crash of the supervisor. *)
            Error
              (Printf.sprintf "replay failed: %s" (Printexc.to_string exn)))
