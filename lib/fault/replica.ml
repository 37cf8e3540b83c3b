module Obs = Elmo_obs.Obs

type t = {
  fabric_hooks : Controller.fabric_hooks option;
  observer : (Journal.op -> unit) option;
  snapshot_every : int;
  mutable ctrl : Controller.t;
  mutable since_snap : int;  (* ops applied since the last checkpoint *)
  wire : Wire.t;
  mutable epoch : int;  (* fencing epoch stamped on appended records *)
}

let checkpoint t =
  t.since_snap <- 0;
  Wire.append_snapshot t.wire ~epoch:t.epoch t.ctrl;
  Obs.incr "replica.checkpoints"

(* A replica over [ctrl] whose wire opens with [ctrl]'s snapshot at
   [epoch]: the log is self-contained from byte 0, so a log that loses
   every later snapshot still recovers from here. *)
let seeded ?fabric_hooks ?observer ~snapshot_every ~epoch ctrl =
  let wire = Wire.create () in
  Wire.append_snapshot wire ~epoch ctrl;
  {
    fabric_hooks;
    observer;
    snapshot_every;
    ctrl;
    since_snap = 0;
    wire;
    epoch;
  }

let create ?(snapshot_every = 64) ?fabric_hooks ?(incremental = true)
    ?durable:(_ : bool option) ?observer topo params =
  seeded ?fabric_hooks ?observer ~snapshot_every ~epoch:0
    (Controller.create ?fabric_hooks ~incremental topo params)

let controller t = t.ctrl
let wire t = Some t.wire
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
  (* Admission has already checked that the group of a remove, join or
     leave exists. *)
  let member_pods group =
    List.map (fun (h, _) -> pod_of_host h) (Controller.members t.ctrl ~group)
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
  Journal.admit t.ctrl op;
  (* Write-ahead: the op record is durable before execution, so a crash
     mid-execute replays it rather than losing it. *)
  Wire.append_op t.wire ~epoch:t.epoch
    { Journal.e_op = op; e_pods = pods_of_op t op };
  Option.iter (fun f -> f op) t.observer;
  Journal.apply t.ctrl op;
  t.since_snap <- t.since_snap + 1;
  if t.since_snap >= t.snapshot_every then checkpoint t

(* The one replay: restore [snap], then re-execute the [suffix] entries
   [keep] accepts, in order, feeding each to [observer] first. Returns the
   controller and the number of ops replayed. *)
let replay ?fabric_hooks ?observer ~keep snap suffix =
  let ctrl = Controller.restore ?fabric_hooks snap in
  let replayed =
    List.fold_left
      (fun n e ->
        if not (keep e) then n
        else begin
          Option.iter (fun f -> f e.Journal.e_op) observer;
          Journal.apply ctrl e.Journal.e_op;
          n + 1
        end)
      0 suffix
  in
  (ctrl, replayed)

(* The replica's own log always loads with a snapshot: it opens with the
   genesis one, and every record in it was appended here. *)
let own_log t =
  match Wire.load (Wire.contents t.wire) with
  | Ok { Wire.l_snapshot = Some snap; l_suffix; _ } -> (snap, l_suffix)
  | Ok { Wire.l_snapshot = None; _ } | Error _ ->
      invalid_arg "Replica: own wire log has no snapshot"

let recovered t =
  Obs.with_span "replica.recover" (fun () ->
      let snap, suffix = own_log t in
      let ctrl, replayed =
        replay ?fabric_hooks:t.fabric_hooks ~keep:(fun _ -> true) snap suffix
      in
      Obs.observe "replica.replayed_ops" (float_of_int replayed);
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
  let snap, suffix = own_log t in
  let in_comp = Array.make (Controller.topology t.ctrl).Topology.pods false in
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
  let ctrl, replayed =
    replay ?fabric_hooks:t.fabric_hooks ~keep:relevant snap suffix
  in
  Obs.observe "replica.shard_replayed_ops" (float_of_int replayed);
  Obs.observe "replica.shard_skipped_ops"
    (float_of_int (List.length suffix - replayed));
  ctrl

let crash t = t.ctrl <- recovered t

let installed_config t = Controller.installed_config t.ctrl

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
          let ctrl, replayed =
            replay ?fabric_hooks ?observer ~keep:(fun _ -> true) snap
              l.Wire.l_suffix
          in
          Obs.observe "replica.replayed_ops" (float_of_int replayed);
          (* Seed a fresh wire with the post-replay state: the new log is
             self-contained and the old (possibly corrupt) bytes are never
             appended to. *)
          seeded ?fabric_hooks ?observer ~snapshot_every ~epoch ctrl
        with
        | t -> Ok t
        | exception exn ->
            (* Replay executes controller entry points over decoded — but
               adversarial — state; any failure is a recovery failure, not
               a crash of the supervisor. *)
            Error
              (Printf.sprintf "replay failed: %s" (Printexc.to_string exn)))
