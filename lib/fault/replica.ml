module Obs = Elmo_obs.Obs

type t = {
  fabric_hooks : Controller.fabric_hooks option;
  observer : (Journal.op -> unit) option;
  snapshot_every : int;
  mutable ctrl : Controller.t;
  mutable since_snap : int;  (* ops applied since the last checkpoint *)
  wire : Wire.t;
  epoch : int;  (* fencing epoch stamped on appended records *)
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

let create ?(snapshot_every = 64) ?fabric_hooks ?durable:(_ : bool option)
    ?observer topo params =
  seeded ?fabric_hooks ?observer ~snapshot_every ~epoch:0
    (Controller.create ?fabric_hooks topo params)

let controller t = t.ctrl
let wire t = Some t.wire

let apply t op =
  Journal.admit t.ctrl op;
  (* Write-ahead: the op record is durable before execution, so a crash
     mid-execute replays it rather than losing it. *)
  Wire.append_op t.wire ~epoch:t.epoch ~topo:(Controller.topology t.ctrl) op;
  Option.iter (fun f -> f op) t.observer;
  Journal.apply t.ctrl op;
  t.since_snap <- t.since_snap + 1;
  if t.since_snap >= t.snapshot_every then checkpoint t

(* The one replay: restore [snap], then re-execute every [suffix] op in
   order, feeding each to [observer] first. *)
let replay ?fabric_hooks ?observer snap suffix =
  let ctrl = Controller.restore ?fabric_hooks snap in
  List.iter
    (fun op ->
      Option.iter (fun f -> f op) observer;
      Journal.apply ctrl op)
    suffix;
  Obs.observe "replica.replayed_ops" (float_of_int (List.length suffix));
  ctrl

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
      replay ?fabric_hooks:t.fabric_hooks snap suffix)

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
          let ctrl = replay ?fabric_hooks ?observer snap l.Wire.l_suffix in
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
