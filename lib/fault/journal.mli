(** The controller's operation vocabulary and its durable codec.

    Every externally-driven controller mutation is a pure value, recorded
    in the replica's {!Wire} log {e before} it is applied, so that a
    crashed controller can be rebuilt as [restore latest_snapshot] + replay
    of the ops logged since that snapshot. Replay re-executes the
    controller's own entry points — the log stores intent, not effects — so
    a recovered controller recomputes bit-identical encodings, ledger
    occupancy and churn counters (the controller is deterministic given the
    same op order). An op record's payload is the op alone: every
    recovery replays the whole suffix. *)

type op =
  | Add_group of { group : int; members : (int * Controller.role) list }
  | Remove_group of { group : int }
  | Join of { group : int; host : int; role : Controller.role }
  | Leave of { group : int; host : int }
  | Fail_spine of int
  | Recover_spine of int
  | Fail_core of int
  | Recover_core of int
  | Fail_link of { leaf : int; plane : int }
  | Recover_link of { leaf : int; plane : int }

val apply : Controller.t -> op -> unit
(** Re-executes the op against a controller, discarding its report. *)

val admit : Controller.t -> op -> unit
(** Raises what executing the op would raise, and changes nothing: first
    the entry point's own membership guard ({!Controller.check_join} and
    its siblings: [Invalid_argument] or [Not_found]), then
    [Invalid_argument "index out of bounds"] when a group, host, switch or
    link id is out of range for the controller's topology (group ids must
    be non-negative) — the same id check {!op_codec}'s reader makes. A replica
    admits every op before its write-ahead append, so an op
    the controller refuses is neither logged nor executed. *)

val op_codec : topo:Topology.t -> op Byteio.Codec.t
(** Durable wire codec for one op (the payload of a [Wire] op record). The
    reader validates the op's ids against [topo] as {!admit} does — replay
    re-executes controller entry points, which raise on out-of-range
    arguments, so a flipped bit must surface as {!Byteio.Reader.Corrupt}
    at load time rather than an exception mid-replay. *)

val pp_op : Format.formatter -> op -> unit
