(** Crash-consistent controller replica: a {!Wire} log of snapshots and
    ops, and one replay over its bytes.

    Couples a live {!Controller.t} with an append-only {!Wire.t} log — its
    only journal. The log opens with a genesis snapshot; every mutation
    goes through {!apply}, which admits the op ({!Journal.admit}), appends
    its record {e before} executing it, and appends a snapshot record
    written from the live controller ({!Controller.write_snapshot}) every
    [snapshot_every] ops. The replica keeps no snapshot of its own: the
    log's bytes are the only copy. Both recoveries — {!recovered} and
    {!of_wire} — are {!Wire.load} followed by the same replay: restore the
    chosen snapshot, then re-execute every suffix op.
    Because the controller is deterministic in its op order, the recovered
    instance is bit-identical (s-rule occupancy, per-group headers, churn
    counters) to one that never crashed — the property the crash-recovery
    test asserts across randomized crash points.

    Restoration itself does not touch the fabric ({!Controller.restore}
    re-emits nothing — switch state survives a controller crash); only the
    replayed suffix drives hooks, and those re-installs are idempotent. *)

type t

val create :
  ?snapshot_every:int ->
  ?fabric_hooks:Controller.fabric_hooks ->
  ?durable:bool ->
  ?observer:(Journal.op -> unit) ->
  Topology.t ->
  Params.t ->
  t
(** [snapshot_every] defaults to 64 ops between automatic checkpoints.
    [durable] selects nothing: every replica writes its {!Wire.t} log (a
    genesis snapshot at epoch 0, then every op and checkpoint record). It
    is accepted only for callers written when the log was optional.
    [observer] is called with every applied op, after its record is
    appended and before it executes — the telemetry flight recorder
    attaches here. *)

val of_wire :
  ?snapshot_every:int ->
  ?fabric_hooks:Controller.fabric_hooks ->
  ?observer:(Journal.op -> unit) ->
  ?epoch:int ->
  Wire.loaded ->
  (t, string) result
(** Rebuild a replica from a loaded wire log: restore the chosen
    snapshot (which {!Controller.restore} takes, so one loaded log
    rebuilds one replica), replay the suffix (feeding every replayed op
    to [observer]),
    and seed a {e fresh} wire with the post-replay snapshot — the corrupt
    bytes are never appended to. [epoch] (default: the log's highest
    epoch) stamps the new log; a failover supervisor passes its bumped
    fencing epoch. [Error] when the log has no decodable snapshot, [epoch]
    regresses below the log's, or replay itself fails — never an
    exception. *)

val controller : t -> Controller.t

val wire : t -> Wire.t option
(** The replica's log; always [Some] (the option is kept for callers
    written when the log was optional). *)

val apply : t -> Journal.op -> unit
(** Admit the op ({!Journal.admit}: an op the controller refuses raises
    its exception and is neither logged nor executed), append its record,
    notify the observer, execute, auto-checkpoint. *)

val checkpoint : t -> unit
(** Force a checkpoint: append a snapshot record written from the live
    controller ({!Controller.write_snapshot}). *)

val recovered : t -> Controller.t
(** A fresh controller rebuilt from the replica's own log bytes: the
    latest snapshot + the op suffix after it. The live controller is
    untouched (use this to {e compare} recovery against the never-crashed
    instance). *)

val crash : t -> unit
(** Replace the live controller with {!recovered} — the crash itself. *)

val installed_config : t -> Installed_config.t
(** The live controller's {!Installed_config.t} view (for symbolic
    equivalence checks against {!recovered}). It borrows the controller's
    state: read it before the next {!apply}. *)
