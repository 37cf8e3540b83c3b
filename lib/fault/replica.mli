(** Crash-consistent controller replica: snapshot + journal-suffix replay.

    Couples a live {!Controller.t} with an append-only {!Journal} and a
    rolling {!Controller.snapshot}. Every mutation goes through {!apply},
    which journals the op before executing it and takes a fresh checkpoint
    every [snapshot_every] ops. {!crash} simulates a controller process
    crash: the live controller is discarded and rebuilt from the latest
    snapshot plus replay of the journal suffix. Because the controller is
    deterministic in its op order, the recovered instance is bit-identical
    (s-rule occupancy, per-group headers, churn counters) to one that never
    crashed — the property the crash-recovery test asserts across
    randomized crash points.

    Restoration itself does not touch the fabric ({!Controller.restore}
    re-emits nothing — switch state survives a controller crash); only the
    replayed suffix drives hooks, and those re-installs are idempotent. *)

type t

val create :
  ?snapshot_every:int ->
  ?fabric_hooks:Controller.fabric_hooks ->
  ?incremental:bool ->
  ?durable:bool ->
  ?observer:(Journal.op -> unit) ->
  Topology.t ->
  Params.t ->
  t
(** [snapshot_every] defaults to 64 ops between automatic checkpoints.
    [durable] (default [false]) attaches a {!Wire.t} log: a genesis
    snapshot is written at epoch 0, every {!apply} appends the op record
    {e before} executing it (write-ahead), and every checkpoint appends a
    snapshot record. [observer] taps the underlying journal (see
    {!Journal.create}) — the telemetry flight recorder attaches here. *)

val of_wire :
  ?snapshot_every:int ->
  ?fabric_hooks:Controller.fabric_hooks ->
  ?observer:(Journal.op -> unit) ->
  ?epoch:int ->
  Wire.loaded ->
  (t, string) result
(** Rebuild a durable replica from a loaded wire log: restore the chosen
    snapshot, replay the suffix (each op passes through the new journal
    first, so [observer] sees every replayed op), and seed a {e fresh}
    wire with the post-replay snapshot — the corrupt bytes are never
    appended to. [epoch] (default: the log's highest epoch) stamps the
    new log; a failover supervisor passes its bumped fencing epoch.
    [Error] when the log has no decodable snapshot, [epoch] regresses
    below the log's, or replay itself fails — never an exception. *)

val controller : t -> Controller.t
val journal : t -> Journal.t

val wire : t -> Wire.t option
(** The attached durable log, when [durable] (or {!of_wire}) created one. *)

val epoch : t -> int
(** The fencing epoch stamped on appended records. *)

val set_epoch : t -> int -> unit
(** Raise the fencing epoch (monotonic; raises [Invalid_argument] on
    regression). *)

val apply : t -> Journal.op -> unit
(** Journal (tagged with the pods the op can touch, computed against the
    pre-op state), execute, auto-checkpoint. *)

val checkpoint : t -> unit
(** Force a checkpoint at the current journal position. *)

val recovered : t -> Controller.t
(** A fresh controller rebuilt from the latest snapshot + journal suffix;
    the live controller is untouched (use this to {e compare} recovery
    against the never-crashed instance). *)

val recover_shard : t -> pod:int -> Controller.t
(** Shard-scoped recovery: rebuild from the latest snapshot, replaying
    only the journal-suffix ops whose pod tags are {e transitively
    connected} to [pod] (ops sharing a pod chain into one component) plus
    every global op. For groups whose members stay inside that component
    the result is bit-identical to {!recovered} — skipped ops touch only
    disjoint pods, which the per-pod commit confinement keeps invisible —
    while replaying a fraction of the suffix after localized churn.
    Out-of-component groups and global counters may differ. *)

val crash : t -> unit
(** Replace the live controller with {!recovered} — the crash itself. *)

val installed_config : t -> Installed_config.t
(** The live controller's {!Installed_config.t} view (for symbolic
    equivalence checks against {!recovered}). *)

val last_snapshot : t -> Controller.snapshot
(** The {e latest checkpoint}: what {!recovered} restores before replaying
    the journal suffix. *)
