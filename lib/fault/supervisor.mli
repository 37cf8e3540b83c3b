(** Fenced primary/standby controller failover over a durable wire log.

    {!failover} is the standby's takeover sequence against a fabric whose
    switch state survived the primary's crash:

    + load the (possibly torn or corrupt) wire bytes ({!Wire.load} —
      truncation and snapshot fallback, never a guess);
    + bump the fencing epoch past anything the dead primary could have
      stamped and {!Fabric.set_fence} the fabric, so a paused ex-primary
      waking up mid-install is refused;
    + rebuild the controller ({!Replica.of_wire}) with hooks stamped at
      the new epoch;
    + {e reconcile}: read back every s-rule site the recovered state
      expects and reinstall divergent or missing entries (the fabric
      stores its own copies, so its state never aliases the controller's), keep
      compensated stale entries (the verifier accounts for them — removal
      would be the unsound direction), and remove true orphans the
      recovered state knows nothing about;
    + prove the result: {!Verify.sender_blackholes} shows that every
      (group, sender) reaches all its receivers, checking each sender's
      receiver leaves against the leaf sets its group's route parts
      reach, memoized per (sender pod, plane).

    The outcome reports everything a caller needs to decide whether the
    takeover is safe to serve from: what the log recovered, what the sweep
    repaired, and the (empty, or else damning) blackhole witness list.

    Under an Obs context the whole call is one [supervisor.failover] span
    (log load and replay included), with the reconcile sweep and the proof
    as child spans [supervisor.reconcile] and [supervisor.prove]. *)

type reconcile = {
  sites_checked : int;  (** expected s-rule sites read back *)
  reinstalled : int;  (** divergent or missing sites reinstalled *)
  orphans_removed : int;
      (** fabric entries no recovered group nor stale marker explains *)
  stale_kept : int;
      (** compensated stale entries found still present and left alone *)
  refused : int;
      (** reconcile mutations the fabric refused (0 unless re-fenced) *)
}

type outcome = {
  replica : Replica.t;  (** the new primary, durable at [epoch] *)
  loaded : Wire.loaded;  (** what the log yielded (truncation, fallback) *)
  epoch : int;  (** the new fencing epoch: log's highest + 1 *)
  reconcile : reconcile;
  blackholes : Verify.witness list;
      (** first missing delivery edge per failing (group, sender), in
          ascending gid then sender order; empty is the zero-blackhole
          proof *)
}

val failover :
  ?snapshot_every:int ->
  ?observer:(Journal.op -> unit) ->
  fabric:Fabric.t ->
  bytes ->
  (outcome, string) result
(** [Error] when the bytes are not a wire log, the log has no decodable
    snapshot, or replay fails — the fabric is left fenced at the new epoch
    regardless (a standby that cannot recover must still shut the old
    primary out). Never raises. *)

val pp_reconcile : Format.formatter -> reconcile -> unit
