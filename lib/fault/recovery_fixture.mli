(** The deterministic churn log that recovery benchmarks and the
    [elmo-sim recover --write] fixture replay.

    On {!Topology.running_example} with [fmax = 6] (and one-rule leaf and
    spine budgets): four groups of up to 11 random hosts, then [events]
    seeded draws of a leave, a spine failure toggle or a join, journaled by
    a {!Replica} whose hooks write to a fabric at epoch 0. The same
    arguments always give the same bytes. *)

val churn :
  ?checkpoint_at:int ->
  snapshot_every:int ->
  events:int ->
  seed:int ->
  unit ->
  Wire.t
(** The replica's log after the run. [snapshot_every] is the replica's
    checkpoint cadence; [checkpoint_at] (if given) forces one more
    checkpoint just before draw [checkpoint_at] (counting from 1). *)
