(** Always-on flight recorder: a bounded ring of recent control-plane ops
    and anomaly notes, dumped to JSON when something goes wrong.

    Recording overwrites one preallocated ring slot per event and defers
    all formatting to {!dump}, so leaving it attached costs almost nothing.
    Ops arrive via {!observer} (plugged into {!Replica.create},
    {!Replica.of_wire} or {!Supervisor.failover}); free-form notes carry a label plus two int
    payloads. Dump sites: verify counterexample, blackhole probe failure,
    install-retry exhaustion, watermark breach. *)

type event =
  | Pad  (** never-written slot; absent from {!events} *)
  | Op of { seq : int; op : Journal.op }
  | Note of { seq : int; label : string; a : int; b : int }

type t

val create : ?capacity:int -> unit -> t
(** Ring of [capacity] (default 256) most-recent events. Raises
    [Invalid_argument] if non-positive. *)

val record_op : t -> Journal.op -> unit
val note : t -> string -> a:int -> b:int -> unit
val observer : t -> Journal.op -> unit
(** [observer t] is [record_op t] — shaped for
    [Replica.create ~observer]. *)

val events : t -> event list
(** The retained tail, oldest first: the last [min recorded capacity]
    events. *)

val recorded : t -> int
(** Total events ever recorded (>= retained). *)

val capacity : t -> int

val dump : ?reason:string -> t -> string
(** One JSON object [{"flight_recorder": {"reason", "recorded",
    "capacity", "events": [...]}}] with ops rendered via
    {!Journal.pp_op}; also emits an [Obs.instant] ["flight.dump"] marker
    into the ambient trace. *)

val dump_to_file : ?reason:string -> t -> string -> unit

val ambient : unit -> t
(** The calling domain's always-on recorder (created on first use) —
    anomaly sites dump the recent past without plumbing a handle. *)

val pp_event : Format.formatter -> event -> unit
