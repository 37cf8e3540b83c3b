(** Injectable time source for the observability layer.

    The default is a {e logical} clock: a per-clock tick counter bumped on
    every read, so span timestamps and durations count clock reads — fully
    deterministic, which keeps traced runs byte-identical across repeats and
    lint-clean (no wall-clock reads). The {e monotonic} clock reads real time
    through the single sanctioned [Unix.gettimeofday] site and is selected
    explicitly with [ELMO_TRACE_CLOCK=mono] when profiling wall time. *)

type kind = Logical | Monotonic

type t

val logical : unit -> t
(** A fresh logical clock starting at tick 0. *)

val monotonic : t
(** The wall clock (stateless; all monotonic clocks share the timebase). *)

val of_kind : kind -> t
val kind : t -> kind
val kind_to_string : kind -> string

val kind_of_string : string -> kind option
(** Accepts ["logical"]/["tick"] and ["monotonic"]/["mono"]/["wall"]. *)

val kind_of_env : unit -> kind
(** Reads [ELMO_TRACE_CLOCK]; unset or unrecognized values mean [Logical]. *)

val now_us : t -> float
(** Current time in microseconds. On a logical clock this is the tick count
    {e after} bumping it, so a span's duration equals the number of clock
    reads nested inside it. *)
