(** Ambient observability context, one per domain.

    The context bundles the clock and the (optional) metrics/trace sinks and
    lives in [Domain.DLS], so instrumented code reads it without locks. The
    default is {!disabled}: every probe in the hot path then costs one DLS
    read and a branch. *)

type t = {
  active : bool;  (** precomputed [metrics <> None || trace <> None] *)
  clock : Clock.t;
  metrics : Metrics.t option;
  trace : Trace.t option;
}

val disabled : t

val make : ?metrics:Metrics.t -> ?trace:Trace.t -> clock:Clock.t -> unit -> t

val current : unit -> t
val install : t -> unit
(** Set the calling domain's context (pass {!disabled} to turn it off). *)

val active : t -> bool
val metrics : t -> Metrics.t option
val trace : t -> Trace.t option
val clock : t -> Clock.t
