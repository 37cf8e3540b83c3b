(** Instrumentation facade over the ambient {!Ctx}. This is the only module
    instrumented code needs: every probe reads the calling domain's context
    and is a no-op (one DLS read + branch) when observability is disabled —
    simulation output is bit-identical with tracing on or off because probes
    only ever read state the simulation already computed. *)

type attr = Trace.attr = Int of int | Float of float | Str of string | Bool of bool

val current : unit -> Ctx.t
val install : Ctx.t -> unit
val enabled : unit -> bool

val with_span : ?attrs:(string * attr) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a span: one clock read before, one
    after; the span goes to the trace (if any) and its duration into the
    ["span.<name>_us"] histogram (if metrics are on). The span is emitted
    even if [f] raises. Disabled: exactly [f ()]. *)

val incr : ?n:int -> string -> unit

val observe : string -> float -> unit
val gauge : string -> float -> unit
val instant : ?attrs:(string * attr) list -> string -> unit
