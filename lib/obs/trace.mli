(** Span buffer and exporters.

    Events are appended to an in-memory buffer as one JSON object per line
    (JSONL), already in Chrome [trace_event] shape: ["X"] complete events with
    [name]/[ts]/[dur]/[args], plus ["i"] instants. {!to_chrome} wraps the
    lines into [{"traceEvents":[...]}] which loads directly in
    [chrome://tracing] and Perfetto.

    A trace is owned by the domain that installed it, so events are emitted
    in completion order by one domain — under the logical clock two
    same-seed runs produce byte-identical JSONL. *)

type attr = Int of int | Float of float | Str of string | Bool of bool

type t

val create : clock:Clock.t -> unit -> t
val clock : t -> Clock.t
val event_count : t -> int

val complete : t -> name:string -> ts:float -> dur:float -> attrs:(string * attr) list -> unit
(** Append a complete ("X") span event; timestamps come from the caller so a
    span's clock reads bracket its body exactly (see [Obs.with_span]). *)

val instant : t -> ?attrs:(string * attr) list -> string -> unit
(** Append an instant ("i") event stamped with the trace's own clock. *)

val to_jsonl : t -> string
val to_chrome : t -> string
val chrome_of_jsonl : string -> string
val write_jsonl : t -> string -> unit
val write_chrome : t -> string -> unit
