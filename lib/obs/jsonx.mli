(** Tiny JSON writer shared by the trace/metrics emitters and the bench
    harness. No JSON library is vendored: the repository only ever
    {e writes} JSON. *)

val string : string -> string
(** JSON string literal, quotes included; escapes quotes, backslashes and
    control characters. *)

val float : float -> string
(** Fixed [%.3f] rendering; NaN becomes [0.0] and infinities clamp to
    [±1e308] so output is always valid JSON. *)

(** A JSON value. [Raw] splices an already-rendered fragment verbatim. *)
type t =
  | Int of int
  | Num of float
  | Bool of bool
  | Str of string
  | Null
  | Raw of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering (no whitespace). A finite [Num] prints as the shorter
    of [%.15g] and [%.17g] that reads back exactly; NaN and infinities go
    through {!float}. *)
