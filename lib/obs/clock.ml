type kind = Logical | Monotonic

type t = Logical_clock of { mutable ticks : int } | Monotonic_clock

let logical () = Logical_clock { ticks = 0 }
let monotonic = Monotonic_clock
let of_kind = function Logical -> logical () | Monotonic -> monotonic
let kind = function Logical_clock _ -> Logical | Monotonic_clock -> Monotonic
let kind_to_string = function Logical -> "logical" | Monotonic -> "monotonic"

let kind_of_string s =
  match String.lowercase_ascii s with
  | "logical" | "tick" -> Some Logical
  | "monotonic" | "mono" | "wall" -> Some Monotonic
  | _ -> None

let kind_of_env () =
  match Sys.getenv_opt "ELMO_TRACE_CLOCK" with
  | None -> Logical
  | Some s -> ( match kind_of_string s with Some k -> k | None -> Logical)

let now_us = function
  | Logical_clock c ->
      c.ticks <- c.ticks + 1;
      float_of_int c.ticks
  | Monotonic_clock ->
      (* The one sanctioned wall-clock site of the observability layer: every
         traced duration flows through here, and only when the user opted in
         via ELMO_TRACE_CLOCK=mono. Timestamps never feed simulation state. *)
      Unix.gettimeofday () *. 1e6 (* elmo-lint: allow determinism — single opt-in wall-clock source (ELMO_TRACE_CLOCK=mono); timestamps never feed simulation state *)
