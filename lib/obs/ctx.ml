type t = {
  active : bool;
  clock : Clock.t;
  metrics : Metrics.t option;
  trace : Trace.t option;
}

let disabled =
  { active = false; clock = Clock.monotonic; metrics = None; trace = None }

let make ?metrics ?trace ~clock () =
  {
    active = (match (metrics, trace) with None, None -> false | _ -> true);
    clock;
    metrics;
    trace;
  }

(* Ambient context lives in domain-local storage: reading it takes no lock,
   and a domain that never installs a context sees [disabled]. *)
let key : t Domain.DLS.key = Domain.DLS.new_key (fun () -> disabled)

let current () = Domain.DLS.get key
let install c = Domain.DLS.set key c
let active c = c.active
let metrics c = c.metrics
let trace c = c.trace
let clock c = c.clock
