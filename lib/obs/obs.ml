type attr = Trace.attr = Int of int | Float of float | Str of string | Bool of bool

let current = Ctx.current
let install = Ctx.install

(* The probes below are annotated zero-alloc for the disabled case: with no
   metrics sink attached they cost one domain-local read and a branch, so
   hot paths can leave them in unconditionally. The metrics-enabled
   branches may allocate (cell lookup can create the cell) and carry
   reasoned suppressions. *)

(* elmo-lint: zero-alloc *)
let enabled () = (Ctx.current ()).Ctx.active

let with_span ?(attrs = []) name f =
  let c = Ctx.current () in
  if not c.Ctx.active then f ()
  else begin
    let t0 = Clock.now_us c.Ctx.clock in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Clock.now_us c.Ctx.clock in
        (match c.Ctx.trace with
        | Some tr -> Trace.complete tr ~name ~ts:t0 ~dur:(t1 -. t0) ~attrs
        | None -> ());
        match c.Ctx.metrics with
        | Some m -> Metrics.observe m ("span." ^ name ^ "_us") (t1 -. t0)
        | None -> ())
      f
  end

(* elmo-lint: zero-alloc *)
let incr ?(n = 1) name =
  match (Ctx.current ()).Ctx.metrics with
  | Some m ->
      (* elmo-lint: allow zero-alloc — metrics-enabled path: cell lookup may create the cell *)
      Metrics.incr m ~n name
  | None -> ()

(* elmo-lint: zero-alloc *)
let observe name v =
  match (Ctx.current ()).Ctx.metrics with
  | Some m ->
      (* elmo-lint: allow zero-alloc — metrics-enabled path: cell lookup may create the cell *)
      Metrics.observe m name v
  | None -> ()

(* elmo-lint: zero-alloc *)
let gauge name v =
  match (Ctx.current ()).Ctx.metrics with
  | Some m ->
      (* elmo-lint: allow zero-alloc — metrics-enabled path: cell lookup may create the cell *)
      Metrics.gauge m name v
  | None -> ()

let instant ?(attrs = []) name =
  match (Ctx.current ()).Ctx.trace with
  | Some tr -> Trace.instant tr ~attrs name
  | None -> ()
