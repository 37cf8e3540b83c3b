(* Outside-in per-layer tracer for the end-to-end benchmark.

   The benchmark wraps its calls into each layer's public functions with
   [span]; nothing inside lib/ is instrumented. A disabled tracer runs the
   wrapped function directly. An enabled one keeps, per layer:
   - call count and inclusive per-call durations (for p50/p99);
   - self time: inclusive time minus the inclusive time of wrapped calls
     nested inside it, so a layer reached through another (fabric hooks
     under a controller join) is not counted twice;
   - self minor words, from [Gc.minor_words] deltas with the cost of the
     tracer's own reads calibrated away, the way [Allocs.probe] does (the
     tracer allocates nothing between its reads);
   - an optional byte count the caller attributes to the layer.

   Self times of all layers plus the untraced remainder add up to the wall
   time, which is how the largest layer is named from data. *)

(* Seconds on the monotonic clock, at nanosecond resolution: many wrapped
   calls (a fabric hook, an encapsulation) take well under a microsecond. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type layer = {
  name : string;
  mutable calls : int;
  mutable self_s : float;
  mutable self_words : float;
  mutable bytes : float;
  mutable durations : float array;  (* inclusive seconds, first [calls] used *)
}

type t = {
  enabled : bool;
  mutable layers : layer list;  (* registration order, reversed *)
  (* Per nesting depth: inclusive seconds and words of finished children. *)
  child_s : float array;
  child_words : float array;
  mutable depth : int;
  mutable read_words : float;  (* words one probe pair costs *)
}

let max_depth = 64

let create ~enabled =
  let t =
    {
      enabled;
      layers = [];
      child_s = Array.make max_depth 0.0;
      child_words = Array.make max_depth 0.0;
      depth = 0;
      read_words = 0.0;
    }
  in
  if enabled then begin
    (* The probe reads exactly as [span] makes them around [f ()]. *)
    let words = ref infinity in
    for _ = 1 to 8 do
      let w0 = Gc.minor_words () in
      let t0 = now () in
      let t1 = now () in
      let w1 = Gc.minor_words () in
      ignore (Sys.opaque_identity (t1 -. t0));
      words := Float.min !words (w1 -. w0)
    done;
    t.read_words <- !words
  end;
  t

let enabled t = t.enabled

let layer t name =
  let l =
    { name; calls = 0; self_s = 0.0; self_words = 0.0; bytes = 0.0;
      durations = [||] }
  in
  t.layers <- l :: t.layers;
  l

let record l dur =
  if l.calls >= Array.length l.durations then begin
    let grown = Array.make (max 1024 (2 * l.calls)) 0.0 in
    Array.blit l.durations 0 grown 0 l.calls;
    l.durations <- grown
  end;
  l.durations.(l.calls) <- dur;
  l.calls <- l.calls + 1

(* Books one finished call of [l] at depth [d + 1]; runs after both probe
   reads, so nothing it allocates is counted. *)
let finish t l d ~dur ~words =
  let words = Float.max 0.0 (words -. t.read_words) in
  l.self_s <- l.self_s +. (dur -. t.child_s.(d + 1));
  l.self_words <- l.self_words +. Float.max 0.0 (words -. t.child_words.(d + 1));
  record l dur;
  t.depth <- d;
  t.child_s.(d) <- t.child_s.(d) +. dur;
  t.child_words.(d) <- t.child_words.(d) +. words

(* Between the two pairs of probe reads only [f ()] runs. *)
let span t l f =
  if not t.enabled then f ()
  else begin
    let d = t.depth in
    if d + 1 >= max_depth then invalid_arg "Layers.span: nesting too deep";
    t.child_s.(d + 1) <- 0.0;
    t.child_words.(d + 1) <- 0.0;
    t.depth <- d + 1;
    let w0 = Gc.minor_words () in
    let t0 = now () in
    match f () with
    | v ->
        let t1 = now () in
        let w1 = Gc.minor_words () in
        finish t l d ~dur:(t1 -. t0) ~words:(w1 -. w0);
        v
    | exception e ->
        let t1 = now () in
        let w1 = Gc.minor_words () in
        finish t l d ~dur:(t1 -. t0) ~words:(w1 -. w0);
        raise e
  end

let add_bytes t l n = if t.enabled then l.bytes <- l.bytes +. float_of_int n

(* [q]-quantile of unsorted samples (sorts in place). *)
let quantile a q =
  Array.sort Float.compare a;
  Stats.percentile a q

type row = {
  row_name : string;
  row_calls : int;
  row_self_pct : float;
  row_p50_us : float;
  row_p99_us : float;
  row_words_per_call : float;
  row_bytes_per_call : float option;
}

let rows t ~wall_s ~with_bytes =
  List.rev_map
    (fun l ->
      let per x = if l.calls = 0 then 0.0 else x /. float_of_int l.calls in
      {
        row_name = l.name;
        row_calls = l.calls;
        row_self_pct = (if wall_s > 0.0 then 100.0 *. l.self_s /. wall_s else 0.0);
        row_p50_us = 1e6 *. quantile (Array.sub l.durations 0 l.calls) 0.50;
        row_p99_us = 1e6 *. quantile (Array.sub l.durations 0 l.calls) 0.99;
        row_words_per_call = per l.self_words;
        row_bytes_per_call =
          (if List.mem l.name with_bytes then Some (per l.bytes) else None);
      })
    t.layers

let pp_table ppf (rows, wall_s) =
  Format.fprintf ppf "@[<v>%-30s %9s %7s %11s %11s %12s %11s@," "layer.op" "calls"
    "self%" "p50 us" "p99 us" "words/call" "bytes/call";
  let by_self =
    List.sort (fun a b -> Float.compare b.row_self_pct a.row_self_pct) rows
  in
  List.iter
    (fun r ->
      Format.fprintf ppf "%-30s %9d %7.2f %11.2f %11.2f %12.1f %11s@," r.row_name
        r.row_calls r.row_self_pct r.row_p50_us r.row_p99_us r.row_words_per_call
        (match r.row_bytes_per_call with
        | Some b -> Printf.sprintf "%.1f" b
        | None -> "-"))
    by_self;
  let covered = List.fold_left (fun a r -> a +. r.row_self_pct) 0.0 rows in
  Format.fprintf ppf
    "listed layers: %.1f%% of %.3f s wall; largest: %s@]" covered wall_s
    (match by_self with r :: _ -> r.row_name | [] -> "-")
