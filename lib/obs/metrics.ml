let num_buckets = 64

type hist = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : int array;
}

type cell = Counter_c of int ref | Gauge_c of float ref | Hist_c of hist

type t = { cells : (string, cell) Hashtbl.t }

type hist_summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

type value = Counter of int | Gauge of float | Histogram of hist_summary

let create () = { cells = Hashtbl.create 64 }

let new_hist () =
  {
    h_count = 0;
    h_sum = 0.0;
    h_min = infinity;
    h_max = neg_infinity;
    h_buckets = Array.make num_buckets 0;
  }

let cell t name mk =
  match Hashtbl.find_opt t.cells name with
  | Some c -> c
  | None ->
      let c = mk () in
      Hashtbl.add t.cells name c;
      c

let incr ?(n = 1) t name =
  match cell t name (fun () -> Counter_c (ref 0)) with
  | Counter_c r -> r := !r + n
  | Gauge_c _ | Hist_c _ ->
      invalid_arg ("Metrics.incr: " ^ name ^ " is not a counter")

let gauge t name v =
  match cell t name (fun () -> Gauge_c (ref v)) with
  | Gauge_c r -> r := v
  | Counter_c _ | Hist_c _ ->
      invalid_arg ("Metrics.gauge: " ^ name ^ " is not a gauge")

(* Log2 buckets: bucket 0 holds values <= 1 (and NaN); bucket e >= 1 holds
   roughly [2^(e-1), 2^e). 64 buckets cover any duration we can measure. *)
let bucket_of v =
  if not (v > 1.0) then 0 else min (num_buckets - 1) (snd (Float.frexp v))

let representative i =
  if i = 0 then 1.0 else Float.ldexp 1.0 i *. 0.75 (* arithmetic bucket mid *)

let observe t name v =
  match cell t name (fun () -> Hist_c (new_hist ())) with
  | Hist_c h ->
      h.h_count <- h.h_count + 1;
      h.h_sum <- h.h_sum +. v;
      if v < h.h_min then h.h_min <- v;
      if v > h.h_max then h.h_max <- v;
      let b = bucket_of v in
      h.h_buckets.(b) <- h.h_buckets.(b) + 1
  | Counter_c _ | Gauge_c _ ->
      invalid_arg ("Metrics.observe: " ^ name ^ " is not a histogram")

(* Quantiles reuse the repo's Stats interpolation: expand the buckets into at
   most [cap] representative samples (cumulative rounding, so the expansion
   is exact in total count and ascending by construction) and hand the sorted
   array to Stats.percentile. *)
let summary_of_hist h =
  if h.h_count = 0 then
    { count = 0; sum = 0.0; min = 0.0; max = 0.0; p50 = 0.0; p95 = 0.0; p99 = 0.0 }
  else begin
    let cap = 4096 in
    let m = if h.h_count < cap then h.h_count else cap in
    let vals = Array.make m 0.0 in
    let pushed = ref 0 and cum = ref 0 in
    Array.iteri
      (fun i c ->
        if c > 0 then begin
          cum := !cum + c;
          let target = !cum * m / h.h_count in
          let rep = Float.min h.h_max (Float.max h.h_min (representative i)) in
          while !pushed < target do
            vals.(!pushed) <- rep;
            pushed := !pushed + 1
          done
        end)
      h.h_buckets;
    {
      count = h.h_count;
      sum = h.h_sum;
      min = h.h_min;
      max = h.h_max;
      p50 = Stats.percentile vals 0.5;
      p95 = Stats.percentile vals 0.95;
      p99 = Stats.percentile vals 0.99;
    }
  end

let value_of_cell = function
  | Counter_c r -> Counter !r
  | Gauge_c r -> Gauge !r
  | Hist_c h -> Histogram (summary_of_hist h)

let dump t =
  Hashtbl.fold (fun name c l -> (name, value_of_cell c) :: l) t.cells []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let to_json t =
  let b = Buffer.create 512 in
  Buffer.add_char b '{';
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Jsonx.string name);
      Buffer.add_char b ':';
      match v with
      | Counter n -> Buffer.add_string b (string_of_int n)
      | Gauge g -> Buffer.add_string b (Jsonx.float g)
      | Histogram h ->
          Buffer.add_string b
            (Printf.sprintf
               "{\"count\":%d,\"sum\":%s,\"min\":%s,\"max\":%s,\"p50\":%s,\"p95\":%s,\"p99\":%s}"
               h.count (Jsonx.float h.sum) (Jsonx.float h.min)
               (Jsonx.float h.max) (Jsonx.float h.p50) (Jsonx.float h.p95)
               (Jsonx.float h.p99)))
    (dump t);
  Buffer.add_char b '}';
  Buffer.contents b

let bucket_bound i = if i <= 0 then 1.0 else Float.ldexp 1.0 i

let dump_buckets t name =
  match Hashtbl.find_opt t.cells name with
  | Some (Hist_c h) ->
      Some (Array.mapi (fun i c -> (bucket_bound i, c)) h.h_buckets)
  | Some (Counter_c _ | Gauge_c _) | None -> None

(* Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*; our dotted names just
   need the dots (and any other punctuation) folded to underscores. *)
let sanitize name =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
    name

let expose t =
  let b = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      let n = "elmo_" ^ sanitize name in
      match v with
      | Counter c ->
          Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n" n);
          Buffer.add_string b (Printf.sprintf "%s %d\n" n c)
      | Gauge g ->
          Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n" n);
          Buffer.add_string b (Printf.sprintf "%s %s\n" n (Jsonx.float g))
      | Histogram h ->
          Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" n);
          (match dump_buckets t name with
          | None -> ()
          | Some buckets ->
              let cum = ref 0 in
              Array.iter
                (fun (bound, c) ->
                  if c > 0 then begin
                    cum := !cum + c;
                    Buffer.add_string b
                      (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" n
                         (Jsonx.float bound) !cum)
                  end)
                buckets);
          Buffer.add_string b
            (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n h.count);
          Buffer.add_string b
            (Printf.sprintf "%s_sum %s\n" n (Jsonx.float h.sum));
          Buffer.add_string b (Printf.sprintf "%s_count %d\n" n h.count))
    (dump t);
  Buffer.contents b

let pp ppf t =
  List.iter
    (fun (name, v) ->
      match v with
      | Counter n -> Format.fprintf ppf "%-46s %d@\n" name n
      | Gauge g -> Format.fprintf ppf "%-46s %.3f@\n" name g
      | Histogram h ->
          Format.fprintf ppf
            "%-46s n=%d sum=%.1f min=%.1f p50=%.1f p95=%.1f p99=%.1f max=%.1f@\n"
            name h.count h.sum h.min h.p50 h.p95 h.p99 h.max)
    (dump t)
