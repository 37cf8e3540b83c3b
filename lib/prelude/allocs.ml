type report = {
  total_words : float;
  per_event : float;
  first_alloc : (int * int) option;
}

(* Words allocated so far: [Gc.minor_words], plus the blocks allocated
   straight in the major heap (over [Max_young_wosize] words), which the
   minor count never sees. Those are [major_words - promoted_words] (a
   promoted word was counted when it was allocated young). The runtime
   adds a direct major allocation to [major_words] only at the next minor
   collection, so each read collects first: words allocated before a
   span are not charged to it, and words allocated in it are. *)
let words () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

(* Reading the counters itself allocates (a stat record, boxed floats),
   so a clean measured span still shows the cost of the closing read.
   Calibrate that cost with a back-to-back read pair and subtract it. *)
let counter_overhead () =
  let a = words () in
  let b = words () in
  b -. a

let probe ~warmup ~events f =
  if warmup < 0 then invalid_arg "Allocs.probe: warmup must be non-negative"; (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
  if events <= 0 then invalid_arg "Allocs.probe: events must be positive"; (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
  for i = 0 to warmup - 1 do
    f i
  done;
  let overhead = counter_overhead () in
  let t0 = words () in
  for i = warmup to warmup + events - 1 do
    f i
  done;
  let t1 = words () in
  let total = Float.max 0.0 (t1 -. t0 -. overhead) in
  let first_alloc =
    if total <= 0.0 then None
    else begin
      (* The span allocated: re-run the measured events one by one to name
         the first offender. Events are assumed repeatable (churn loops
         that join/leave in pairs are). *)
      let found = ref None in
      let scanning = ref true in
      let i = ref warmup in
      while !scanning && !i < warmup + events do
        let a = words () in
        f !i;
        let b = words () in
        let words = b -. a -. overhead in
        if words > 0.0 then begin
          found := Some (!i - warmup, int_of_float words);
          scanning := false
        end;
        incr i
      done;
      !found
    end
  in
  {
    total_words = total;
    per_event = total /. float_of_int events;
    first_alloc;
  }
