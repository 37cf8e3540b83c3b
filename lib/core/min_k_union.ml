module Obs = Elmo_obs.Obs

(* The index of the smallest bitmap among the first [n] candidates, ties
   toward the lowest index. *)
let seed_of candidates n =
  let seed = ref 0 and seed_count = ref max_int in
  for i = 0 to n - 1 do
    let c = Bitmap.popcount candidates.(i) in
    if c < !seed_count then begin
      seed := i;
      seed_count := c
    end
  done;
  !seed

(* The unchosen candidate among the first [n] that adds the fewest new
   bits to [acc], ties toward the lowest index. *)
let cheapest candidates n chosen acc =
  let best = ref (-1) and best_cost = ref max_int in
  for i = 0 to n - 1 do
    if not chosen.(i) then begin
      let cost = Bitmap.union_cost candidates.(i) acc in
      if cost < !best_cost then begin
        best := i;
        best_cost := cost
      end
    end
  done;
  !best

let choose_prefix ~k ~n ~chosen candidates =
  Obs.incr "min_k_union.calls";
  Obs.observe "min_k_union.candidates" (float_of_int n);
  let seed = seed_of candidates n in
  chosen.(seed) <- true;
  let acc = Bitmap.copy candidates.(seed) in
  let picked = ref [ seed ] in
  for _ = 2 to k do
    let best = cheapest candidates n chosen acc in
    chosen.(best) <- true;
    Bitmap.union_into ~dst:acc candidates.(best);
    picked := best :: !picked
  done;
  (List.rev !picked, acc)

let choose ~k candidates =
  let n = Array.length candidates in
  if k <= 0 then invalid_arg "Min_k_union.choose: k must be positive"; (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
  if n = 0 then invalid_arg "Min_k_union.choose: no candidates"; (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
  if k > n then invalid_arg "Min_k_union.choose: k exceeds candidate count"; (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
  choose_prefix ~k ~n ~chosen:(Array.make n false) (Array.map snd candidates)
