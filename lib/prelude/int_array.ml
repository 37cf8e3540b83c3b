(* A binary search compiled at [int]: each probe is one machine
   comparison and one unboxed array read. *)

(* elmo-lint: zero-alloc *)
let rec lower_bound (a : int array) (x : int) ~lo ~hi =
  if lo > hi then lo
  else begin
    let mid = (lo + hi) / 2 in
    if Array.unsafe_get a mid < x then lower_bound a x ~lo:(mid + 1) ~hi
    else lower_bound a x ~lo ~hi:(mid - 1)
  end

(* elmo-lint: zero-alloc *)
let search a x ~lo ~hi =
  let i = lower_bound a x ~lo ~hi in
  if i <= hi && Array.unsafe_get a i = x then i else -1
