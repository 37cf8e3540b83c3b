type result = {
  prules : Prule.prule list;
  srules : (int * Bitmap.t) list;
  default : (int list * Bitmap.t) option;
}

let equal_default a b =
  Option.equal
    (fun (ids1, bm1) (ids2, bm2) ->
      List.equal Int.equal ids1 ids2 && Bitmap.equal bm1 bm2)
    a b

let rule_within_budget ~r ~semantics ~exacts output =
  match (semantics : Params.r_semantics) with
  | Per_bitmap -> List.for_all (fun bm -> Bitmap.hamming bm output <= r) exacts
  | Sum ->
      List.fold_left (fun acc bm -> acc + Bitmap.hamming bm output) 0 exacts
      <= r

module Obs = Elmo_obs.Obs

(* {1 The greedy loop}

   A layer larger than Hmax goes through Algorithm 1's greedy loop. Its
   switches are named by their position in the layer's two arrays, and
   [alive.(i)] holds while switch [i] is neither assigned to a rule nor
   chosen by the pick in progress: a scan in layer order over the alive
   positions sees what a stable compaction of the unassigned switches
   would keep, in the same order. *)

(* The positions ordered by (popcount, position): a counting sort on the
   popcounts, which the bitmap width bounds. *)
let popcount_order pcs =
  let next = Array.make (Array.fold_left Int.max 0 pcs + 2) 0 in
  Array.iter (fun c -> next.(c + 1) <- next.(c + 1) + 1) pcs;
  for c = 1 to Array.length next - 1 do
    next.(c) <- next.(c) + next.(c - 1)
  done;
  let order = Array.make (Array.length pcs) 0 in
  Array.iteri
    (fun i c ->
      order.(next.(c)) <- i;
      next.(c) <- next.(c) + 1)
    pcs;
  order

(* The first entry of [order] at or after [c] that is still alive: the
   seed, the smallest bitmap with ties toward the lowest position. Every
   entry before the cursor is assigned for good, so a pick that the budget
   rejects leaves it where it was. *)
(* elmo-lint: zero-alloc *)
let rec seed_cursor order (alive : bool array) c =
  if alive.(order.(c)) then c else seed_cursor order alive (c + 1)

(* The alive position at or after [i] that adds the fewest new bits to
   [acc], ties toward the lowest position; [best] costs [best_cost]. No
   candidate costs less than 0, so the scan stops at the first that costs
   0: it is the lowest-position one of the least cost. *)
(* elmo-lint: zero-alloc *)
let rec cheapest (bms : Bitmap.t array) (alive : bool array) acc i best best_cost =
  if i >= Array.length bms || best_cost = 0 then best
  else if not alive.(i) then cheapest bms alive acc (i + 1) best best_cost
  else
    let cost = Bitmap.union_cost bms.(i) acc in
    if cost < best_cost then cheapest bms alive acc (i + 1) i cost
    else cheapest bms alive acc (i + 1) best best_cost

(* Picks of at least two switches while k and the unassigned switches
   allow; a rejected pick lowers k for good. Once k is 1 every pick is a
   singleton, at distance 0 from its own bitmap and so within any budget:
   the p-rules left come straight from the order. Every p-rule owns a
   fresh bitmap. Returns the p-rules in emission order, and clears
   [alive] for each switch they assign. *)
let greedy ~r ~semantics ~hmax ~kmax ids bms alive =
  let order = popcount_order (Array.map Bitmap.popcount bms) in
  let cursor = ref 0 in
  let live = ref (Array.length ids) in
  let prules = ref [] and nprules = ref 0 in
  let k = ref kmax in
  let iterations = ref 0 in
  while Int.min !k !live > 1 && !nprules < hmax do
    iterations := !iterations + 1;
    let kk = Int.min !k !live in
    cursor := seed_cursor order alive !cursor;
    let seed = order.(!cursor) in
    alive.(seed) <- false;
    let acc = Bitmap.copy bms.(seed) in
    let picked = ref [ seed ] in
    for _ = 2 to kk do
      let best = cheapest bms alive acc 0 (-1) max_int in
      alive.(best) <- false;
      Bitmap.union_into ~dst:acc bms.(best);
      picked := best :: !picked
    done;
    let picked = List.rev !picked in
    if
      rule_within_budget ~r ~semantics
        ~exacts:(List.map (Array.get bms) picked)
        acc
    then begin
      let switches = List.map (Array.get ids) picked in
      prules := { Prule.bitmap = acc; switches } :: !prules;
      incr nprules;
      live := !live - kk
    end
    else begin
      List.iter (fun i -> alive.(i) <- true) picked;
      Obs.incr "clustering.budget_rejections";
      k := kk - 1
    end
  done;
  let tail = Int.min (hmax - !nprules) !live in
  for _ = 1 to tail do
    cursor := seed_cursor order alive !cursor;
    let i = order.(!cursor) in
    alive.(i) <- false;
    prules :=
      { Prule.bitmap = Bitmap.copy bms.(i); switches = [ ids.(i) ] } :: !prules
  done;
  Obs.observe "clustering.candidates" (float_of_int (Array.length ids));
  Obs.observe "clustering.iterations" (float_of_int (!iterations + tail));
  List.rev !prules

let run ~r ~semantics ~hmax ~kmax ~has_srule_space layer_ids layer_bms =
  if hmax <= 0 then invalid_arg "Clustering.run: hmax must be positive"; (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
  if kmax <= 0 then invalid_arg "Clustering.run: kmax must be positive"; (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
  if r < 0 then invalid_arg "Clustering.run: r must be non-negative"; (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
  Obs.with_span "clustering.run" @@ fun () ->
  let n = Array.length layer_ids in
  if n = 0 then { prules = []; srules = []; default = None }
  else if n <= hmax then
    (* The layer fits in singleton p-rules: exact bitmaps, no redundancy.
       Sharing exists to shrink the header (D3); when the header already
       fits there is nothing to buy with spurious traffic. *)
    {
      prules =
        List.init n (fun i ->
            { Prule.bitmap = Bitmap.copy layer_bms.(i); switches = [ layer_ids.(i) ] });
      srules = [];
      default = None;
    }
  else begin
    let alive = Array.make n true in
    let prules = greedy ~r ~semantics ~hmax ~kmax layer_ids layer_bms alive in
    (* Hmax exhausted (or nothing left): spill to s-rules, else default,
       in layer order, which is ascending id order. *)
    let srules = ref [] in
    let default_switches = ref [] in
    let default_bm = ref None in
    for i = 0 to n - 1 do
      if alive.(i) then begin
        let id = layer_ids.(i) and bm = layer_bms.(i) in
        if has_srule_space id then srules := (id, Bitmap.copy bm) :: !srules
        else begin
          default_switches := id :: !default_switches;
          match !default_bm with
          | None -> default_bm := Some (Bitmap.copy bm)
          | Some acc -> Bitmap.union_into ~dst:acc bm
        end
      end
    done;
    let default =
      match !default_bm with
      | None -> None
      | Some bm -> Some (List.rev !default_switches, bm)
    in
    { prules; srules = List.rev !srules; default }
  end

let assigned_bitmap t id =
  let in_prule =
    List.find_opt (fun r -> Int_list.mem id r.Prule.switches) t.prules
  in
  match in_prule with
  | Some r -> Some r.Prule.bitmap
  | None -> (
      match Int_list.assoc_opt id t.srules with
      | Some bm -> Some bm
      | None -> (
          match t.default with
          | Some (ids, bm) when Int_list.mem id ids -> Some bm
          | Some _ | None -> None))

let redundancy layer t =
  List.fold_left
    (fun acc (id, exact) ->
      match assigned_bitmap t id with
      | None -> acc
      | Some assigned -> acc + (Bitmap.popcount assigned - Bitmap.popcount exact))
    0 layer
