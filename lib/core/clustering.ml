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

(* Drop the [chosen] entries from the first [live] of [ids] and [bms],
   keeping the others in order, and clear [chosen]; the new live count. *)
let compact ids bms chosen live =
  let j = ref 0 in
  for i = 0 to live - 1 do
    if chosen.(i) then chosen.(i) <- false
    else begin
      ids.(!j) <- ids.(i);
      bms.(!j) <- bms.(i);
      incr j
    end
  done;
  !j

module Obs = Elmo_obs.Obs

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
            { Prule.bitmap = layer_bms.(i); switches = [ layer_ids.(i) ] });
      srules = [];
      default = None;
    }
  else begin
    (* The switches still unassigned are the first [!live] entries of
       [ids] and [bms], in layer order; a pick is removed by a stable
       in-place compaction, so every Min_k_union call sees the same
       candidates in the same order as a fresh array would give it. *)
    let ids = Array.copy layer_ids and bms = Array.copy layer_bms in
    let live = ref n in
    let chosen = Array.make n false in
    let prules = ref [] in
    let nprules = ref 0 in
    let k = ref kmax in
    let continue = ref true in
    let iterations = ref 0 in
    while !continue && !live > 0 && !nprules < hmax do
      iterations := !iterations + 1;
      let kk = min !k !live in
      let indices, output = Min_k_union.choose_prefix ~k:kk ~n:!live ~chosen bms in
      let within_budget =
        rule_within_budget ~r ~semantics
          ~exacts:(List.map (Array.get bms) indices)
          output
      in
      if within_budget then begin
        let switches = List.map (Array.get ids) indices in
        prules := { Prule.bitmap = output; switches } :: !prules;
        incr nprules;
        live := compact ids bms chosen !live
      end
      else begin
        List.iter (fun i -> chosen.(i) <- false) indices;
        Obs.incr "clustering.budget_rejections";
        if kk = 1 then
          (* A singleton always has distance 0; unreachable, but keep the
             loop well-founded. *)
          continue := false
        else k := kk - 1
      end
    done;
    Obs.observe "clustering.iterations" (float_of_int !iterations);
    (* Hmax exhausted (or nothing left): spill to s-rules, else default. *)
    let leftovers =
      List.init !live (fun i -> (ids.(i), bms.(i)))
      |> List.sort (fun ((a : int), _) (b, _) -> Int.compare a b)
    in
    let srules = ref [] in
    let default_switches = ref [] in
    let default_bm = ref None in
    List.iter
      (fun (id, bm) ->
        if has_srule_space id then srules := (id, bm) :: !srules
        else begin
          default_switches := id :: !default_switches;
          match !default_bm with
          | None -> default_bm := Some (Bitmap.copy bm)
          | Some acc -> Bitmap.union_into ~dst:acc bm
        end)
      leftovers;
    let default =
      match !default_bm with
      | None -> None
      | Some bm -> Some (List.rev !default_switches, bm)
    in
    { prules = List.rev !prules; srules = List.rev !srules; default }
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
