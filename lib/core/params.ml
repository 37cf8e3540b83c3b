type r_semantics = Sum | Per_bitmap

type t = {
  r : int;
  r_semantics : r_semantics;
  hmax_leaf : int;
  hmax_spine : int;
  header_budget : int option;
  kmax : int;
  fmax : int;
  staleness_limit : int;
  install_retries : int;
  install_backoff_us : int;
}

let create ?(r = 0) ?(r_semantics = Sum) ?(hmax_leaf = 30) ?(hmax_spine = 12)
    ?(header_budget = Some 325) ?(kmax = 2) ?(fmax = 30_000)
    ?(staleness_limit = 256) ?(install_retries = 4) ?(install_backoff_us = 8)
    () =
  if r < 0 then invalid_arg "Params.create: r must be non-negative"; (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
  if hmax_leaf <= 0 then invalid_arg "Params.create: hmax_leaf must be positive"; (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
  if hmax_spine <= 0 then invalid_arg "Params.create: hmax_spine must be positive"; (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
  (match header_budget with
  | Some b when b <= 0 -> invalid_arg "Params.create: header_budget must be positive" (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
  | Some _ | None -> ());
  if kmax <= 0 then invalid_arg "Params.create: kmax must be positive"; (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
  if fmax < 0 then invalid_arg "Params.create: fmax must be non-negative"; (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
  if staleness_limit < 0 then
    invalid_arg "Params.create: staleness_limit must be non-negative"; (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
  if install_retries < 0 then
    invalid_arg "Params.create: install_retries must be non-negative"; (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
  if install_backoff_us <= 0 then
    invalid_arg "Params.create: install_backoff_us must be positive"; (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
  { r; r_semantics; hmax_leaf; hmax_spine; header_budget; kmax; fmax;
    staleness_limit; install_retries; install_backoff_us }

let default = create ()
let with_r t r = { t with r = (if r < 0 then invalid_arg "Params.with_r" else r) } (* elmo-lint: allow exception-discipline — documented API-misuse guard *)

(* Durable wire codec: reconstruction goes back through [create] so every
   persisted value re-passes the same validation as a fresh one; a shape
   [create] rejects marks the containing record as corrupt. *)
let codec =
  let open Byteio.Codec in
  let+ r = field (fun t -> t.r) int
  and+ r_semantics = field (fun t -> t.r_semantics) (enum [| Sum; Per_bitmap |])
  and+ hmax_leaf = field (fun t -> t.hmax_leaf) int
  and+ hmax_spine = field (fun t -> t.hmax_spine) int
  and+ header_budget = field (fun t -> t.header_budget) (option int)
  and+ kmax = field (fun t -> t.kmax) int
  and+ fmax = field (fun t -> t.fmax) int
  and+ staleness_limit = field (fun t -> t.staleness_limit) int
  and+ install_retries = field (fun t -> t.install_retries) int
  and+ install_backoff_us = field (fun t -> t.install_backoff_us) int in
  create ~r ~r_semantics ~hmax_leaf ~hmax_spine ~header_budget ~kmax ~fmax
    ~staleness_limit ~install_retries ~install_backoff_us ()

let pp ppf t =
  Format.fprintf ppf "R=%d(%s) Hmax=(leaf %d, spine %d%s) Kmax=%d Fmax=%d" t.r
    (match t.r_semantics with Sum -> "sum" | Per_bitmap -> "per-bitmap")
    t.hmax_leaf t.hmax_spine
    (match t.header_budget with
    | Some b -> Printf.sprintf ", budget %dB" b
    | None -> "")
    t.kmax t.fmax
