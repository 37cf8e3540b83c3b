type uprule = { down : Bitmap.t; up : Bitmap.t; multipath : bool }
type prule = { bitmap : Bitmap.t; switches : int list }

type header = {
  u_leaf : uprule;
  u_spine : uprule option;
  core : Bitmap.t option;
  d_spine : prule list;
  d_spine_default : Bitmap.t option;
  d_leaf : prule list;
  d_leaf_default : Bitmap.t option;
}

let rule_mem r id = List.mem id r.switches

let equal a b =
  Bitmap.equal a.bitmap b.bitmap && List.equal Int.equal a.switches b.switches

let uprule_bits ~down_width ~up_width = down_width + up_width + 1

let layer_widths topo = function
  | `Spine -> (Topology.spine_downstream_width topo, Topology.spine_id_bits topo)
  | `Leaf -> (Topology.leaf_downstream_width topo, Topology.leaf_id_bits topo)

(* Wire format of a downstream p-rule: a 1-bit "another rule follows" marker,
   the output bitmap, then identifiers, each followed by a 1-bit "more ids"
   flag. A section ends with a 0 marker and a 1-bit default-rule presence
   flag (plus the default bitmap when present). *)

let rule_bits ~width ~id_bits nswitches = 1 + width + (nswitches * (id_bits + 1))

let prule_bits topo layer ~nswitches =
  if nswitches <= 0 then invalid_arg "Prule.prule_bits: empty switch list"; (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
  let width, id_bits = layer_widths topo layer in
  rule_bits ~width ~id_bits nswitches

let default_rule_bits topo layer =
  let width, _ = layer_widths topo layer in
  1 + width

let section_bits topo layer rules default =
  let width, id_bits = layer_widths topo layer in
  let rules_bits =
    List.fold_left
      (fun acc r -> acc + rule_bits ~width ~id_bits (List.length r.switches))
      0 rules
  in
  let default_bits =
    match default with
    | Some _ -> default_rule_bits topo layer
    | None -> 1 (* just the absent flag *)
  in
  rules_bits + 1 (* section terminator *) + default_bits

let u_leaf_bits topo =
  uprule_bits
    ~down_width:(Topology.leaf_downstream_width topo)
    ~up_width:(Topology.leaf_upstream_width topo)

let u_spine_bits topo header =
  1
  +
  match header.u_spine with
  | None -> 0
  | Some _ ->
      uprule_bits
        ~down_width:(Topology.spine_downstream_width topo)
        ~up_width:(Topology.spine_upstream_width topo)

let core_bits topo header =
  1 + match header.core with None -> 0 | Some _ -> Topology.core_downstream_width topo

let d_spine_bits topo header =
  section_bits topo `Spine header.d_spine header.d_spine_default

let d_leaf_bits topo header =
  section_bits topo `Leaf header.d_leaf header.d_leaf_default

let header_bits topo header =
  u_leaf_bits topo + u_spine_bits topo header + core_bits topo header
  + d_spine_bits topo header + d_leaf_bits topo header

let header_bytes topo header = (header_bits topo header + 7) / 8

let max_header_bytes topo (params : Params.t) =
  let full_uprule_spine =
    if Topology.is_two_tier topo then 1
    else
      1
      + uprule_bits
          ~down_width:(Topology.spine_downstream_width topo)
          ~up_width:(Topology.spine_upstream_width topo)
  in
  let section layer hmax =
    (hmax * prule_bits topo layer ~nswitches:params.Params.kmax)
    + 1 + default_rule_bits topo layer
  in
  let bits =
    u_leaf_bits topo + full_uprule_spine
    + 1 + Topology.core_downstream_width topo
    + section `Spine params.Params.hmax_spine
    + section `Leaf params.Params.hmax_leaf
  in
  (bits + 7) / 8

let remaining_bits_after topo header = function
  | `U_leaf ->
      u_spine_bits topo header + core_bits topo header + d_spine_bits topo header
      + d_leaf_bits topo header
  | `U_spine -> core_bits topo header + d_spine_bits topo header + d_leaf_bits topo header
  | `Core -> d_spine_bits topo header + d_leaf_bits topo header
  | `D_spine -> d_leaf_bits topo header
  | `All -> 0

let pp_uprule ppf u =
  Format.fprintf ppf "%a|%a%s" Bitmap.pp u.down Bitmap.pp u.up
    (if u.multipath then "|M" else "")

let pp_prule ppf r =
  Format.fprintf ppf "%a:[%a]" Bitmap.pp r.bitmap
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    r.switches

let pp topo ppf h =
  let pp_rules = Format.pp_print_list ~pp_sep:Format.pp_print_space pp_prule in
  let pp_default ppf = function
    | None -> Format.pp_print_string ppf "-"
    | Some bm -> Bitmap.pp ppf bm
  in
  Format.fprintf ppf
    "@[<v>u-leaf: %a@ u-spine: %a@ core: %a@ d-spine: @[%a@] default %a@ d-leaf: @[%a@] default %a@ (%d bytes)@]"
    pp_uprule h.u_leaf
    (fun ppf -> function
      | None -> Format.pp_print_string ppf "-"
      | Some u -> pp_uprule ppf u)
    h.u_spine
    (fun ppf -> function
      | None -> Format.pp_print_string ppf "-"
      | Some bm -> Bitmap.pp ppf bm)
    h.core pp_rules h.d_spine pp_default h.d_spine_default pp_rules h.d_leaf
    pp_default h.d_leaf_default (header_bytes topo h)
