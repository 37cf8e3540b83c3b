type uprule = { down : Bitmap.t; up : Bitmap.t; multipath : bool }
type prule = { bitmap : Bitmap.t; switches : int list }

type down = {
  d_spine : prule list;
  d_spine_default : Bitmap.t option;
  d_leaf : prule list;
  d_leaf_default : Bitmap.t option;
  spine_bits : int;
  bits : int;
  wire : Bitio.Run.t;
}

type header = {
  u_leaf : uprule;
  u_spine : uprule option;
  core : Bitmap.t option;
  downstream : down;
}

let rule_mem r id = Int_list.mem id r.switches

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

let rec rules_bits ~width ~id_bits acc = function
  | [] -> acc
  | r :: rest ->
      rules_bits ~width ~id_bits (acc + rule_bits ~width ~id_bits (List.length r.switches)) rest

(* Whole downstream section: rules, terminator, default. Total: a rule with
   no switch identifiers counts its marker and bitmap, so sizing a down
   never raises before its writer reports the malformed rule. *)
let section_bits topo layer rules default =
  let width, id_bits = layer_widths topo layer in
  let rules_bits = rules_bits ~width ~id_bits 0 rules in
  let default_bits =
    match default with
    | Some _ -> default_rule_bits topo layer
    | None -> 1 (* just the absent flag *)
  in
  rules_bits + 1 (* section terminator *) + default_bits

(* The bit alignments at which a sender's full header reaches its down:
   the upstream leaf rule, the spine presence bit and rule, the core
   presence bit and bitmap. [Encoding.header_for_sender] sets a core rule
   only with a spine rule, so three prefix lengths occur; the down's wire
   is built at those alignments and at 0 (a down from the start of a
   buffer: a popped stage past the core). *)
let prefix_aligns topo =
  let u_spine =
    uprule_bits
      ~down_width:(Topology.spine_downstream_width topo)
      ~up_width:(Topology.spine_upstream_width topo)
  in
  let bare =
    uprule_bits
      ~down_width:(Topology.leaf_downstream_width topo)
      ~up_width:(Topology.leaf_upstream_width topo)
    + 2
  in
  let core = bare + u_spine + Topology.core_downstream_width topo in
  [ bare land 7; (bare + u_spine) land 7; core land 7 ]

(* {1 The downstream sections}

   A [down] is built only here, and building it writes its wire: the two
   sections, MSB-first from bit 0, through the zero-alloc {!Bitio.Sink}
   kernels below. The record is private, so no caller can pair a wire with
   other rules. *)

(* elmo-lint: zero-alloc *)
let rec write_ids s id_bits ids =
  match ids with
  | [] -> ()
  | [ id ] ->
      Bitio.Sink.bits s id id_bits;
      Bitio.Sink.bit s false
  | id :: rest ->
      Bitio.Sink.bits s id id_bits;
      Bitio.Sink.bit s true;
      write_ids s id_bits rest

(* elmo-lint: zero-alloc *)
let rec write_rules s width id_bits rules =
  match rules with
  | [] -> ()
  | r :: rest ->
      (match r.switches with
      | [] ->
          (* elmo-lint: allow zero-alloc — error path: raising Invalid_argument allocates *)
          invalid_arg "Prule.down: p-rule with no switch identifiers" (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
      | _ :: _ -> ());
      if Bitmap.width r.bitmap <> width then
        (* elmo-lint: allow zero-alloc — error path: raising Invalid_argument allocates *)
        invalid_arg "Prule.down: p-rule bitmap width mismatch"; (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
      Bitio.Sink.bit s true;
      Bitio.Sink.bitmap s r.bitmap;
      write_ids s id_bits r.switches;
      write_rules s width id_bits rest

(* elmo-lint: zero-alloc *)
let write_section s width id_bits rules default =
  write_rules s width id_bits rules;
  Bitio.Sink.bit s false;
  match default with
  | None -> Bitio.Sink.bit s false
  | Some bm ->
      if Bitmap.width bm <> width then
        (* elmo-lint: allow zero-alloc — error path: raising Invalid_argument allocates *)
        invalid_arg "Prule.down: default bitmap width mismatch"; (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
      Bitio.Sink.bit s true;
      Bitio.Sink.bitmap s bm

let down topo ~d_spine ~d_spine_default ~d_leaf ~d_leaf_default =
  let spine_bits = section_bits topo `Spine d_spine d_spine_default in
  let bits = spine_bits + section_bits topo `Leaf d_leaf d_leaf_default in
  let wire = Bytes.create ((bits + 7) / 8) in
  let s = Bitio.Sink.of_bytes wire in
  let spine_width, spine_id_bits = layer_widths topo `Spine in
  let leaf_width, leaf_id_bits = layer_widths topo `Leaf in
  write_section s spine_width spine_id_bits d_spine d_spine_default;
  write_section s leaf_width leaf_id_bits d_leaf d_leaf_default;
  ignore (Bitio.Sink.finish s : int);
  {
    d_spine;
    d_spine_default;
    d_leaf;
    d_leaf_default;
    spine_bits;
    bits;
    wire = Bitio.Run.make ~aligns:(prefix_aligns topo) wire ~len:bits;
  }

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

let header_bits topo header =
  u_leaf_bits topo + u_spine_bits topo header + core_bits topo header
  + header.downstream.bits

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
  | `U_leaf -> u_spine_bits topo header + core_bits topo header + header.downstream.bits
  | `U_spine -> core_bits topo header + header.downstream.bits
  | `Core -> header.downstream.bits
  | `D_spine -> header.downstream.bits - header.downstream.spine_bits
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
  let d = h.downstream in
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
    h.core pp_rules d.d_spine pp_default d.d_spine_default pp_rules d.d_leaf
    pp_default d.d_leaf_default (header_bytes topo h)
