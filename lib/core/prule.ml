type uprule = { down : Bitmap.t; up : Bitmap.t; multipath : bool }
type prule = { bitmap : Bitmap.t; switches : int list }

(* One int array: the spine and leaf defaults' offsets, where the leaf
   section starts, the down's length, how many spine entries follow; then
   the spine section's entries and the leaf section's, each ascending (see
   [index] below). *)
type index = int array

type down = {
  d_spine : prule list;
  d_spine_default : Bitmap.t option;
  d_leaf : prule list;
  d_leaf_default : Bitmap.t option;
  wire : Bitio.Run.t;
  index : index;
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

(* {2 Where each switch's rule lies}

   A section's rule [k] starts with its marker bit, so its bitmap lies one
   bit after the sizes of the rules before it; the default's bitmap, when
   present, ends the section. A switch's entry is the
   first rule naming it, packed into one int: the id in the high bits, the
   bitmap's offset in the low [pack_shift]. Entries sort by id and, within
   an id, by offset, which is section order. *)

let pack_shift = 32
let offset_mask = (1 lsl pack_shift) - 1
let id_of entry = entry lsr pack_shift

(* The header slots, then the entries from [entries_from]. *)
let spine_default_slot = 0
let leaf_default_slot = 1
let leaf_from_slot = 2
let bits_slot = 3
let spines_slot = 4
let entries_from = 5

let rec put_ids (ix : index) k at = function
  | [] -> k
  | id :: rest ->
      ix.(k) <- (id lsl pack_shift) lor at;
      put_ids ix (k + 1) at rest

(* The entries of [rules], the first rule starting at bit [at], into
   [ix] from slot [k]; returns the slot after the last. *)
let rec put_rules ix k ~width ~id_bits at = function
  | [] -> k
  | r :: rest ->
      let k = put_ids ix k (at + 1) r.switches in
      put_rules ix k ~width ~id_bits (at + rule_bits ~width ~id_bits (List.length r.switches)) rest

(* Sorts [ix.(lo) .. ix.(hi - 1)] by insertion, at [int]: a section
   names a handful of switches. *)
let sort_entries (ix : index) lo hi =
  for i = lo + 1 to hi - 1 do
    let e = ix.(i) in
    let j = ref (i - 1) in
    while !j >= lo && ix.(!j) > e do
      ix.(!j + 1) <- ix.(!j);
      decr j
    done;
    ix.(!j + 1) <- e
  done

(* Keeps the first entry of each id of the sorted [ix.(lo) .. ix.(hi -
   1)], moved down from [lo]; returns the slot after the last kept. *)
let rec keep_firsts (ix : index) lo i hi kept =
  if i >= hi then kept
  else if kept > lo && id_of ix.(kept - 1) = id_of ix.(i) then keep_firsts ix lo (i + 1) hi kept
  else begin
    ix.(kept) <- ix.(i);
    keep_firsts ix lo (i + 1) hi (kept + 1)
  end

(* The section in bits [from, until) into [ix] from slot [k]: its
   entries, ascending, one per switch; returns the slot after them and the
   default's offset (or -1), the section's last [width] bits. *)
let put_section topo layer ix k ~from ~until rules default =
  let width, id_bits = layer_widths topo layer in
  let stop = put_rules ix k ~width ~id_bits from rules in
  sort_entries ix k stop;
  (keep_firsts ix k k stop k, match default with None -> -1 | Some _ -> until - width)

let index topo ~spine_bits ~bits ~d_spine ~d_spine_default ~d_leaf ~d_leaf_default =
  let ids rules = List.fold_left (fun n r -> n + List.length r.switches) 0 rules in
  let ix = Array.make (entries_from + ids d_spine + ids d_leaf) 0 in
  let spine_end, spine_default =
    put_section topo `Spine ix entries_from ~from:0 ~until:spine_bits d_spine d_spine_default
  in
  let leaf_end, leaf_default =
    put_section topo `Leaf ix spine_end ~from:spine_bits ~until:bits d_leaf d_leaf_default
  in
  ix.(spine_default_slot) <- spine_default;
  ix.(leaf_default_slot) <- leaf_default;
  ix.(leaf_from_slot) <- spine_bits;
  ix.(bits_slot) <- bits;
  ix.(spines_slot) <- spine_end - entries_from;
  if leaf_end = Array.length ix then ix else Array.sub ix 0 leaf_end

(* elmo-lint: zero-alloc *)
let entry_offset (ix : index) id ~lo ~hi =
  let i = Int_array.lower_bound ix (id lsl pack_shift) ~lo ~hi in
  if i <= hi && id_of (Array.unsafe_get ix i) = id then Array.unsafe_get ix i land offset_mask
  else -1

(* elmo-lint: zero-alloc *)
let rule_at (ix : index) layer id =
  let spines = Array.unsafe_get ix spines_slot in
  match layer with
  | `Spine -> entry_offset ix id ~lo:entries_from ~hi:(entries_from + spines - 1)
  | `Leaf -> entry_offset ix id ~lo:(entries_from + spines) ~hi:(Array.length ix - 1)

(* elmo-lint: zero-alloc *)
let default_at (ix : index) = function
  | `Spine -> Array.unsafe_get ix spine_default_slot
  | `Leaf -> Array.unsafe_get ix leaf_default_slot

(* elmo-lint: zero-alloc *)
let leaf_from (ix : index) = Array.unsafe_get ix leaf_from_slot

(* elmo-lint: zero-alloc *)
let down_bits (ix : index) = Array.unsafe_get ix bits_slot

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
    wire = Bitio.Run.make ~aligns:(prefix_aligns topo) wire ~len:bits;
    index = index topo ~spine_bits ~bits ~d_spine ~d_spine_default ~d_leaf ~d_leaf_default;
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
  + down_bits header.downstream.index

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
  | `U_leaf -> u_spine_bits topo header + core_bits topo header + down_bits header.downstream.index
  | `U_spine -> core_bits topo header + down_bits header.downstream.index
  | `Core -> down_bits header.downstream.index
  | `D_spine -> down_bits header.downstream.index - leaf_from header.downstream.index
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
