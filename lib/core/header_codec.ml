let layer_widths topo = function
  | `Spine -> (Topology.spine_downstream_width topo, Topology.spine_id_bits topo)
  | `Leaf -> (Topology.leaf_downstream_width topo, Topology.leaf_id_bits topo)

let read_uprule r ~down_width ~up_width =
  let down = Bitio.Reader.bitmap r down_width in
  let up = Bitio.Reader.bitmap r up_width in
  let multipath = Bitio.Reader.bit r in
  { Prule.down; up; multipath }

let read_section topo r layer =
  let width, id_bits = layer_widths topo layer in
  let rec rules acc =
    if Bitio.Reader.bit r then begin
      let bitmap = Bitio.Reader.bitmap r width in
      let rec ids acc =
        let id = Bitio.Reader.bits r id_bits in
        if Bitio.Reader.bit r then ids (id :: acc) else List.rev (id :: acc)
      in
      rules ({ Prule.bitmap; switches = ids [] } :: acc)
    end
    else List.rev acc
  in
  let rules = rules [] in
  let default =
    if Bitio.Reader.bit r then Some (Bitio.Reader.bitmap r width) else None
  in
  (rules, default)

let encoded_size topo h = Prule.header_bytes topo h

type stage = Full | After_u_leaf | After_u_spine | After_core | After_d_spine

(* Which sections remain at each stage, outermost first:
   Full:          u_leaf, u_spine, core, d_spine, d_leaf
   After_u_leaf:          u_spine, core, d_spine, d_leaf
   After_u_spine:                  core, d_spine, d_leaf
   After_core:                           d_spine, d_leaf
   After_d_spine:                                 d_leaf *)

let has_u_leaf = function Full -> true | _ -> false

let has_u_spine = function Full | After_u_leaf -> true | _ -> false

let has_core = function
  | Full | After_u_leaf | After_u_spine -> true
  | After_core | After_d_spine -> false

let has_d_spine = function After_d_spine -> false | _ -> true

let empty_uprule topo =
  {
    Prule.down = Bitmap.create (Topology.leaf_downstream_width topo);
    up = Bitmap.create (Topology.leaf_upstream_width topo);
    multipath = false;
  }

let read_stage topo stage r =
  let u_leaf =
    if has_u_leaf stage then
      read_uprule r
        ~down_width:(Topology.leaf_downstream_width topo)
        ~up_width:(Topology.leaf_upstream_width topo)
    else empty_uprule topo
  in
  let u_spine =
    if has_u_spine stage && Bitio.Reader.bit r then
      Some
        (read_uprule r
           ~down_width:(Topology.spine_downstream_width topo)
           ~up_width:(Topology.spine_upstream_width topo))
    else None
  in
  let core =
    if has_core stage && Bitio.Reader.bit r then
      Some (Bitio.Reader.bitmap r (Topology.core_downstream_width topo))
    else None
  in
  let d_spine, d_spine_default =
    if has_d_spine stage then read_section topo r `Spine else ([], None)
  in
  let d_leaf, d_leaf_default = read_section topo r `Leaf in
  { Prule.u_leaf; u_spine; core; d_spine; d_spine_default; d_leaf; d_leaf_default }

let stage_bits topo stage h =
  match stage with
  | Full -> Prule.header_bits topo h
  | After_u_leaf -> Prule.remaining_bits_after topo h `U_leaf
  | After_u_spine -> Prule.remaining_bits_after topo h `U_spine
  | After_core -> Prule.remaining_bits_after topo h `Core
  | After_d_spine -> Prule.remaining_bits_after topo h `D_spine

let decode_stage topo stage data = read_stage topo stage (Bitio.Reader.of_bytes data)
let decode topo data = decode_stage topo Full data

let header_length topo data =
  let r = Bitio.Reader.of_bytes data in
  ignore (read_stage topo Full r : Prule.header);
  (Bitio.Reader.pos r + 7) / 8

(* {1 Hostile-input decoding}

   [decode] trusts its input — a flipped bit can raise [Truncated] or
   produce ids the fabric would misroute on. [decode_checked] is the total
   boundary for bytes of unknown provenance: it never raises, rejects any
   id outside the topology, any switch claimed by two rules of one section
   (which also bounds section size: a section can hold at most one rule
   mention per switch), and any nonzero or byte-plus trailing slack. What
   structural checking cannot rule out — a well-formed header that delivers
   to ports the group's intent does not cover — is the verify layer's job
   ([Verify.admit_header] subsumption). *)

type decode_error =
  | Truncated  (** input ends inside a field *)
  | Id_out_of_range of { spine : bool; id : int }
      (** a p-rule identifier beyond the topology's switch count *)
  | Duplicate_id of { spine : bool; id : int }
      (** one switch claimed by two rules of the same section *)
  | Trailing_bits
      (** more than a byte of slack after the header, or nonzero padding *)

let pp_decode_error ppf = function
  | Truncated -> Format.fprintf ppf "truncated header"
  | Id_out_of_range { spine; id } ->
      Format.fprintf ppf "%s id %d out of range"
        (if spine then "spine" else "leaf")
        id
  | Duplicate_id { spine; id } ->
      Format.fprintf ppf "duplicate %s id %d"
        (if spine then "spine" else "leaf")
        id
  | Trailing_bits -> Format.fprintf ppf "trailing bits after header"

exception Reject of decode_error

let checked_section topo r layer =
  let width, id_bits = layer_widths topo layer in
  let spine = match layer with `Spine -> true | `Leaf -> false in
  let count =
    match layer with
    | `Spine -> topo.Topology.pods
    | `Leaf -> Topology.num_leaves topo
  in
  let seen = Array.make count false in
  let rec rules acc =
    if Bitio.Reader.bit r then begin
      let bitmap = Bitio.Reader.bitmap r width in
      let rec ids acc_ids =
        let id = Bitio.Reader.bits r id_bits in
        if id >= count then raise (Reject (Id_out_of_range { spine; id }));
        if seen.(id) then raise (Reject (Duplicate_id { spine; id }));
        seen.(id) <- true;
        if Bitio.Reader.bit r then ids (id :: acc_ids)
        else List.rev (id :: acc_ids)
      in
      rules ({ Prule.bitmap; switches = ids [] } :: acc)
    end
    else List.rev acc
  in
  let rules = rules [] in
  let default =
    if Bitio.Reader.bit r then Some (Bitio.Reader.bitmap r width) else None
  in
  (rules, default)

let decode_checked topo data =
  match
    let r = Bitio.Reader.of_bytes data in
    let u_leaf =
      read_uprule r
        ~down_width:(Topology.leaf_downstream_width topo)
        ~up_width:(Topology.leaf_upstream_width topo)
    in
    let u_spine =
      if Bitio.Reader.bit r then
        Some
          (read_uprule r
             ~down_width:(Topology.spine_downstream_width topo)
             ~up_width:(Topology.spine_upstream_width topo))
      else None
    in
    let core =
      if Bitio.Reader.bit r then
        Some (Bitio.Reader.bitmap r (Topology.core_downstream_width topo))
      else None
    in
    let d_spine, d_spine_default = checked_section topo r `Spine in
    let d_leaf, d_leaf_default = checked_section topo r `Leaf in
    (* Strict framing: at most the current byte's padding may remain, and
       it must be all-zero — a header buried in a longer hostile buffer is
       rejected rather than silently truncated. *)
    if Bitio.Reader.remaining r >= 8 then raise (Reject Trailing_bits);
    while Bitio.Reader.remaining r > 0 do
      if Bitio.Reader.bit r then raise (Reject Trailing_bits)
    done;
    {
      Prule.u_leaf;
      u_spine;
      core;
      d_spine;
      d_spine_default;
      d_leaf;
      d_leaf_default;
    }
  with
  | h -> Ok h
  | exception Reject e -> Error e
  | exception Bitio.Reader.Truncated -> Error Truncated

(* {1 Encoding}

   Every encoder writes through a {!Bitio.Sink} with the zero-alloc kernels
   below: [encode_into] into the caller's buffer, [encode]/[encode_stage]
   into a fresh buffer of exactly [stage_bits] bits (rounded up to bytes),
   so the header is written once and never copied. The size accounting
   ({!Prule}) is total; a malformed rule is reported by the writer, with
   its own message, before the buffer could overflow. *)

(* elmo-lint: zero-alloc *)
let rec write_ids_into s id_bits ids =
  match ids with
  | [] -> ()
  | [ id ] ->
      Bitio.Sink.bits s id id_bits;
      Bitio.Sink.bit s false
  | id :: rest ->
      Bitio.Sink.bits s id id_bits;
      Bitio.Sink.bit s true;
      write_ids_into s id_bits rest

(* elmo-lint: zero-alloc *)
let rec write_rules_into s width id_bits rules =
  match rules with
  | [] -> ()
  | r :: rest ->
      (match r.Prule.switches with
      | [] ->
          (* elmo-lint: allow zero-alloc — error path: raising Invalid_argument allocates *)
          invalid_arg "Header_codec: p-rule with no switch identifiers" (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
      | _ :: _ -> ());
      if Bitmap.width r.Prule.bitmap <> width then
        (* elmo-lint: allow zero-alloc — error path: raising Invalid_argument allocates *)
        invalid_arg "Header_codec: p-rule bitmap width mismatch"; (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
      Bitio.Sink.bit s true;
      Bitio.Sink.bitmap s r.Prule.bitmap;
      write_ids_into s id_bits r.Prule.switches;
      write_rules_into s width id_bits rest

(* elmo-lint: zero-alloc *)
let write_section_into s width id_bits rules default =
  write_rules_into s width id_bits rules;
  Bitio.Sink.bit s false;
  match default with
  | None -> Bitio.Sink.bit s false
  | Some bm ->
      if Bitmap.width bm <> width then
        (* elmo-lint: allow zero-alloc — error path: raising Invalid_argument allocates *)
        invalid_arg "Header_codec: default bitmap width mismatch"; (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
      Bitio.Sink.bit s true;
      Bitio.Sink.bitmap s bm

(* elmo-lint: zero-alloc *)
let write_uprule_into s ~down_width ~up_width (u : Prule.uprule) =
  if
    Bitmap.width u.Prule.down <> down_width
    || Bitmap.width u.Prule.up <> up_width
  then
    (* elmo-lint: allow zero-alloc — error path: raising Invalid_argument allocates *)
    invalid_arg "Header_codec: upstream rule width mismatch"; (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
  Bitio.Sink.bitmap s u.Prule.down;
  Bitio.Sink.bitmap s u.Prule.up;
  Bitio.Sink.bit s u.Prule.multipath

(* elmo-lint: zero-alloc *)
let write_u_spine_into topo s (u_spine : Prule.uprule option) =
  match u_spine with
  | None -> Bitio.Sink.bit s false
  | Some u ->
      Bitio.Sink.bit s true;
      write_uprule_into s
        ~down_width:(Topology.spine_downstream_width topo)
        ~up_width:(Topology.spine_upstream_width topo)
        u

(* elmo-lint: zero-alloc *)
let write_core_into s core =
  match core with
  | None -> Bitio.Sink.bit s false
  | Some bm ->
      Bitio.Sink.bit s true;
      Bitio.Sink.bitmap s bm

(* The sections remaining at [stage], outermost first. *)
(* elmo-lint: zero-alloc *)
let write_stage_into topo stage (h : Prule.header) s =
  if has_u_leaf stage then
    write_uprule_into s
      ~down_width:(Topology.leaf_downstream_width topo)
      ~up_width:(Topology.leaf_upstream_width topo)
      h.Prule.u_leaf;
  if has_u_spine stage then write_u_spine_into topo s h.Prule.u_spine;
  if has_core stage then write_core_into s h.Prule.core;
  if has_d_spine stage then
    write_section_into s
      (Topology.spine_downstream_width topo)
      (Topology.spine_id_bits topo)
      h.Prule.d_spine h.Prule.d_spine_default;
  write_section_into s
    (Topology.leaf_downstream_width topo)
    (Topology.leaf_id_bits topo)
    h.Prule.d_leaf h.Prule.d_leaf_default

(* elmo-lint: zero-alloc *)
let encode_into topo h s =
  write_stage_into topo Full h s;
  Bitio.Sink.finish s

(* A fresh buffer of exactly [bits] bits, filled by [write]. *)
let sink_bytes bits write =
  let b = Bytes.create ((bits + 7) / 8) in
  let s = Bitio.Sink.of_bytes b in
  write s;
  ignore (Bitio.Sink.finish s : int);
  b

let encode_stage topo stage h =
  sink_bytes (stage_bits topo stage h) (write_stage_into topo stage h)

let encode topo h = encode_stage topo Full h

let encode_parts topo (h : Prule.header) =
  (* One byte-aligned buffer per section/rule - the unit of a "write call"
     in the per-rule encapsulation path (§4.2). Built in wire order, so a
     malformed header fails on its first defect as [encode] does. *)
  let leaf_down = Topology.leaf_downstream_width topo in
  let leaf_up = Topology.leaf_upstream_width topo in
  let section layer rules default =
    let width, id_bits = layer_widths topo layer in
    let part rules default =
      sink_bytes (Prule.section_bits topo layer rules default) (fun s ->
          write_section_into s width id_bits rules default)
    in
    let rule_parts = List.map (fun r -> part [ r ] None) rules in
    rule_parts @ [ part [] default ]
  in
  let u_leaf =
    sink_bytes (Prule.uprule_bits ~down_width:leaf_down ~up_width:leaf_up) (fun s ->
        write_uprule_into s ~down_width:leaf_down ~up_width:leaf_up h.Prule.u_leaf)
  in
  (* A section's size is the difference between the stages either side of it. *)
  let u_spine =
    sink_bytes (stage_bits topo After_u_leaf h - stage_bits topo After_u_spine h)
      (fun s -> write_u_spine_into topo s h.Prule.u_spine)
  in
  let core =
    sink_bytes (stage_bits topo After_u_spine h - stage_bits topo After_core h)
      (fun s -> write_core_into s h.Prule.core)
  in
  let d_spine = section `Spine h.Prule.d_spine h.Prule.d_spine_default in
  let d_leaf = section `Leaf h.Prule.d_leaf h.Prule.d_leaf_default in
  (u_leaf :: u_spine :: core :: d_spine) @ d_leaf

let encode_per_rule_writes topo h =
  Bytes.concat Bytes.empty (encode_parts topo h)
