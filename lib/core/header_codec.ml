let layer_widths topo = function
  | `Spine -> (Topology.spine_downstream_width topo, Topology.spine_id_bits topo)
  | `Leaf -> (Topology.leaf_downstream_width topo, Topology.leaf_id_bits topo)

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

(* {1 Per-section readers}

   One reader per section, each starting at the section's first bit. The
   decoders below are these readers in wire order. [Fabric.inject] reads
   its fields in place instead ([uprule_at] .. [default_at] below). *)

let read_uprule r ~down_width ~up_width =
  let down = Bitio.Reader.bitmap r down_width in
  let up = Bitio.Reader.bitmap r up_width in
  let multipath = Bitio.Reader.bit r in
  { Prule.down; up; multipath }

let read_u_leaf topo r =
  read_uprule r
    ~down_width:(Topology.leaf_downstream_width topo)
    ~up_width:(Topology.leaf_upstream_width topo)

let read_u_spine topo r =
  if Bitio.Reader.bit r then
    Some
      (read_uprule r
         ~down_width:(Topology.spine_downstream_width topo)
         ~up_width:(Topology.spine_upstream_width topo))
  else None

let read_core topo r =
  if Bitio.Reader.bit r then
    Some (Bitio.Reader.bitmap r (Topology.core_downstream_width topo))
  else None

(* A downstream section; [claim] sees every identifier as it is read, so
   the checked decoder can reject one before parsing on. *)
let section topo layer ~claim r =
  let width, id_bits = layer_widths topo layer in
  let rec ids acc =
    let id = Bitio.Reader.bits r id_bits in
    claim id;
    if Bitio.Reader.bit r then ids (id :: acc) else List.rev (id :: acc)
  in
  let rec rules acc =
    if Bitio.Reader.bit r then begin
      let bitmap = Bitio.Reader.bitmap r width in
      rules ({ Prule.bitmap; switches = ids [] } :: acc)
    end
    else List.rev acc
  in
  let rules = rules [] in
  let default =
    if Bitio.Reader.bit r then Some (Bitio.Reader.bitmap r width) else None
  in
  (rules, default)

let no_claim (_ : int) = ()
let unchecked _ = no_claim
let read_section topo layer r = section topo layer ~claim:no_claim r

(* {1 A downstream section read in place}

   The same section as [section], walked for its framing only: each rule's
   bitmap and the default are skipped, not built. [rule id at] sees every
   identifier with the bit offset of its rule's bitmap. Returns the
   default's offset, or -1; the reader ends after the section. *)

let rec walk_ids r id_bits rule at =
  rule (Bitio.Reader.bits r id_bits) at;
  if Bitio.Reader.bit r then walk_ids r id_bits rule at

let walk_section topo layer ~rule r =
  let width, id_bits = layer_widths topo layer in
  while Bitio.Reader.bit r do
    let at = Bitio.Reader.pos r in
    Bitio.Reader.skip r width;
    walk_ids r id_bits rule at
  done;
  if Bitio.Reader.bit r then begin
    let at = Bitio.Reader.pos r in
    Bitio.Reader.skip r width;
    at
  end
  else -1

(* Switches a downstream section can name: one logical spine per pod, or
   every leaf. *)
let layer_switches topo = function
  | `Spine -> topo.Topology.pods
  | `Leaf -> Topology.num_leaves topo

type section_index = { rule_at : int array; default_at : int }

let index_section topo layer r =
  let rule_at = Array.make (layer_switches topo layer) (-1) in
  let first id at =
    if id < Array.length rule_at && rule_at.(id) < 0 then rule_at.(id) <- at
  in
  let default_at = walk_section topo layer ~rule:first r in
  { rule_at; default_at }

let rule_offset ix id = if id < Array.length ix.rule_at then ix.rule_at.(id) else -1
let default_offset ix = ix.default_at

let skip_section topo layer r =
  ignore (walk_section topo layer ~rule:(fun _ _ -> ()) r : int)

let empty_uprule topo =
  {
    Prule.down = Bitmap.create (Topology.leaf_downstream_width topo);
    up = Bitmap.create (Topology.leaf_upstream_width topo);
    multipath = false;
  }

(* The sections remaining at [stage], in wire order; popped ones come back
   empty. [claim layer] checks the identifiers of each downstream section. *)
let read_stage ~claim topo stage r =
  let u_leaf = if has_u_leaf stage then read_u_leaf topo r else empty_uprule topo in
  let u_spine = if has_u_spine stage then read_u_spine topo r else None in
  let core = if has_core stage then read_core topo r else None in
  let d_spine, d_spine_default =
    if has_d_spine stage then section topo `Spine ~claim:(claim `Spine) r
    else ([], None)
  in
  let d_leaf, d_leaf_default = section topo `Leaf ~claim:(claim `Leaf) r in
  {
    Prule.u_leaf;
    u_spine;
    core;
    downstream = Prule.down topo ~d_spine ~d_spine_default ~d_leaf ~d_leaf_default;
  }

let stage_bits topo stage h =
  match stage with
  | Full -> Prule.header_bits topo h
  | After_u_leaf -> Prule.remaining_bits_after topo h `U_leaf
  | After_u_spine -> Prule.remaining_bits_after topo h `U_spine
  | After_core -> Prule.remaining_bits_after topo h `Core
  | After_d_spine -> Prule.remaining_bits_after topo h `D_spine

let decode_stage topo stage data =
  read_stage ~claim:unchecked topo stage (Bitio.Reader.of_bytes data)

let decode topo data = decode_stage topo Full data

let header_length topo data =
  let r = Bitio.Reader.of_bytes data in
  ignore (read_u_leaf topo r : Prule.uprule);
  ignore (read_u_spine topo r : Prule.uprule option);
  ignore (read_core topo r : Bitmap.t option);
  skip_section topo `Spine r;
  skip_section topo `Leaf r;
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

(* Each switch of the section's layer may be claimed once. *)
let claim_once topo layer =
  let spine = match layer with `Spine -> true | `Leaf -> false in
  let seen = Array.make (layer_switches topo layer) false in
  fun id ->
    if id >= Array.length seen then raise (Reject (Id_out_of_range { spine; id }));
    if seen.(id) then raise (Reject (Duplicate_id { spine; id }));
    seen.(id) <- true

let decode_checked topo data =
  match
    let r = Bitio.Reader.of_bytes data in
    let h = read_stage ~claim:(claim_once topo) topo Full r in
    (* Strict framing: at most the current byte's padding may remain, and
       it must be all-zero — a header buried in a longer hostile buffer is
       rejected rather than silently truncated. *)
    if Bitio.Reader.remaining r >= 8 then raise (Reject Trailing_bits);
    while Bitio.Reader.remaining r > 0 do
      if Bitio.Reader.bit r then raise (Reject Trailing_bits)
    done;
    h
  with
  | h -> Ok h
  | exception Reject e -> Error e
  | exception Bitio.Reader.Truncated -> Error Truncated

(* {1 Encoding}

   Every encoder writes the per-sender prefix (upstream rules and core)
   through the zero-alloc {!Bitio.Sink} kernels and then splices the
   down's pre-encoded sections after it ({!Bitio.Sink.append}): the
   downstream rules, the bulk of a header, are encoded once per
   {!Prule.down}, never per sender or per hop. [encode_into] writes into
   the caller's buffer, [encode]/[encode_stage] into a fresh buffer of
   exactly [stage_bits] bits (rounded up to bytes). *)

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

(* The sections remaining at [stage], outermost first: the prefix sections
   written field by field, then the down's bits from the first section
   still on the wire. *)
(* elmo-lint: zero-alloc *)
let write_stage_into topo stage (h : Prule.header) s =
  if has_u_leaf stage then
    write_uprule_into s
      ~down_width:(Topology.leaf_downstream_width topo)
      ~up_width:(Topology.leaf_upstream_width topo)
      h.Prule.u_leaf;
  if has_u_spine stage then write_u_spine_into topo s h.Prule.u_spine;
  if has_core stage then write_core_into s h.Prule.core;
  let d = h.Prule.downstream in
  Bitio.Run.append s d.Prule.wire
    ~off:(if has_d_spine stage then 0 else Prule.leaf_from d.Prule.index)

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

(* {1 A header as it leaves the sender}

   The bytes [encode] writes and the bit where each stage's first section
   starts, both taken from one header by [to_wire]: the type is abstract,
   so no offset can belong to other bytes. The down's index, shared by
   every sender of its version, holds the rest: where the leaf section
   starts, the wire's length and every downstream rule's offset. *)

type wire = {
  bytes : bytes;
  u_spine_at : int;
  core_at : int;
  d_spine_at : int;
  index : Prule.index;
}

let to_wire topo h =
  let bits = Prule.header_bits topo h in
  {
    bytes = encode topo h;
    u_spine_at = bits - Prule.remaining_bits_after topo h `U_leaf;
    core_at = bits - Prule.remaining_bits_after topo h `U_spine;
    d_spine_at = bits - Prule.remaining_bits_after topo h `Core;
    index = h.Prule.downstream.Prule.index;
  }

let wire_bytes w = w.bytes
let wire_bits w = w.d_spine_at + Prule.down_bits w.index

let stage_offset w = function
  | Full -> 0
  | After_u_leaf -> w.u_spine_at
  | After_u_spine -> w.core_at
  | After_core -> w.d_spine_at
  | After_d_spine -> w.d_spine_at + Prule.leaf_from w.index

(* A present section is longer than its presence bit; its field follows
   that bit. The down's offsets count from the down's first bit. *)

(* elmo-lint: zero-alloc *)
let uprule_at w = function
  | `Leaf -> 0
  | `Spine -> if w.core_at - w.u_spine_at > 1 then w.u_spine_at + 1 else -1

(* elmo-lint: zero-alloc *)
let core_at w = if w.d_spine_at - w.core_at > 1 then w.core_at + 1 else -1

(* elmo-lint: zero-alloc *)
let rule_at w layer id =
  let at = Prule.rule_at w.index layer id in
  if at < 0 then -1 else w.d_spine_at + at

(* elmo-lint: zero-alloc *)
let default_at w layer =
  let at = Prule.default_at w.index layer in
  if at < 0 then -1 else w.d_spine_at + at

let encode_parts topo (h : Prule.header) =
  (* One byte-aligned buffer per section/rule - the unit of a "write call"
     in the per-rule encapsulation path (§4.2). A downstream part is a
     slice of the down's wire: a rule's part is the one-rule section [r],
     the rule's bits then two zeros (terminator, no default); a section's
     last part is its terminator and default. *)
  let leaf_down = Topology.leaf_downstream_width topo in
  let leaf_up = Topology.leaf_upstream_width topo in
  let d = h.Prule.downstream in
  let slice ~off ~len ~bits =
    sink_bytes bits (fun s ->
        Bitio.Sink.append s (Bitio.Run.bytes d.Prule.wire) ~off ~len;
        Bitio.Sink.bits s 0 (bits - len))
  in
  let section layer rules ~off ~stop =
    let rec parts off = function
      | [] -> [ slice ~off ~len:(stop - off) ~bits:(stop - off) ]
      | (r : Prule.prule) :: rest ->
          let len =
            Prule.prule_bits topo layer ~nswitches:(List.length r.Prule.switches)
          in
          slice ~off ~len ~bits:(len + 2) :: parts (off + len) rest
    in
    parts off rules
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
  let spine_bits = Prule.leaf_from d.Prule.index in
  let d_spine = section `Spine d.Prule.d_spine ~off:0 ~stop:spine_bits in
  let d_leaf =
    section `Leaf d.Prule.d_leaf ~off:spine_bits ~stop:(Prule.down_bits d.Prule.index)
  in
  (u_leaf :: u_spine :: core :: d_spine) @ d_leaf
