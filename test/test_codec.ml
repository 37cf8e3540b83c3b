let topo = Topology.running_example ()
let fabric = Topology.facebook_fabric ()

(* Leaf bitmaps wider than one 63-bit bitmap word. *)
let wide =
  Topology.create ~pods:3 ~leaves_per_pod:20 ~spines_per_pod:2 ~hosts_per_leaf:70
    ~cores_per_plane:1

(* The topologies of the fabric's golden digest. *)
let golden_topos =
  [|
    topo;
    Topology.create ~pods:6 ~leaves_per_pod:10 ~spines_per_pod:3
      ~hosts_per_leaf:12 ~cores_per_plane:4;
    wide;
  |]

(* Reference encoder: every section of Figure 2 walked field by field into
   a list of bits, then packed MSB-first and zero-padded. It shares nothing
   with the codec: no [Bitio], no cached down wire. *)
let reference_bits t (h : Prule.header) =
  let out = ref [] in
  let bit b = out := b :: !out in
  let bits v n =
    for i = n - 1 downto 0 do
      bit ((v lsr i) land 1 = 1)
    done
  in
  let bitmap bm =
    for i = 0 to Bitmap.width bm - 1 do
      bit (Bitmap.get bm i)
    done
  in
  let opt f = function
    | None -> bit false
    | Some x ->
        bit true;
        f x
  in
  let uprule (u : Prule.uprule) =
    bitmap u.Prule.down;
    bitmap u.Prule.up;
    bit u.Prule.multipath
  in
  let section id_bits rules default =
    List.iter
      (fun (r : Prule.prule) ->
        bit true;
        bitmap r.Prule.bitmap;
        let last = List.length r.Prule.switches - 1 in
        List.iteri
          (fun i id ->
            bits id id_bits;
            bit (i < last))
          r.Prule.switches)
      rules;
    bit false;
    opt bitmap default
  in
  let d = h.Prule.downstream in
  uprule h.Prule.u_leaf;
  opt uprule h.Prule.u_spine;
  opt bitmap h.Prule.core;
  section (Topology.spine_id_bits t) d.Prule.d_spine d.Prule.d_spine_default;
  section (Topology.leaf_id_bits t) d.Prule.d_leaf d.Prule.d_leaf_default;
  List.rev !out

let pack bits =
  let b = Bytes.make ((List.length bits + 7) / 8) '\000' in
  List.iteri
    (fun i set ->
      if set then
        Bytes.set b (i / 8)
          (Char.chr (Char.code (Bytes.get b (i / 8)) lor (0x80 lsr (i mod 8)))))
    bits;
  b

let reference_encode t h = pack (reference_bits t h)

(* The first [n] bits of [b], MSB-first. *)
let unpack b n =
  List.init n (fun i -> Char.code (Bytes.get b (i / 8)) land (0x80 lsr (i mod 8)) <> 0)

(* Random well-formed headers for a topology. *)
let gen_header t =
  let open QCheck.Gen in
  let bitmap width =
    list_size (int_range 0 (min width 8)) (int_range 0 (width - 1))
    >>= fun bits -> return (Bitmap.of_list width bits)
  in
  let uprule ~down ~up =
    bitmap down >>= fun d ->
    bitmap up >>= fun u ->
    bool >>= fun m -> return { Prule.down = d; up = u; multipath = m }
  in
  let prules layer =
    let width, max_id =
      match layer with
      | `Spine -> (Topology.spine_downstream_width t, t.Topology.pods - 1)
      | `Leaf -> (Topology.leaf_downstream_width t, Topology.num_leaves t - 1)
    in
    list_size (int_range 0 4)
      ( bitmap width >>= fun bm ->
        list_size (int_range 1 3) (int_range 0 max_id) >>= fun ids ->
        return { Prule.bitmap = bm; switches = List.sort_uniq compare ids } )
  in
  let opt g = bool >>= fun p -> if p then g >>= fun x -> return (Some x) else return None in
  uprule ~down:(Topology.leaf_downstream_width t) ~up:(Topology.leaf_upstream_width t)
  >>= fun u_leaf ->
  opt (uprule ~down:(Topology.spine_downstream_width t) ~up:(Topology.spine_upstream_width t))
  >>= fun u_spine ->
  opt (bitmap (Topology.core_downstream_width t)) >>= fun core ->
  prules `Spine >>= fun d_spine ->
  opt (bitmap (Topology.spine_downstream_width t)) >>= fun d_spine_default ->
  prules `Leaf >>= fun d_leaf ->
  opt (bitmap (Topology.leaf_downstream_width t)) >>= fun d_leaf_default ->
  return
    {
      Prule.u_leaf;
      u_spine;
      core;
      downstream = Prule.down t ~d_spine ~d_spine_default ~d_leaf ~d_leaf_default;
    }

let arb_header t =
  QCheck.make
    ~print:(fun h -> Format.asprintf "%a" (Prule.pp t) h)
    (gen_header t)

let stages =
  Header_codec.
    [ Full; After_u_leaf; After_u_spine; After_core; After_d_spine ]

let prop_roundtrip t name =
  QCheck.Test.make ~name ~count:300 (arb_header t) (fun h ->
      Header_codec.decode t (Header_codec.encode t h) = h)

let prop_size_accounting t name =
  QCheck.Test.make ~name ~count:300 (arb_header t) (fun h ->
      Bytes.length (Header_codec.encode t h) = Prule.header_bytes t h)

let prop_stage_sizes t name =
  QCheck.Test.make ~name ~count:200 (arb_header t) (fun h ->
      List.for_all
        (fun stage ->
          Bytes.length (Header_codec.encode_stage t stage h)
          = (Header_codec.stage_bits t stage h + 7) / 8)
        stages)

let prop_stage_roundtrip t name =
  (* Decoding a popped header recovers the remaining sections exactly. *)
  QCheck.Test.make ~name ~count:200 (arb_header t) (fun h ->
      let check stage =
        let h' =
          Header_codec.decode_stage t stage (Header_codec.encode_stage t stage h)
        in
        let d = h.Prule.downstream and d' = h'.Prule.downstream in
        match stage with
        | Header_codec.Full -> h' = h
        | Header_codec.After_u_leaf ->
            h'.Prule.u_spine = h.Prule.u_spine
            && h'.Prule.core = h.Prule.core
            && d'.Prule.d_spine = d.Prule.d_spine
            && d'.Prule.d_leaf = d.Prule.d_leaf
        | Header_codec.After_u_spine ->
            h'.Prule.core = h.Prule.core && d'.Prule.d_leaf = d.Prule.d_leaf
        | Header_codec.After_core ->
            h'.Prule.core = None && d'.Prule.d_spine = d.Prule.d_spine
        | Header_codec.After_d_spine ->
            d'.Prule.d_spine = []
            && d'.Prule.d_leaf = d.Prule.d_leaf
            && d'.Prule.d_leaf_default = d.Prule.d_leaf_default
      in
      List.for_all check stages)

(* The symbolic meaning survives the wire: encoding then decoding an
   arbitrary header preserves its delivery predicate under the header-only
   interpretation ([Verify.header_pred]), for any sender position. Stronger
   than structural equality alone would suggest: it pins down that the
   codec cannot reorder, merge or drop rules in a way that changes what any
   switch would forward. *)
let prop_predicate_roundtrip t name =
  let arb = QCheck.pair (arb_header t) (QCheck.int_range 0 (Topology.num_hosts t - 1)) in
  QCheck.Test.make ~name ~count:300 arb (fun (h, sender) ->
      let ctx = Pred.create_ctx () in
      let before = Verify.header_pred ctx t ~sender h in
      let after =
        Verify.header_pred ctx t ~sender
          (Header_codec.decode t (Header_codec.encode t h))
      in
      Verify.equiv before after)

(* [encode] against the reference walk: the prefix written field by field
   and the spliced down together are the header's bits, for any sender
   prefix length (so any alignment of the down's pre-shifted copies). *)
let prop_reference_walk t name =
  QCheck.Test.make ~name ~count:300 (arb_header t) (fun h ->
      Bytes.equal (Header_codec.encode t h) (reference_encode t h))

(* Every popped stage is the bit-suffix of the full wire at offset
   [header_bits - stage_bits], zero-padded: a stage is an offset view of
   the one wire, which is what [Fabric.inject] parses. *)
let prop_stage_suffix t name =
  QCheck.Test.make ~name ~count:300 (arb_header t) (fun h ->
      let full = Header_codec.encode t h in
      let full_bits = Prule.header_bits t h in
      let bits = unpack full full_bits in
      List.for_all
        (fun stage ->
          let stage_bits = Header_codec.stage_bits t stage h in
          let suffix = List.filteri (fun i _ -> i >= full_bits - stage_bits) bits in
          Bytes.equal (Header_codec.encode_stage t stage h) (pack suffix))
        stages)

let prop_popped_smaller t name =
  QCheck.Test.make ~name ~count:200 (arb_header t) (fun h ->
      let size stage = Bytes.length (Header_codec.encode_stage t stage h) in
      size Header_codec.Full >= size Header_codec.After_u_leaf
      && size Header_codec.After_u_leaf >= size Header_codec.After_u_spine
      && size Header_codec.After_u_spine >= size Header_codec.After_core
      && size Header_codec.After_core >= size Header_codec.After_d_spine)

(* A malformed downstream rule cannot become part of a header: building
   its down is what encodes it, so that is where it is rejected. *)
let test_empty_rule_list_rejected () =
  Alcotest.check_raises "empty switches"
    (Invalid_argument "Prule.down: p-rule with no switch identifiers") (fun () ->
      ignore
        (Prule.down topo ~d_spine:[] ~d_spine_default:None
           ~d_leaf:[ { Prule.bitmap = Bitmap.create 8; switches = [] } ]
           ~d_leaf_default:None))

let test_wrong_width_rejected () =
  let bad =
    {
      Prule.u_leaf =
        {
          Prule.down = Bitmap.create 3;
          up = Bitmap.create (Topology.leaf_upstream_width topo);
          multipath = false;
        };
      u_spine = None;
      core = None;
      downstream =
        Prule.down topo ~d_spine:[] ~d_spine_default:None ~d_leaf:[]
          ~d_leaf_default:None;
    }
  in
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Header_codec: upstream rule width mismatch") (fun () ->
      ignore (Header_codec.encode topo bad))

let test_truncated_decode_raises () =
  let enc, _ =
    let tree = Tree.of_members topo [ 0; 1; 12; 42 ] in
    let srules = Srule_state.create topo ~fmax:10 in
    (Encoding.encode Params.default srules tree, srules)
  in
  let hd = Encoding.header_for_sender enc ~sender:0 in
  let bytes = Header_codec.encode topo hd in
  let truncated = Bytes.sub bytes 0 (Bytes.length bytes - 1) in
  Alcotest.check_raises "truncated" Bitio.Reader.Truncated (fun () ->
      ignore (Header_codec.decode topo truncated))

let tests =
  [
    QCheck_alcotest.to_alcotest (prop_roundtrip topo "roundtrip (example topo)");
    QCheck_alcotest.to_alcotest (prop_roundtrip fabric "roundtrip (fabric)");
    QCheck_alcotest.to_alcotest
      (prop_size_accounting topo "size accounting (example topo)");
    QCheck_alcotest.to_alcotest (prop_size_accounting fabric "size accounting (fabric)");
    QCheck_alcotest.to_alcotest
      (prop_predicate_roundtrip topo "predicate unchanged by codec (example topo)");
    QCheck_alcotest.to_alcotest
      (prop_predicate_roundtrip fabric "predicate unchanged by codec (fabric)");
    QCheck_alcotest.to_alcotest (prop_stage_sizes topo "stage sizes (example topo)");
    QCheck_alcotest.to_alcotest (prop_stage_roundtrip topo "stage roundtrip");
    QCheck_alcotest.to_alcotest (prop_popped_smaller topo "popping shrinks the wire");
    Alcotest.test_case "empty rule list rejected" `Quick test_empty_rule_list_rejected;
    Alcotest.test_case "wrong width rejected" `Quick test_wrong_width_rejected;
    Alcotest.test_case "truncated decode raises" `Quick test_truncated_decode_raises;
  ]

(* Robustness: arbitrary bytes from the wire either decode or raise
   [Truncated] — no other exception can escape the parser. *)
let prop_decode_never_crashes =
  QCheck.Test.make ~name:"decode of random bytes is total (or Truncated)"
    ~count:500
    QCheck.(string_of_size Gen.(int_range 0 64))
    (fun s ->
      match Header_codec.decode topo (Bytes.of_string s) with
      | (_ : Prule.header) -> true
      | exception Bitio.Reader.Truncated -> true)

let prop_decode_stage_never_crashes =
  QCheck.Test.make ~name:"stage decode of random bytes is total (or Truncated)"
    ~count:500
    QCheck.(pair (int_range 0 4) (string_of_size Gen.(int_range 0 64)))
    (fun (stage_idx, s) ->
      let stage = List.nth stages stage_idx in
      match Header_codec.decode_stage topo stage (Bytes.of_string s) with
      | (_ : Prule.header) -> true
      | exception Bitio.Reader.Truncated -> true)

(* A header cut anywhere inside it is rejected, never raised: every strict
   byte prefix of a structurally valid encoding decodes (checked) to
   [Error Truncated]. Run on a fabric whose leaf bitmaps straddle a 63-bit
   bitmap word, so cuts land inside wide bitmap fields. *)
let prop_prefix_truncated =
  QCheck.Test.make ~name:"checked decode of a cut header is Truncated" ~count:200
    (arb_header wide) (fun h ->
      let b = Header_codec.encode wide h in
      match Header_codec.decode_checked wide b with
      | Error _ -> QCheck.assume_fail ()
      | Ok _ ->
          List.for_all
            (fun keep ->
              Header_codec.decode_checked wide (Bytes.sub b 0 keep)
              = Error Header_codec.Truncated)
            (List.init (Bytes.length b) Fun.id))

(* The in-place reader against the list reader: for every switch of each
   downstream layer, the bitmap at the index's offset is the one
   [List.find_opt] picks from [read_section]'s rules (the first rule naming
   the switch), read both as a bitmap and port by port; the default's
   offset reads back the default; both readers end at the same bit. The
   index the down built with its wire ([Header_codec.rule_at],
   [default_at]) gives the parser's offsets for every switch, and -1 past
   the layer. *)
let prop_index_section t name =
  QCheck.Test.make ~name ~count:300 (arb_header t) (fun h ->
      let w = Header_codec.to_wire t h in
      let b = Header_codec.wire_bytes w in
      let at_offset stage =
        let r = Bitio.Reader.of_bytes b in
        Bitio.Reader.seek r (Header_codec.stage_offset w stage);
        r
      in
      let read width off =
        if off < 0 then None
        else begin
          let r = Bitio.Reader.of_bytes b in
          Bitio.Reader.seek r off;
          let bm = Bitio.Reader.bitmap r width in
          let rec ports p =
            if p < 0 then [] else p :: ports (Bitio.Reader.next_set b ~off width (p + 1))
          in
          if ports (Bitio.Reader.next_set b ~off width 0) <> Bitmap.to_list bm then
            QCheck.Test.fail_reportf "next_set at %d disagrees with bitmap" off;
          Some bm
        end
      in
      let same = Option.equal Bitmap.equal in
      let check layer stage ~width ~switches =
        let r = at_offset stage and r' = at_offset stage in
        let rules, default = Header_codec.read_section t layer r in
        let ix = Header_codec.index_section t layer r' in
        Bitio.Reader.pos r = Bitio.Reader.pos r'
        && same (read width (Header_codec.default_offset ix)) default
        && Header_codec.default_at w layer = Header_codec.default_offset ix
        && Header_codec.rule_offset ix switches = -1
        && List.for_all
             (fun id -> Header_codec.rule_at w layer id = Header_codec.rule_offset ix id)
             (List.init (switches + 1) Fun.id)
        && List.for_all
             (fun id ->
               same
                 (read width (Header_codec.rule_offset ix id))
                 (Option.map
                    (fun (p : Prule.prule) -> p.Prule.bitmap)
                    (List.find_opt (fun (p : Prule.prule) -> List.mem id p.Prule.switches) rules)))
             (List.init switches Fun.id)
      in
      check `Spine Header_codec.After_core ~width:(Topology.spine_downstream_width t)
        ~switches:t.Topology.pods
      && check `Leaf Header_codec.After_d_spine ~width:(Topology.leaf_downstream_width t)
           ~switches:(Topology.num_leaves t))

(* [header_length] finds where a header ends in front of any payload, and
   a header cut anywhere inside raises [Truncated] and nothing else. *)
let prop_header_length t name =
  QCheck.Test.make ~name ~count:200
    (QCheck.pair (arb_header t) QCheck.(string_of_size Gen.(int_range 0 24)))
    (fun (h, payload) ->
      let b = Header_codec.encode t h in
      Header_codec.header_length t (Bytes.cat b (Bytes.of_string payload)) = Bytes.length b
      && List.for_all
           (fun keep ->
             match Header_codec.header_length t (Bytes.sub b 0 keep) with
             | (_ : int) -> false
             | exception Bitio.Reader.Truncated -> true)
           (List.init (Bytes.length b) Fun.id))

let golden_props prop what =
  Array.to_list
    (Array.mapi
       (fun i t ->
         QCheck_alcotest.to_alcotest (prop t (Printf.sprintf "%s (golden topo %d)" what i)))
       golden_topos)

let tests =
  tests
  @ golden_props prop_reference_walk "encode = reference section walk"
  @ golden_props prop_stage_suffix "stage = bit-suffix of the full wire"
  @ golden_props prop_index_section "section index = first rule naming the switch"
  @ golden_props prop_header_length "header_length skips the header"
  @ [
      QCheck_alcotest.to_alcotest prop_prefix_truncated;
      QCheck_alcotest.to_alcotest prop_decode_never_crashes;
      QCheck_alcotest.to_alcotest prop_decode_stage_never_crashes;
    ]
