(* Bit-level writer/reader roundtrips: the substrate of the wire codec. *)

type field = Bit of bool | Bits of int * int (* value, width *) | Bm of int list * int

let write_field w = function
  | Bit b -> Bitio.Writer.bit w b
  | Bits (v, n) -> Bitio.Writer.bits w v n
  | Bm (bits, width) -> Bitio.Writer.bitmap w (Bitmap.of_list width bits)

let test_simple_roundtrip () =
  let w = Bitio.Writer.create () in
  Bitio.Writer.bit w true;
  Bitio.Writer.bits w 0b1011 4;
  Bitio.Writer.bit w false;
  Bitio.Writer.bits w 1023 10;
  let bytes = Bitio.Writer.to_bytes w in
  Alcotest.(check int) "bit length" 16 (Bitio.Writer.bit_length w);
  Alcotest.(check int) "byte length" 2 (Bytes.length bytes);
  let r = Bitio.Reader.of_bytes bytes in
  Alcotest.(check bool) "bit 1" true (Bitio.Reader.bit r);
  Alcotest.(check int) "bits 4" 0b1011 (Bitio.Reader.bits r 4);
  Alcotest.(check bool) "bit 0" false (Bitio.Reader.bit r);
  Alcotest.(check int) "bits 10" 1023 (Bitio.Reader.bits r 10)

let test_bitmap_roundtrip () =
  let bm = Bitmap.of_list 13 [ 0; 5; 12 ] in
  let w = Bitio.Writer.create () in
  Bitio.Writer.bits w 5 3;
  Bitio.Writer.bitmap w bm;
  let r = Bitio.Reader.of_bytes (Bitio.Writer.to_bytes w) in
  Alcotest.(check int) "prefix" 5 (Bitio.Reader.bits r 3);
  Alcotest.(check bool) "bitmap" true (Bitmap.equal bm (Bitio.Reader.bitmap r 13))

let test_align () =
  let w = Bitio.Writer.create () in
  Bitio.Writer.bits w 3 3;
  Bitio.Writer.align_byte w;
  Alcotest.(check int) "aligned to 8" 8 (Bitio.Writer.bit_length w);
  Bitio.Writer.bits w 1 1;
  let r = Bitio.Reader.of_bytes (Bitio.Writer.to_bytes w) in
  Alcotest.(check int) "read prefix" 3 (Bitio.Reader.bits r 3);
  Bitio.Reader.align_byte r;
  Alcotest.(check int) "pos after align" 8 (Bitio.Reader.pos r);
  Alcotest.(check bool) "bit after align" true (Bitio.Reader.bit r)

let test_value_too_large () =
  let w = Bitio.Writer.create () in
  Alcotest.check_raises "value does not fit"
    (Invalid_argument "Bitio.Writer.bits: value does not fit") (fun () ->
      Bitio.Writer.bits w 16 4);
  Alcotest.check_raises "width out of range"
    (Invalid_argument "Bitio.Writer.bits: width out of range") (fun () ->
      Bitio.Writer.bits w 0 63)

let test_truncated () =
  let r = Bitio.Reader.of_bytes (Bytes.make 1 '\255') in
  ignore (Bitio.Reader.bits r 8);
  Alcotest.check_raises "truncated" Bitio.Reader.Truncated (fun () ->
      ignore (Bitio.Reader.bit r))

let test_to_bytes_not_destructive () =
  let w = Bitio.Writer.create () in
  Bitio.Writer.bits w 5 3;
  let b1 = Bitio.Writer.to_bytes w in
  Bitio.Writer.bits w 2 2;
  let b2 = Bitio.Writer.to_bytes w in
  let r = Bitio.Reader.of_bytes b2 in
  Alcotest.(check int) "first field survives" 5 (Bitio.Reader.bits r 3);
  Alcotest.(check int) "second field" 2 (Bitio.Reader.bits r 2);
  Alcotest.(check int) "b1 was a snapshot" 1 (Bytes.length b1)

(* Property: any sequence of fields roundtrips. *)
let gen_fields =
  QCheck.Gen.(
    list_size (int_range 0 40)
      (oneof
         [
           map (fun b -> Bit b) bool;
           ( int_range 1 30 >>= fun n ->
             int_range 0 ((1 lsl n) - 1) >>= fun v -> return (Bits (v, n)) );
           ( int_range 1 40 >>= fun width ->
             list_size (int_range 0 10) (int_range 0 (width - 1)) >>= fun bits ->
             return (Bm (bits, width)) );
         ]))

let arb_fields =
  QCheck.make
    ~print:(fun fields ->
      String.concat ","
        (List.map
           (function
             | Bit b -> Printf.sprintf "b%b" b
             | Bits (v, n) -> Printf.sprintf "%d:%d" v n
             | Bm (bits, w) -> Printf.sprintf "bm%d[%d]" w (List.length bits))
           fields))
    gen_fields

let prop_roundtrip =
  QCheck.Test.make ~name:"field sequences roundtrip" ~count:500 arb_fields
    (fun fields ->
      let w = Bitio.Writer.create () in
      List.iter (write_field w) fields;
      let r = Bitio.Reader.of_bytes (Bitio.Writer.to_bytes w) in
      List.for_all
        (fun f ->
          match f with
          | Bit b -> Bitio.Reader.bit r = b
          | Bits (v, n) -> Bitio.Reader.bits r n = v
          | Bm (bits, width) ->
              Bitmap.equal (Bitio.Reader.bitmap r width) (Bitmap.of_list width bits))
        fields)

let prop_length =
  QCheck.Test.make ~name:"byte length = ceil(bits/8)" ~count:500 arb_fields
    (fun fields ->
      let w = Bitio.Writer.create () in
      List.iter (write_field w) fields;
      Bytes.length (Bitio.Writer.to_bytes w) = (Bitio.Writer.bit_length w + 7) / 8)

(* {1 Byte-wide bitmaps at every alignment}

   Bitmaps move through the codec a byte at a time. The oracle here is
   independent of Bitio: the expected wire bytes are packed by hand from
   the stream's bits (prefix bits, then bitmap bit 0 first, then a trailer),
   MSB first. Widths straddle the bitmap's 63-bit words. *)

let offsets = [ 0; 1; 2; 3; 4; 5; 6; 7 ]
let widths = [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 62; 63; 64; 125; 126; 127; 189 ]

(* Empty, full, alternating and two seeded random fills of [width] bits. *)
let fills rand width =
  let random () = List.filter (fun _ -> Random.State.bool rand) (List.init width Fun.id) in
  [
    [];
    List.init width Fun.id;
    List.filter (fun i -> i mod 2 = 0) (List.init width Fun.id);
    random ();
    random ();
  ]

let pack_bits bits =
  let n = List.length bits in
  let b = Bytes.make ((n + 7) / 8) '\000' in
  List.iteri
    (fun i bit ->
      if bit then
        Bytes.set b (i / 8)
          (Char.chr (Char.code (Bytes.get b (i / 8)) lor (0x80 lsr (i mod 8)))))
    bits;
  b

(* [offset] prefix bits 1,0,1,..., the bitmap, then a 3-bit trailer 101. *)
let stream_bits offset width set =
  List.init offset (fun i -> i mod 2 = 0)
  @ List.init width (fun i -> List.mem i set)
  @ [ true; false; true ]

let prefix_value offset =
  List.fold_left (fun acc i -> (acc lsl 1) lor if i mod 2 = 0 then 1 else 0) 0
    (List.init offset Fun.id)

let each_case f =
  let rand = Random.State.make [| 8 |] in
  List.iter
    (fun offset ->
      List.iter
        (fun width -> List.iter (fun set -> f offset width set) (fills rand width))
        widths)
    offsets

let case_name offset width = Printf.sprintf "offset %d width %d" offset width

let test_bitmap_every_offset () =
  each_case (fun offset width set ->
      let name = case_name offset width in
      let bm = Bitmap.of_list width set in
      let expected = pack_bits (stream_bits offset width set) in
      let w = Bitio.Writer.create () in
      Bitio.Writer.bits w (prefix_value offset) offset;
      Bitio.Writer.bitmap w bm;
      Bitio.Writer.bits w 0b101 3;
      Alcotest.(check bytes) (name ^ ": writer bytes") expected (Bitio.Writer.to_bytes w);
      Alcotest.(check int) (name ^ ": writer bits") (offset + width + 3)
        (Bitio.Writer.bit_length w);
      let buf = Bytes.make (Bytes.length expected + 2) '\255' in
      let s = Bitio.Sink.of_bytes ~pos:1 buf in
      Bitio.Sink.bits s (prefix_value offset) offset;
      Bitio.Sink.bitmap s bm;
      Bitio.Sink.bits s 0b101 3;
      Alcotest.(check int) (name ^ ": sink end") (1 + Bytes.length expected)
        (Bitio.Sink.finish s);
      Alcotest.(check bytes) (name ^ ": sink bytes") expected
        (Bytes.sub buf 1 (Bytes.length expected));
      Alcotest.(check char) (name ^ ": sink stays in its range") '\255'
        (Bytes.get buf (Bytes.length buf - 1));
      let r = Bitio.Reader.of_bytes expected in
      Alcotest.(check int) (name ^ ": prefix") (prefix_value offset)
        (Bitio.Reader.bits r offset);
      Alcotest.(check (list int)) (name ^ ": bitmap") set
        (Bitmap.to_list (Bitio.Reader.bitmap r width));
      Alcotest.(check int) (name ^ ": trailer") 0b101 (Bitio.Reader.bits r 3);
      (* In place: the set bits as [next_set] visits them, and every bit,
         with the set trailer right after the bitmap. *)
      let rec visited i =
        let p = Bitio.Reader.next_set expected ~off:offset width i in
        if p < 0 then [] else p :: visited (p + 1)
      in
      Alcotest.(check (list int)) (name ^ ": next_set") set (visited 0);
      Alcotest.(check (list bool)) (name ^ ": bit_at")
        (List.init width (fun i -> List.mem i set))
        (List.init width (fun i -> Bitio.Reader.bit_at expected (offset + i))))

(* Word-wide [bits] fields at every alignment, up to the 62-bit limit. *)
let test_bits_every_offset () =
  let rand = Random.State.make [| 62 |] in
  List.iter
    (fun offset ->
      List.iter
        (fun n ->
          let v = Random.State.bits rand land ((1 lsl n) - 1) in
          let v = if n = 62 then v lor (1 lsl 61) else v in
          let expected =
            pack_bits
              (List.init offset (fun i -> i mod 2 = 0)
              @ List.init n (fun i -> v land (1 lsl (n - 1 - i)) <> 0))
          in
          let w = Bitio.Writer.create () in
          Bitio.Writer.bits w (prefix_value offset) offset;
          Bitio.Writer.bits w v n;
          let name = Printf.sprintf "offset %d bits %d" offset n in
          Alcotest.(check bytes) name expected (Bitio.Writer.to_bytes w);
          let s = Bitio.Sink.of_bytes (Bytes.create (Bytes.length expected)) in
          Bitio.Sink.bits s (prefix_value offset) offset;
          Bitio.Sink.bits s v n;
          ignore (Bitio.Sink.finish s : int);
          let r = Bitio.Reader.of_bytes expected in
          ignore (Bitio.Reader.bits r offset : int);
          Alcotest.(check int) (name ^ ": read back") v (Bitio.Reader.bits r n))
        [ 1; 7; 8; 9; 15; 16; 17; 31; 32; 33; 61; 62 ])
    offsets

(* Input that ends inside a bitmap field raises [Truncated] (the hostile
   decoder maps it to [Error Truncated]), even when only the last bit is
   missing. *)
let test_bitmap_truncated () =
  each_case (fun offset width set ->
      let bits = stream_bits offset width set in
      let full = offset + width in
      List.iter
        (fun keep ->
          (* Whole bytes only: keep the prefix but fewer than [full] stream
             bits. *)
          if offset <= keep * 8 && keep * 8 < full then begin
            let b = Bytes.sub (pack_bits bits) 0 keep in
            let r = Bitio.Reader.of_bytes b in
            ignore (Bitio.Reader.bits r offset : int);
            Alcotest.check_raises
              (Printf.sprintf "%s kept %d bytes" (case_name offset width) keep)
              Bitio.Reader.Truncated (fun () -> ignore (Bitio.Reader.bitmap r width))
          end)
        [ (offset + 7) / 8; (full - 1) / 8 ])

(* Splicing pre-encoded bits: [Sink.append] of bits [off, off + len) and
   [Run.append] of a run's suffix from [off], behind every sink alignment,
   against the hand-packed stream (alignment prefix, the source bits, a
   101 trailer). The source holds [off + len] random bits and ends there,
   so a shifted read past it would be caught. Runs are built at every
   alignment, at 0 only, at the sink's alignment only, and at all but the
   sink's alignment, so both the blit and the shifted fallback are
   checked. *)
let test_append_every_offset () =
  let rand = Random.State.make [| 17 |] in
  List.iter
    (fun align ->
      List.iter
        (fun off ->
          List.iter
            (fun len ->
              let src_bits = List.init (off + len) (fun _ -> Random.State.bool rand) in
              let src = pack_bits src_bits in
              let name = Printf.sprintf "align %d off %d len %d" align off len in
              let expected =
                pack_bits
                  (List.init align (fun i -> i mod 2 = 0)
                  @ List.filteri (fun i _ -> i >= off) src_bits
                  @ [ true; false; true ])
              in
              let splice what append =
                let buf = Bytes.make (Bytes.length expected + 1) '\255' in
                let s = Bitio.Sink.of_bytes buf in
                Bitio.Sink.bits s (prefix_value align) align;
                append s;
                Bitio.Sink.bits s 0b101 3;
                Alcotest.(check int) (name ^ what ^ ": end") (Bytes.length expected)
                  (Bitio.Sink.finish s);
                Alcotest.(check bytes) (name ^ what) expected
                  (Bytes.sub buf 0 (Bytes.length expected));
                Alcotest.(check char) (name ^ what ^ ": stays in range") '\255'
                  (Bytes.get buf (Bytes.length expected))
              in
              splice " (sink)" (fun s -> Bitio.Sink.append s src ~off ~len);
              List.iter
                (fun (what, aligns) ->
                  let run = Bitio.Run.make ~aligns src ~len:(off + len) in
                  splice (" (run" ^ what ^ ")") (fun s -> Bitio.Run.append s run ~off))
                [
                  ("", [ 1; 2; 3; 4; 5; 6; 7 ]);
                  (" at 0", []);
                  (" at the sink's alignment", [ align ]);
                  (" at the others", List.filter (fun a -> a <> align) [ 1; 2; 3; 4; 5; 6; 7 ]);
                ])
            [ 0; 1; 7; 8; 9; 15; 16; 17; 63; 130 ])
        [ 0; 1; 3; 7; 8; 13 ])
    offsets

(* Appending a run at an alignment it was not built at takes the shifted
   copy, which allocates nothing either; nor does a header encode whose
   down lands at such an alignment (bits written ahead of the header move
   it there). *)
let test_unbuilt_alignment_zero_alloc () =
  let rand = Random.State.make [| 5 |] in
  let src = Bytes.init 40 (fun _ -> Char.chr (Random.State.int rand 256)) in
  let run = Bitio.Run.make ~aligns:[ 4 ] src ~len:301 in
  let buf = Bytes.create 64 in
  let sink = Bitio.Sink.of_bytes buf in
  let zero what (report : Allocs.report) =
    match report.Allocs.first_alloc with
    | None -> Alcotest.(check (float 0.0)) (what ^ ": zero words") 0.0 report.Allocs.per_event
    | Some (event, words) ->
        Alcotest.failf "%s allocated %d words at event %d" what words event
  in
  zero "Run.append at alignment 3"
    (Allocs.probe ~warmup:16 ~events:1024 (fun _ ->
         Bitio.Sink.reset sink ~pos:0;
         Bitio.Sink.bits sink 0 3;
         Bitio.Run.append sink run ~off:0));
  let topo = Topology.running_example () in
  let hd = Test_codec.gen_header topo rand in
  let hbuf = Bytes.create 1024 in
  let hsink = Bitio.Sink.of_bytes hbuf in
  for lead = 1 to 7 do
    let encode () =
      Bitio.Sink.reset hsink ~pos:0;
      Bitio.Sink.bits hsink 0 lead;
      ignore (Header_codec.encode_into topo hd hsink : int)
    in
    (* The same bits as encode, [lead] zero bits later. *)
    encode ();
    let expected =
      let w = Bitio.Writer.create () in
      Bitio.Writer.bits w 0 lead;
      let r = Bitio.Reader.of_bytes (Header_codec.encode topo hd) in
      for _ = 1 to Header_codec.stage_bits topo Header_codec.Full hd do
        Bitio.Writer.bit w (Bitio.Reader.bit r)
      done;
      Bitio.Writer.to_bytes w
    in
    Alcotest.(check bytes)
      (Printf.sprintf "encode_into %d bits in" lead)
      expected
      (Bytes.sub hbuf 0 (Bytes.length expected));
    zero
      (Printf.sprintf "encode_into %d bits in" lead)
      (Allocs.probe ~warmup:16 ~events:1024 (fun _ -> encode ()))
  done

let tests =
  [
    Alcotest.test_case "bitmap at every offset" `Quick test_bitmap_every_offset;
    Alcotest.test_case "append and runs at every offset" `Quick
      test_append_every_offset;
    Alcotest.test_case "runs at an unbuilt alignment allocate nothing" `Quick
      test_unbuilt_alignment_zero_alloc;
    Alcotest.test_case "bits at every offset" `Quick test_bits_every_offset;
    Alcotest.test_case "bitmap cut short raises" `Quick test_bitmap_truncated;
    Alcotest.test_case "simple roundtrip" `Quick test_simple_roundtrip;
    Alcotest.test_case "bitmap roundtrip" `Quick test_bitmap_roundtrip;
    Alcotest.test_case "alignment" `Quick test_align;
    Alcotest.test_case "invalid writes" `Quick test_value_too_large;
    Alcotest.test_case "truncated read raises" `Quick test_truncated;
    Alcotest.test_case "to_bytes is a snapshot" `Quick test_to_bytes_not_destructive;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_length;
  ]
