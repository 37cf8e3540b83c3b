let bm_of width l = Bitmap.of_list width l

let test_create_and_get () =
  let b = Bitmap.create 70 in
  Alcotest.(check int) "width" 70 (Bitmap.width b);
  Alcotest.(check bool) "initially empty" true (Bitmap.is_empty b);
  Bitmap.set b 0;
  Bitmap.set b 63;
  Bitmap.set b 69;
  Alcotest.(check bool) "bit 0" true (Bitmap.get b 0);
  Alcotest.(check bool) "bit 63 (word boundary)" true (Bitmap.get b 63);
  Alcotest.(check bool) "bit 69" true (Bitmap.get b 69);
  Alcotest.(check bool) "bit 1 clear" false (Bitmap.get b 1);
  Alcotest.(check int) "popcount" 3 (Bitmap.popcount b);
  Bitmap.clear b 63;
  Alcotest.(check bool) "cleared" false (Bitmap.get b 63);
  Alcotest.(check int) "popcount after clear" 2 (Bitmap.popcount b)

let test_bounds () =
  let b = Bitmap.create 8 in
  Alcotest.check_raises "set out of bounds"
    (Invalid_argument "Bitmap: index out of bounds") (fun () -> Bitmap.set b 8);
  Alcotest.check_raises "get negative"
    (Invalid_argument "Bitmap: index out of bounds") (fun () ->
      ignore (Bitmap.get b (-1)))

let test_zero_width () =
  let b = Bitmap.create 0 in
  Alcotest.(check int) "width 0" 0 (Bitmap.width b);
  Alcotest.(check bool) "empty" true (Bitmap.is_empty b);
  Alcotest.(check int) "popcount" 0 (Bitmap.popcount b)

let test_set_ops () =
  let a = bm_of 10 [ 0; 2; 4 ] and b = bm_of 10 [ 2; 3 ] in
  Alcotest.(check (list int)) "union" [ 0; 2; 3; 4 ] (Bitmap.to_list (Bitmap.union a b));
  Alcotest.(check (list int)) "inter" [ 2 ] (Bitmap.to_list (Bitmap.inter a b));
  Alcotest.(check (list int)) "diff" [ 0; 4 ] (Bitmap.to_list (Bitmap.diff a b));
  Alcotest.(check bool) "subset no" false (Bitmap.subset a b);
  Alcotest.(check bool) "subset yes" true (Bitmap.subset (bm_of 10 [ 2 ]) b);
  Alcotest.(check int) "hamming" 3 (Bitmap.hamming a b);
  Alcotest.(check int) "union_cost" 1 (Bitmap.union_cost b a)

let test_width_mismatch () =
  let a = Bitmap.create 5 and b = Bitmap.create 6 in
  Alcotest.check_raises "union mismatch" (Invalid_argument "Bitmap: width mismatch")
    (fun () -> ignore (Bitmap.union a b))

let test_union_into () =
  let a = bm_of 10 [ 1 ] in
  Bitmap.union_into ~dst:a (bm_of 10 [ 3 ]);
  Alcotest.(check (list int)) "accumulated" [ 1; 3 ] (Bitmap.to_list a)

let test_union_all () =
  let u = Bitmap.union_all 6 [ bm_of 6 [ 0 ]; bm_of 6 [ 5 ]; bm_of 6 [ 0; 3 ] ] in
  Alcotest.(check (list int)) "union_all" [ 0; 3; 5 ] (Bitmap.to_list u);
  Alcotest.(check bool) "empty list" true (Bitmap.is_empty (Bitmap.union_all 6 []))

let test_to_string () =
  Alcotest.(check string) "render" "0110" (Bitmap.to_string (bm_of 4 [ 1; 2 ]))

let test_copy_isolated () =
  let a = bm_of 8 [ 1 ] in
  let b = Bitmap.copy a in
  Bitmap.set b 2;
  Alcotest.(check bool) "original unchanged" false (Bitmap.get a 2)

let test_bytes_roundtrip_fixed () =
  let a = bm_of 17 [ 0; 7; 8; 16 ] in
  let b = Bitmap.of_bytes 17 (Bitmap.to_bytes a) in
  Alcotest.(check bool) "roundtrip" true (Bitmap.equal a b);
  Alcotest.(check int) "byte length" 3 (Bytes.length (Bitmap.to_bytes a))

(* {1 Properties} *)

let gen_bitmap =
  QCheck.Gen.(
    int_range 1 200 >>= fun width ->
    list_size (int_range 0 64) (int_range 0 (width - 1)) >>= fun bits ->
    return (width, bits))

let arb_bitmap =
  QCheck.make
    ~print:(fun (w, bits) ->
      Printf.sprintf "width=%d bits=[%s]" w
        (String.concat ";" (List.map string_of_int bits)))
    gen_bitmap

let arb_bitmap_pair =
  (* two bitmaps of the same width *)
  QCheck.make
    ~print:(fun (w, a, b) ->
      Printf.sprintf "width=%d a=[%s] b=[%s]" w
        (String.concat ";" (List.map string_of_int a))
        (String.concat ";" (List.map string_of_int b)))
    QCheck.Gen.(
      int_range 1 200 >>= fun width ->
      let bits = list_size (int_range 0 64) (int_range 0 (width - 1)) in
      bits >>= fun a ->
      bits >>= fun b -> return (width, a, b))

let prop_roundtrip =
  QCheck.Test.make ~name:"to_bytes/of_bytes roundtrip" ~count:500 arb_bitmap
    (fun (w, bits) ->
      let b = bm_of w bits in
      Bitmap.equal b (Bitmap.of_bytes w (Bitmap.to_bytes b)))

let prop_to_list_sorted =
  QCheck.Test.make ~name:"to_list sorted and deduplicated" ~count:500 arb_bitmap
    (fun (w, bits) ->
      let l = Bitmap.to_list (bm_of w bits) in
      l = List.sort_uniq compare bits)

let prop_popcount_union =
  QCheck.Test.make ~name:"popcount(union) = |a| + |b| - |inter|" ~count:500
    arb_bitmap_pair (fun (w, a, b) ->
      let ba = bm_of w a and bb = bm_of w b in
      Bitmap.popcount (Bitmap.union ba bb)
      = Bitmap.popcount ba + Bitmap.popcount bb - Bitmap.popcount (Bitmap.inter ba bb))

let prop_hamming =
  QCheck.Test.make ~name:"hamming = popcount(a xor b), symmetric" ~count:500
    arb_bitmap_pair (fun (w, a, b) ->
      let ba = bm_of w a and bb = bm_of w b in
      let xor = Bitmap.union (Bitmap.diff ba bb) (Bitmap.diff bb ba) in
      Bitmap.hamming ba bb = Bitmap.popcount xor
      && Bitmap.hamming ba bb = Bitmap.hamming bb ba)

let prop_union_cost =
  QCheck.Test.make ~name:"union_cost a acc = popcount(union) - popcount(acc)"
    ~count:500 arb_bitmap_pair (fun (w, a, acc) ->
      let ba = bm_of w a and bacc = bm_of w acc in
      Bitmap.union_cost ba bacc
      = Bitmap.popcount (Bitmap.union ba bacc) - Bitmap.popcount bacc)

let prop_subset_union =
  QCheck.Test.make ~name:"a and b are subsets of their union" ~count:500
    arb_bitmap_pair (fun (w, a, b) ->
      let ba = bm_of w a and bb = bm_of w b in
      let u = Bitmap.union ba bb in
      Bitmap.subset ba u && Bitmap.subset bb u)

let prop_compare_consistent =
  QCheck.Test.make ~name:"equal agrees with compare" ~count:500 arb_bitmap_pair
    (fun (w, a, b) ->
      let ba = bm_of w a and bb = bm_of w b in
      Bitmap.equal ba bb = (Bitmap.compare ba bb = 0))

(* Bitmaps of widths 1-200 (up to four 63-bit words) whose words often
   have bit 62 set (the sign bit of an OCaml int) or are full: the
   positions the constant-time popcount's masks must get right. *)
let arb_wide_bitmap =
  let open QCheck.Gen in
  let gen =
    int_range 1 200 >>= fun w ->
    let top_bits = List.filter (fun i -> i < w) [ 62; 125; 188 ] in
    let full_word = List.init (min w 63) Fun.id in
    frequency
      [ (3, list_size (int_range 0 40) (int_range 0 (w - 1)));
        (1, return full_word);
        (1, return (List.init w Fun.id)) ]
    >>= fun bits ->
    list_size (return (List.length top_bits)) bool >|= fun flags ->
    ( w,
      bits
      @ List.concat (List.map2 (fun b f -> if f then [ b ] else []) top_bits flags)
    )
  in
  QCheck.make gen
    ~print:QCheck.Print.(pair int (list int))

(* The word kernels against one bounds-checked [get] per position. *)
let by_get b = List.filter (Bitmap.get b) (List.init (Bitmap.width b) Fun.id)

let prop_popcount_iter_by_get =
  QCheck.Test.make ~name:"popcount and iter agree with a get scan" ~count:1000
    arb_wide_bitmap (fun (w, bits) ->
      let b = bm_of w bits in
      let seen = ref [] in
      Bitmap.iter (fun i -> seen := i :: !seen) b;
      let expected = by_get b in
      Bitmap.popcount b = List.length expected && List.rev !seen = expected)

let prop_hamming_cost_by_get =
  QCheck.Test.make ~name:"hamming and union_cost agree with a get scan"
    ~count:500 (QCheck.pair arb_wide_bitmap arb_wide_bitmap)
    (fun ((w, a), (_, b)) ->
      let ba = bm_of w a in
      let bb = bm_of w (List.filter (fun i -> i < w) b) in
      let count p = List.length (List.filter p (List.init w Fun.id)) in
      Bitmap.hamming ba bb = count (fun i -> Bitmap.get ba i <> Bitmap.get bb i)
      && Bitmap.union_cost ba bb
         = count (fun i -> Bitmap.get ba i && not (Bitmap.get bb i)))

(* [drain] returns the set bits in [lo, hi] ascending and clears exactly
   those, whatever the range's word alignment: widths up to 200 put the
   range's ends in any of four 63-bit words. *)
let prop_drain =
  QCheck.Test.make ~name:"drain = set bits in range, ascending, cleared"
    ~count:500
    (QCheck.make
       ~print:(fun ((w, bits), (lo, hi)) ->
         Printf.sprintf "width=%d bits=[%s] lo=%d hi=%d" w
           (String.concat ";" (List.map string_of_int bits))
           lo hi)
       QCheck.Gen.(
         gen_bitmap >>= fun (w, bits) ->
         pair (int_range 0 (w - 1)) (int_range 0 (w - 1)) >>= fun range ->
         return ((w, bits), range)))
    (fun ((w, bits), (lo, hi)) ->
      let b = bm_of w bits in
      let inside i = lo <= i && i <= hi in
      let expected = List.filter inside (Bitmap.to_list b) in
      let left = List.filter (fun i -> not (inside i)) (Bitmap.to_list b) in
      let b' = Bitmap.copy b in
      let dst = Array.make (List.length expected) (-1) in
      let n = Bitmap.drain_into b' ~lo ~hi dst in
      Bitmap.drain b ~lo ~hi = expected
      && Bitmap.to_list b = left
      && n = List.length expected
      && Array.to_list dst = expected
      && Bitmap.to_list b' = left)

(* [next_set] from every start, the width and one past it included, is
   the first set bit of [to_list] at or above it. *)
let prop_next_set =
  QCheck.Test.make ~name:"next_set = first of to_list at or above" ~count:300
    (QCheck.make gen_bitmap) (fun (w, bits) ->
      let b = bm_of w bits in
      List.for_all
        (fun i ->
          let expected =
            match List.filter (fun j -> j >= i) (Bitmap.to_list b) with j :: _ -> j | [] -> -1
          in
          Bitmap.next_set b i = expected)
        (List.init (w + 2) Fun.id))

(* The order [compare] promises, stated on its own: width first, then the
   63-bit words from the lowest as signed ints, lexicographically. Bit 62
   of a word is its sign bit, so the top bits of each word are drawn
   often; most pairs share a width (else the words are never compared),
   and some are equal or differ in one bit. *)
let reference_words w bits =
  let words = Array.make (max 1 ((w + 62) / 63)) 0 in
  List.iter (fun i -> words.(i / 63) <- words.(i / 63) lor (1 lsl (i mod 63))) bits;
  words

let reference_compare (wa, a) (wb, b) =
  let c = Int.compare wa wb in
  if c <> 0 then c
  else
    let wa = reference_words wa a and wb = reference_words wb b in
    let rec go i =
      if i >= Array.length wa then 0
      else
        let c = Int.compare wa.(i) wb.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

let prop_compare_reference =
  let open QCheck.Gen in
  let bits w =
    if w = 0 then return []
    else
      let tops = List.filter (fun i -> i < w) [ 61; 62; 63; 124; 125; 126; 188 ] in
      list_size (int_range 0 12) (oneof [ int_range 0 (w - 1); oneofl (0 :: tops) ])
  in
  let gen =
    int_range 0 200 >>= fun wa ->
    frequency [ (4, return wa); (1, int_range 0 200) ] >>= fun wb ->
    bits wa >>= fun a ->
    frequency
      [ (3, bits wb);
        (1, return (List.filter (fun i -> i < wb) a));
        ( 1,
          if wb = 0 then return []
          else int_range 0 (wb - 1) >|= fun i -> i :: List.filter (fun j -> j < wb) a ) ]
    >|= fun b -> ((wa, a), (wb, b))
  in
  let print ((wa, a), (wb, b)) =
    let l = QCheck.Print.(list int) in
    Printf.sprintf "width %d %s vs width %d %s" wa (l a) wb (l b)
  in
  QCheck.Test.make ~name:"compare/equal = width-then-words reference" ~count:1000
    (QCheck.make ~print gen) (fun ((wa, a), (wb, b)) ->
      let ba = bm_of wa a and bb = bm_of wb b in
      let expect = reference_compare (wa, a) (wb, b) in
      Int.compare (Bitmap.compare ba bb) 0 = expect
      && Int.compare (Bitmap.compare bb ba) 0 = - expect
      && Bitmap.equal ba bb = (expect = 0))

let tests =
  [
    Alcotest.test_case "create/get/set/clear" `Quick test_create_and_get;
    Alcotest.test_case "bounds checking" `Quick test_bounds;
    Alcotest.test_case "zero width" `Quick test_zero_width;
    Alcotest.test_case "set operations" `Quick test_set_ops;
    Alcotest.test_case "width mismatch" `Quick test_width_mismatch;
    Alcotest.test_case "union_into" `Quick test_union_into;
    Alcotest.test_case "union_all" `Quick test_union_all;
    Alcotest.test_case "to_string" `Quick test_to_string;
    Alcotest.test_case "copy isolation" `Quick test_copy_isolated;
    Alcotest.test_case "bytes roundtrip (fixed)" `Quick test_bytes_roundtrip_fixed;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_to_list_sorted;
    QCheck_alcotest.to_alcotest prop_popcount_union;
    QCheck_alcotest.to_alcotest prop_hamming;
    QCheck_alcotest.to_alcotest prop_union_cost;
    QCheck_alcotest.to_alcotest prop_subset_union;
    QCheck_alcotest.to_alcotest prop_compare_consistent;
    QCheck_alcotest.to_alcotest prop_compare_reference;
    QCheck_alcotest.to_alcotest prop_popcount_iter_by_get;
    QCheck_alcotest.to_alcotest prop_hamming_cost_by_get;
    QCheck_alcotest.to_alcotest prop_drain;
    QCheck_alcotest.to_alcotest prop_next_set;
  ]
