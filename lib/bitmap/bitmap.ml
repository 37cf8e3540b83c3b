(* Bits are stored little-endian within an int array: bit [i] lives in word
   [i / word_bits] at position [i mod word_bits]. Trailing bits of the last
   word are kept at zero as an invariant so popcount/equal can work
   word-wise. *)

let word_bits = 63 (* OCaml native ints; avoid the tag bit complications *)

type t = { width : int; words : int array }

let words_for width = (width + word_bits - 1) / word_bits

let create width =
  if width < 0 then invalid_arg "Bitmap.create: negative width";
  { width; words = Array.make (max 1 (words_for width)) 0 }

let width t = t.width
let copy t = { width = t.width; words = Array.copy t.words }

(* The kernels below are the innermost loops of apply_delta / clustering
   and carry zero-alloc obligations: top-level tail-recursive loops over
   the word arrays (no closures, no refs), checked by elmo-lint and by the
   Gc.minor_words harness in test_zero_alloc.ml. *)

let check_index t i =
  if i < 0 || i >= t.width then
    (* elmo-lint: allow zero-alloc — error path: raising Invalid_argument allocates *)
    invalid_arg "Bitmap: index out of bounds"

(* elmo-lint: zero-alloc *)
let set t i =
  check_index t i;
  t.words.(i / word_bits) <- t.words.(i / word_bits) lor (1 lsl (i mod word_bits))

(* elmo-lint: zero-alloc *)
let clear t i =
  check_index t i;
  t.words.(i / word_bits) <- t.words.(i / word_bits) land lnot (1 lsl (i mod word_bits))

(* elmo-lint: zero-alloc *)
let get t i =
  check_index t i;
  t.words.(i / word_bits) land (1 lsl (i mod word_bits)) <> 0

(* SWAR popcount of one 63-bit word, in constant time: sum adjacent bits
   into 2-bit counts, those into 4-bit and then 8-bit counts, and let one
   multiply add every byte into the top one. The masks are the 64-bit ones
   truncated to 63 bits; [lsr] is logical on the 63-bit value, so a word
   with bit 62 set (a negative int) counts like any other. The top field
   is shorter than the others (bit 62 alone, then bits 60-62, then 56-62)
   and never overflows: it holds at most 63. *)
let m1 = 0x5555_5555_5555_5555
let m2 = 0x3333_3333_3333_3333
let m4 = 0x0f0f_0f0f_0f0f_0f0f
let h01 = 0x0101_0101_0101_0101

(* elmo-lint: zero-alloc *)
let popcount_word w =
  let w = w - ((w lsr 1) land m1) in
  let w = (w land m2) + ((w lsr 2) land m2) in
  let w = (w + (w lsr 4)) land m4 in
  (w * h01) lsr 56

(* elmo-lint: zero-alloc *)
let rec popcount_loop words i acc =
  if i < 0 then acc
  else popcount_loop words (i - 1) (acc + popcount_word (Array.unsafe_get words i))

(* elmo-lint: zero-alloc *)
let popcount t = popcount_loop t.words (Array.length t.words - 1) 0

(* elmo-lint: zero-alloc *)
let rec all_zero words i =
  i < 0 || (Array.unsafe_get words i = 0 && all_zero words (i - 1))

(* elmo-lint: zero-alloc *)
let is_empty t = all_zero t.words (Array.length t.words - 1)

(* elmo-lint: zero-alloc *)
let rec words_equal (a : int array) b i =
  i < 0 || (Array.unsafe_get a i = Array.unsafe_get b i && words_equal a b (i - 1))

(* Widths equal implies equal word counts, so one length suffices. *)
(* elmo-lint: zero-alloc *)
let equal a b =
  a.width = b.width && words_equal a.words b.words (Array.length a.words - 1)

let compare a b =
  let c = Stdlib.compare a.width b.width in
  if c <> 0 then c else Stdlib.compare a.words b.words

let check_width a b =
  if a.width <> b.width then
    (* elmo-lint: allow zero-alloc — error path: raising Invalid_argument allocates *)
    invalid_arg "Bitmap: width mismatch"

let map2 f a b =
  check_width a b;
  { width = a.width; words = Array.map2 f a.words b.words }

let union a b = map2 ( lor ) a b
let inter a b = map2 ( land ) a b
let diff a b = map2 (fun x y -> x land lnot y) a b

(* elmo-lint: zero-alloc *)
let union_into ~dst src =
  check_width dst src;
  for i = 0 to Array.length src.words - 1 do
    Array.unsafe_set dst.words i
      (Array.unsafe_get dst.words i lor Array.unsafe_get src.words i)
  done

(* elmo-lint: zero-alloc *)
let rec subset_loop a b i =
  i < 0
  || (Array.unsafe_get a i land lnot (Array.unsafe_get b i) = 0
     && subset_loop a b (i - 1))

(* elmo-lint: zero-alloc *)
let subset a b =
  check_width a b;
  subset_loop a.words b.words (Array.length a.words - 1)

(* elmo-lint: zero-alloc *)
let rec hamming_words a b i acc =
  if i < 0 then acc
  else
    hamming_words a b (i - 1)
      (acc + popcount_word (Array.unsafe_get a i lxor Array.unsafe_get b i))

(* elmo-lint: zero-alloc *)
let hamming a b =
  check_width a b;
  hamming_words a.words b.words (Array.length a.words - 1) 0

(* elmo-lint: zero-alloc *)
let rec cost_words a acc_w i acc =
  if i < 0 then acc
  else
    cost_words a acc_w (i - 1)
      (acc
      + popcount_word (Array.unsafe_get a i land lnot (Array.unsafe_get acc_w i)))

(* elmo-lint: zero-alloc *)
let union_cost a acc_bm =
  check_width a acc_bm;
  cost_words a.words acc_bm.words (Array.length a.words - 1) 0

(* elmo-lint: zero-alloc *)
let reset t = Array.fill t.words 0 (Array.length t.words) 0

(* elmo-lint: zero-alloc *)
let copy_into ~dst src =
  check_width dst src;
  Array.blit src.words 0 dst.words 0 (Array.length src.words)

let of_list width indices =
  let t = create width in
  List.iter (set t) indices;
  t

(* Word-wise set-bit traversal: peel the lowest set bit with [w land (-w)];
   its index is the popcount of [lsb - 1] (the trailing-zero count), in
   constant time. O(words + set bits) work instead of one bounds-checked
   [get] per position. *)
let iter f t =
  let n = Array.length t.words in
  for wi = 0 to n - 1 do
    let w = ref t.words.(wi) in
    if !w <> 0 then begin
      let base = wi * word_bits in
      while !w <> 0 do
        let lsb = !w land - !w in
        f (base + popcount_word (lsb - 1));
        w := !w land (!w - 1)
      done
    end
  done

(* The lowest set bit of [words.(wi)] at or above in-word position
   [from], else of a later word; -1 past the last word. *)
(* elmo-lint: zero-alloc *)
let rec next_in_words words wi from =
  if wi >= Array.length words then -1
  else begin
    let w = Array.unsafe_get words wi land (-1 lsl from) in
    if w = 0 then next_in_words words (wi + 1) 0
    else (wi * word_bits) + popcount_word ((w land -w) - 1)
  end

(* elmo-lint: zero-alloc *)
let next_set t i =
  if i >= t.width then -1 else next_in_words t.words (i / word_bits) (i mod word_bits)

let to_list t =
  let acc = ref [] in
  iter (fun i -> acc := i :: !acc) t;
  List.rev !acc

(* Index of the highest set bit of a non-zero word: a binary search on
   its halves, six steps for 63 bits. *)
let rec top_bit w n s =
  if s = 0 then n
  else if w lsr s <> 0 then top_bit (w lsr s) (n + s) (s lsr 1)
  else top_bit w n (s lsr 1)

(* Words from [hi]'s down to [lo]'s, each word's bits from the top down,
   so consing yields the ascending list without a reversal. *)
let drain t ~lo ~hi =
  if lo > hi then []
  else begin
    check_index t lo;
    check_index t hi;
    let acc = ref [] in
    for wi = hi / word_bits downto lo / word_bits do
      let base = wi * word_bits in
      let mask =
        (-1 lsl Int.max 0 (lo - base))
        land (-1 lsr (word_bits - 1 - Int.min (word_bits - 1) (hi - base)))
      in
      let w = ref (t.words.(wi) land mask) in
      t.words.(wi) <- t.words.(wi) land lnot mask;
      while !w <> 0 do
        let b = top_bit !w 0 32 in
        acc := (base + b) :: !acc;
        w := !w lxor (1 lsl b)
      done
    done;
    !acc
  end

let union_all width ts =
  let out = create width in
  List.iter (fun t -> union_into ~dst:out t) ts;
  out

(* Byte [j] of the wire form holds bits [8j .. 8j+7], bit [8j] in the low
   position. With 63-bit words a byte can straddle two words, so the high
   part is spliced from (or into) the next word whenever the in-word offset
   leaves fewer than 8 bits. These two accessors are the only place that
   knows about the straddle; [to_bytes]/[of_bytes] and the bit-stream
   codec (Bitio) go through them. A byte index is valid iff its first bit
   is, so the bounds check is [check_index] on that bit. *)

(* elmo-lint: zero-alloc *)
let get_byte t j =
  check_index t (8 * j);
  let pos = 8 * j in
  let wi = pos / word_bits and off = pos mod word_bits in
  let v = Array.unsafe_get t.words wi lsr off in
  let v =
    if off > word_bits - 8 && wi + 1 < Array.length t.words then
      v lor (Array.unsafe_get t.words (wi + 1) lsl (word_bits - off))
    else v
  in
  v land 0xff

(* Bits at or past [width] are masked off, keeping the invariant that a
   bitmap's trailing word bits stay zero. *)
(* elmo-lint: zero-alloc *)
let or_byte t j v =
  check_index t (8 * j);
  let pos = 8 * j in
  let live = t.width - pos in
  let v = if live < 8 then v land ((1 lsl live) - 1) else v land 0xff in
  if v <> 0 then begin
    let wi = pos / word_bits and off = pos mod word_bits in
    Array.unsafe_set t.words wi (Array.unsafe_get t.words wi lor (v lsl off));
    if off > word_bits - 8 && wi + 1 < Array.length t.words then
      Array.unsafe_set t.words (wi + 1)
        (Array.unsafe_get t.words (wi + 1) lor (v lsr (word_bits - off)))
  end

let to_bytes t =
  let b = Bytes.create ((t.width + 7) / 8) in
  for j = 0 to Bytes.length b - 1 do
    Bytes.unsafe_set b j (Char.unsafe_chr (get_byte t j))
  done;
  b

let of_bytes width b =
  let nbytes = (width + 7) / 8 in
  if Bytes.length b < nbytes then invalid_arg "Bitmap.of_bytes: too short";
  let t = create width in
  for j = 0 to nbytes - 1 do
    or_byte t j (Char.code (Bytes.unsafe_get b j))
  done;
  t

let to_string t = String.init t.width (fun i -> if get t i then '1' else '0')
let pp ppf t = Format.pp_print_string ppf (to_string t)
