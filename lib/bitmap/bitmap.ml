(* One block per bitmap: slot 0 of an int array holds the width and
   slots 1.. hold the bits, little-endian: bit [i] lives in slot
   [1 + i / word_bits] at position [i mod word_bits]. A bitmap of at most
   63 bits is three words, and every kernel reaches its words without a
   second indirection. Trailing bits of the last word are kept at zero as
   an invariant so popcount/equal can work word-wise; no kernel writes
   slot 0 after [create]. *)

let word_bits = 63 (* OCaml native ints; avoid the tag bit complications *)

type t = int array

let words_for width = (width + word_bits - 1) / word_bits

let create width =
  if width < 0 then invalid_arg "Bitmap.create: negative width";
  let t = Array.make (1 + max 1 (words_for width)) 0 in
  Array.unsafe_set t 0 width;
  t

(* elmo-lint: zero-alloc *)
let width (t : t) = Array.unsafe_get t 0

let copy (t : t) = Array.copy t

(* The kernels below are the innermost loops of apply_delta / clustering
   and carry zero-alloc obligations: top-level tail-recursive loops over
   the word slots (no closures, no refs), checked by elmo-lint and by the
   Gc.minor_words harness in test_zero_alloc.ml. A word loop runs its slot
   index from the last slot down to 1; slot 0 is the width. *)

let check_index t i =
  if i < 0 || i >= width t then
    (* elmo-lint: allow zero-alloc — error path: raising Invalid_argument allocates *)
    invalid_arg "Bitmap: index out of bounds"

(* elmo-lint: zero-alloc *)
let set t i =
  check_index t i;
  let s = 1 + (i / word_bits) in
  Array.unsafe_set t s (Array.unsafe_get t s lor (1 lsl (i mod word_bits)))

(* elmo-lint: zero-alloc *)
let clear t i =
  check_index t i;
  let s = 1 + (i / word_bits) in
  Array.unsafe_set t s (Array.unsafe_get t s land lnot (1 lsl (i mod word_bits)))

(* elmo-lint: zero-alloc *)
let get t i =
  check_index t i;
  Array.unsafe_get t (1 + (i / word_bits)) land (1 lsl (i mod word_bits)) <> 0

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
let rec popcount_loop (t : t) s acc =
  if s < 1 then acc
  else popcount_loop t (s - 1) (acc + popcount_word (Array.unsafe_get t s))

(* elmo-lint: zero-alloc *)
let popcount t = popcount_loop t (Array.length t - 1) 0

(* elmo-lint: zero-alloc *)
let rec all_zero (t : t) s = s < 1 || (Array.unsafe_get t s = 0 && all_zero t (s - 1))

(* elmo-lint: zero-alloc *)
let is_empty t = all_zero t (Array.length t - 1)

(* Slot 0 included: equal blocks have equal widths. *)
(* elmo-lint: zero-alloc *)
let rec slots_equal (a : t) b s =
  s < 0 || (Array.unsafe_get a s = Array.unsafe_get b s && slots_equal a b (s - 1))

(* elmo-lint: zero-alloc *)
let equal (a : t) b =
  Array.length a = Array.length b && slots_equal a b (Array.length a - 1)

(* Width first, then the words from the lowest: slot order. Equal widths
   mean equal lengths, so the walk stops at a difference or the end. *)
let rec compare_slots (a : t) b s =
  if s >= Array.length a || s >= Array.length b then 0
  else
    let c = Int.compare (Array.unsafe_get a s) (Array.unsafe_get b s) in
    if c <> 0 then c else compare_slots a b (s + 1)

let compare a b = compare_slots a b 0

let check_width a b =
  if width a <> width b then
    (* elmo-lint: allow zero-alloc — error path: raising Invalid_argument allocates *)
    invalid_arg "Bitmap: width mismatch"

let map2 f a b =
  check_width a b;
  let out = Array.make (Array.length a) (width a) in
  for s = 1 to Array.length a - 1 do
    Array.unsafe_set out s (f (Array.unsafe_get a s) (Array.unsafe_get b s))
  done;
  out

let union a b = map2 ( lor ) a b
let inter a b = map2 ( land ) a b
let diff a b = map2 (fun x y -> x land lnot y) a b

(* elmo-lint: zero-alloc *)
let union_into ~dst src =
  check_width dst src;
  for s = 1 to Array.length src - 1 do
    Array.unsafe_set dst s (Array.unsafe_get dst s lor Array.unsafe_get src s)
  done

(* elmo-lint: zero-alloc *)
let rec subset_loop (a : t) b s =
  s < 1
  || (Array.unsafe_get a s land lnot (Array.unsafe_get b s) = 0
     && subset_loop a b (s - 1))

(* elmo-lint: zero-alloc *)
let subset a b =
  check_width a b;
  subset_loop a b (Array.length a - 1)

(* elmo-lint: zero-alloc *)
let rec hamming_words (a : t) b s acc =
  if s < 1 then acc
  else
    hamming_words a b (s - 1)
      (acc + popcount_word (Array.unsafe_get a s lxor Array.unsafe_get b s))

(* elmo-lint: zero-alloc *)
let hamming a b =
  check_width a b;
  hamming_words a b (Array.length a - 1) 0

(* elmo-lint: zero-alloc *)
let rec cost_words (a : t) acc_bm s acc =
  if s < 1 then acc
  else
    cost_words a acc_bm (s - 1)
      (acc
      + popcount_word (Array.unsafe_get a s land lnot (Array.unsafe_get acc_bm s)))

(* elmo-lint: zero-alloc *)
let union_cost a acc_bm =
  check_width a acc_bm;
  cost_words a acc_bm (Array.length a - 1) 0

(* elmo-lint: zero-alloc *)
let reset t = Array.fill t 1 (Array.length t - 1) 0

(* elmo-lint: zero-alloc *)
let copy_into ~dst src =
  check_width dst src;
  Array.blit src 1 dst 1 (Array.length src - 1)

let of_list width indices =
  let t = create width in
  List.iter (set t) indices;
  t

let of_slice width hosts ~pos ~len ~base =
  let t = create width in
  for i = pos to pos + len - 1 do
    set t (hosts.(i) - base)
  done;
  t

(* Word-wise set-bit traversal: peel the lowest set bit with [w land (-w)];
   its index is the popcount of [lsb - 1] (the trailing-zero count), in
   constant time. O(words + set bits) work instead of one bounds-checked
   [get] per position. *)
let iter f t =
  for s = 1 to Array.length t - 1 do
    let w = ref (Array.unsafe_get t s) in
    if !w <> 0 then begin
      let base = (s - 1) * word_bits in
      while !w <> 0 do
        let lsb = !w land - !w in
        f (base + popcount_word (lsb - 1));
        w := !w land (!w - 1)
      done
    end
  done

(* The lowest set bit of slot [s] at or above in-word position [from],
   else of a later slot; -1 past the last slot. *)
(* elmo-lint: zero-alloc *)
let rec next_in_words (t : t) s from =
  if s >= Array.length t then -1
  else begin
    let w = Array.unsafe_get t s land (-1 lsl from) in
    if w = 0 then next_in_words t (s + 1) 0
    else ((s - 1) * word_bits) + popcount_word ((w land -w) - 1)
  end

(* elmo-lint: zero-alloc *)
let next_set t i =
  if i >= width t then -1 else next_in_words t (1 + (i / word_bits)) (i mod word_bits)

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

(* The bits of the word starting at bit [base] that lie in [\[lo, hi\]]. *)
(* elmo-lint: zero-alloc *)
let span_mask ~lo ~hi base =
  let below = if lo > base then lo - base else 0 in
  let top = if hi - base < word_bits - 1 then hi - base else word_bits - 1 in
  (-1 lsl below) land (-1 lsr (word_bits - 1 - top))

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
      let mask = span_mask ~lo ~hi base in
      let w = ref (t.(wi + 1) land mask) in
      t.(wi + 1) <- t.(wi + 1) land lnot mask;
      while !w <> 0 do
        let b = top_bit !w 0 32 in
        acc := (base + b) :: !acc;
        w := !w lxor (1 lsl b)
      done
    done;
    !acc
  end

(* elmo-lint: zero-alloc *)
let rec peel_into (dst : int array) base w n =
  if w = 0 then n
  else begin
    let lsb = w land -w in
    dst.(n) <- base + popcount_word (lsb - 1);
    peel_into dst base (w lxor lsb) (n + 1)
  end

(* elmo-lint: zero-alloc *)
let rec drain_words t dst ~lo ~hi wi last n =
  if wi > last then n
  else begin
    let base = wi * word_bits in
    let mask = span_mask ~lo ~hi base in
    let w = Array.unsafe_get t (wi + 1) land mask in
    Array.unsafe_set t (wi + 1) (Array.unsafe_get t (wi + 1) land lnot mask);
    drain_words t dst ~lo ~hi (wi + 1) last (peel_into dst base w n)
  end

(* elmo-lint: zero-alloc *)
let drain_into t ~lo ~hi dst =
  if lo > hi then 0
  else begin
    check_index t lo;
    check_index t hi;
    drain_words t dst ~lo ~hi (lo / word_bits) (hi / word_bits) 0
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
  let s = 1 + (pos / word_bits) and off = pos mod word_bits in
  let v = Array.unsafe_get t s lsr off in
  let v =
    if off > word_bits - 8 && s + 1 < Array.length t then
      v lor (Array.unsafe_get t (s + 1) lsl (word_bits - off))
    else v
  in
  v land 0xff

(* Bits at or past [width] are masked off, keeping the invariant that a
   bitmap's trailing word bits stay zero. *)
(* elmo-lint: zero-alloc *)
let or_byte t j v =
  check_index t (8 * j);
  let pos = 8 * j in
  let live = width t - pos in
  let v = if live < 8 then v land ((1 lsl live) - 1) else v land 0xff in
  if v <> 0 then begin
    let s = 1 + (pos / word_bits) and off = pos mod word_bits in
    Array.unsafe_set t s (Array.unsafe_get t s lor (v lsl off));
    if off > word_bits - 8 && s + 1 < Array.length t then
      Array.unsafe_set t (s + 1)
        (Array.unsafe_get t (s + 1) lor (v lsr (word_bits - off)))
  end

let to_bytes t =
  let b = Bytes.create ((width t + 7) / 8) in
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

let to_string t = String.init (width t) (fun i -> if get t i then '1' else '0')
let pp ppf t = Format.pp_print_string ppf (to_string t)
