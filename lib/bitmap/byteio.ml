(* Byte-granular serialization with CRC32. The Reader is the hostile-input
   boundary of the durable wire format: every length prefix is validated
   against the bytes actually remaining before allocation, every read is
   bounds-checked, and all failures funnel into the single exception
   [Corrupt] that Wire.load catches at the record boundary. *)

(* Reflected CRC-32, polynomial 0xEDB88320, sliced by 8: [crc_tables] holds
   eight 256-entry tables back to back. Table 0 is the classic bytewise
   table; entry [n] of table [k] is the CRC register after feeding byte [n]
   followed by [k] zero bytes, so one lookup per byte of an 8-byte word
   folds the whole word at once. A top-level immutable array is
   domain-safe (written once at module init, read-only afterwards). *)
let crc_tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1)
      else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

let crc32_init = 0xFFFFFFFF

let u32_le b i = Int32.to_int (Bytes.get_int32_le b i) land 0xFFFFFFFF

let crc32_feed crc b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Byteio.crc32_feed: slice out of range"
    (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
  else begin
    let t = crc_tables in
    (* The running state is the low 32 bits; masking keeps every table
       index below 256. *)
    let crc = ref (crc land 0xFFFFFFFF) in
    let i = ref pos in
    let words_end = pos + (len land lnot 7) in
    while !i < words_end do
      let one = u32_le b !i lxor !crc and two = u32_le b (!i + 4) in
      crc :=
        Array.unsafe_get t ((7 * 256) + (one land 0xff))
        lxor Array.unsafe_get t ((6 * 256) + ((one lsr 8) land 0xff))
        lxor Array.unsafe_get t ((5 * 256) + ((one lsr 16) land 0xff))
        lxor Array.unsafe_get t ((4 * 256) + (one lsr 24))
        lxor Array.unsafe_get t ((3 * 256) + (two land 0xff))
        lxor Array.unsafe_get t ((2 * 256) + ((two lsr 8) land 0xff))
        lxor Array.unsafe_get t (256 + ((two lsr 16) land 0xff))
        lxor Array.unsafe_get t (two lsr 24);
      i := !i + 8
    done;
    for j = words_end to pos + len - 1 do
      let byte = Char.code (Bytes.unsafe_get b j) in
      crc := Array.unsafe_get t ((!crc lxor byte) land 0xff) lxor (!crc lsr 8)
    done;
    !crc
  end

let crc32_finish crc = crc lxor 0xFFFFFFFF
let crc32 b ~pos ~len = crc32_finish (crc32_feed crc32_init b ~pos ~len)

module Writer = struct
  type t = Buffer.t

  let create () = Buffer.create 256
  let length = Buffer.length

  let u8 t v =
    if v < 0 || v > 0xff then
      invalid_arg "Byteio.Writer.u8: out of range"
      (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
    else Buffer.add_char t (Char.chr v)

  let u32 t v =
    if v < 0 || v > 0xFFFFFFFF then
      invalid_arg "Byteio.Writer.u32: out of range"
      (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
    else Buffer.add_int32_le t (Int32.of_int v)

  let int t v = Buffer.add_int64_le t (Int64.of_int v)
  let bool t v = Buffer.add_char t (if v then '\001' else '\000')
  let float t v = Buffer.add_int64_le t (Int64.bits_of_float v)
  let raw t b = Buffer.add_bytes t b

  let bytes_field t b =
    u32 t (Bytes.length b);
    raw t b

  let bitmap t bm =
    u32 t (Bitmap.width bm);
    raw t (Bitmap.to_bytes bm)

  let option t f = function
    | None -> bool t false
    | Some v ->
        bool t true;
        f t v

  let list t f xs =
    u32 t (List.length xs);
    List.iter (fun x -> f t x) xs

  let int_array t a =
    u32 t (Array.length a);
    Array.iter (fun v -> int t v) a

  let bool_array t a =
    u32 t (Array.length a);
    Array.iter (fun v -> bool t v) a

  let to_bytes = Buffer.to_bytes
end

module Reader = struct
  type t = { data : bytes; limit : int; mutable pos : int }

  exception Corrupt

  let of_bytes ?(pos = 0) ?len b =
    let len = match len with Some l -> l | None -> Bytes.length b - pos in
    if pos < 0 || len < 0 || pos + len > Bytes.length b then
      invalid_arg "Byteio.Reader.of_bytes: slice out of range"
      (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
    else { data = b; limit = pos + len; pos }

  let pos t = t.pos
  let remaining t = t.limit - t.pos
  let check cond = if not cond then raise Corrupt

  let need t n = if n < 0 || t.limit - t.pos < n then raise Corrupt

  let u8 t =
    need t 1;
    let v = Char.code (Bytes.unsafe_get t.data t.pos) in
    t.pos <- t.pos + 1;
    v

  let u32 t =
    need t 4;
    let v = Int32.to_int (Bytes.get_int32_le t.data t.pos) land 0xFFFFFFFF in
    t.pos <- t.pos + 4;
    v

  (* [Int64.to_int] drops bit 63, so a forged word that differs from a
     valid one only there would otherwise decode to the same int. *)
  let int t =
    need t 8;
    let raw = Bytes.get_int64_le t.data t.pos in
    let v = Int64.to_int raw in
    check (Int64.equal (Int64.of_int v) raw);
    t.pos <- t.pos + 8;
    v

  let bool t =
    match u8 t with 0 -> false | 1 -> true | _ -> raise Corrupt

  let float t =
    need t 8;
    let v = Int64.float_of_bits (Bytes.get_int64_le t.data t.pos) in
    t.pos <- t.pos + 8;
    v

  let raw t n =
    need t n;
    let b = Bytes.sub t.data t.pos n in
    t.pos <- t.pos + n;
    b

  let bytes_field t =
    let n = u32 t in
    raw t n

  let bitmap t =
    let width = u32 t in
    (* Guard before allocating: a hostile width field must not trigger a
       huge allocation the input bytes cannot back. *)
    let nbytes = (width + 7) / 8 in
    need t nbytes;
    let packed = raw t nbytes in
    (* of_bytes masks padding bits of the last byte, so hostile padding
       cannot violate the bitmap's width invariant. *)
    match Bitmap.of_bytes width packed with
    | bm -> bm
    | exception Invalid_argument _ -> raise Corrupt

  let option t f = if bool t then Some (f t) else None

  (* Counted reads evaluate elements with an explicit in-order loop
     (List.init / Array.init evaluation order is unspecified) and guard the
     count against the bytes remaining before allocating: each element
     consumes at least one byte, so count <= remaining is a sound bound. *)
  let list t f =
    let n = u32 t in
    check (n <= remaining t);
    let rec go acc i = if i = 0 then List.rev acc else go (f t :: acc) (i - 1) in
    go [] n

  let int_array t =
    let n = u32 t in
    check (n * 8 <= remaining t);
    let a = Array.make (max n 1) 0 in
    for i = 0 to n - 1 do
      a.(i) <- int t
    done;
    if n = 0 then [||] else a

  let bool_array t =
    let n = u32 t in
    check (n <= remaining t);
    let a = Array.make (max n 1) false in
    for i = 0 to n - 1 do
      a.(i) <- bool t
    done;
    if n = 0 then [||] else a
end
