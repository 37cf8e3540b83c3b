(* Byte-granular serialization with CRC32. The Reader is the hostile-input
   boundary of the durable wire format: every length prefix is validated
   against the bytes actually remaining before allocation, every read is
   bounds-checked, and all failures funnel into the single exception
   [Corrupt] that Wire.load catches at the record boundary. *)

(* Reflected CRC-32, polynomial 0xEDB88320, sliced by 16: [crc_tables]
   holds sixteen 256-entry tables back to back. Table 0 is the classic
   bytewise table; entry [n] of table [k] is the CRC register after feeding
   byte [n] followed by [k] zero bytes, so one lookup per byte of a
   16-byte block folds the whole block at once. A top-level immutable
   array is domain-safe (written once at module init, read-only
   afterwards). *)
let crc_tables =
  let t = Array.make (16 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1)
      else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 15 do
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
    let blocks_end = pos + (len land lnot 15) in
    while !i < blocks_end do
      let one = u32_le b !i lxor !crc
      and two = u32_le b (!i + 4)
      and three = u32_le b (!i + 8)
      and four = u32_le b (!i + 12) in
      crc :=
        Array.unsafe_get t ((15 * 256) + (one land 0xff))
        lxor Array.unsafe_get t ((14 * 256) + ((one lsr 8) land 0xff))
        lxor Array.unsafe_get t ((13 * 256) + ((one lsr 16) land 0xff))
        lxor Array.unsafe_get t ((12 * 256) + (one lsr 24))
        lxor Array.unsafe_get t ((11 * 256) + (two land 0xff))
        lxor Array.unsafe_get t ((10 * 256) + ((two lsr 8) land 0xff))
        lxor Array.unsafe_get t ((9 * 256) + ((two lsr 16) land 0xff))
        lxor Array.unsafe_get t ((8 * 256) + (two lsr 24))
        lxor Array.unsafe_get t ((7 * 256) + (three land 0xff))
        lxor Array.unsafe_get t ((6 * 256) + ((three lsr 8) land 0xff))
        lxor Array.unsafe_get t ((5 * 256) + ((three lsr 16) land 0xff))
        lxor Array.unsafe_get t ((4 * 256) + (three lsr 24))
        lxor Array.unsafe_get t ((3 * 256) + (four land 0xff))
        lxor Array.unsafe_get t ((2 * 256) + ((four lsr 8) land 0xff))
        lxor Array.unsafe_get t (256 + ((four lsr 16) land 0xff))
        lxor Array.unsafe_get t (four lsr 24);
      i := !i + 16
    done;
    for j = blocks_end to pos + len - 1 do
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

  let bitmap t bm =
    u32 t (Bitmap.width bm);
    raw t (Bitmap.to_bytes bm)

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

  let bitmap t =
    let width = u32 t in
    (* Guard before allocating: a hostile width field must not trigger a
       huge allocation the input bytes cannot back. *)
    let nbytes = (width + 7) / 8 in
    need t nbytes;
    let packed = raw t nbytes in
    (* [Bitmap.of_bytes] would mask set padding bits of the last byte,
       decoding two byte strings to one bitmap; refuse them instead. *)
    check
      (width land 7 = 0
      || Char.code (Bytes.get packed (nbytes - 1)) lsr (width land 7) = 0);
    match Bitmap.of_bytes width packed with
    | bm -> bm
    | exception Invalid_argument _ -> raise Corrupt
end

module Codec = struct
  type 'a t = { write : Writer.t -> 'a -> unit; read : Reader.t -> 'a }

  let where ok c =
    {
      c with
      read =
        (fun r ->
          let v = c.read r in
          Reader.check (ok v);
          v);
    }

  let int = { write = Writer.int; read = Reader.int }
  let nat = where (fun v -> v >= 0) int
  let index n = where (fun v -> 0 <= v && v < n) int
  let bool = { write = Writer.bool; read = Reader.bool }
  let float = { write = Writer.float; read = Reader.float }

  let bitmap ~width =
    where
      (fun bm -> Bitmap.width bm = width)
      { write = Writer.bitmap; read = Reader.bitmap }

  let option c =
    {
      write =
        (fun w -> function
          | None -> Writer.bool w false
          | Some v ->
              Writer.bool w true;
              c.write w v);
      read = (fun r -> if Reader.bool r then Some (c.read r) else None);
    }

  (* Counted reads evaluate elements with an explicit in-order loop
     (List.init / Array.init evaluation order is unspecified) and guard the
     count against the bytes remaining before allocating: each element
     consumes at least one byte, so count <= remaining is a sound bound. *)
  let count r =
    let n = Reader.u32 r in
    Reader.check (n <= Reader.remaining r);
    n

  let list c =
    {
      write =
        (fun w xs ->
          Writer.u32 w (List.length xs);
          List.iter (c.write w) xs);
      read =
        (fun r ->
          let rec go acc i =
            if i = 0 then List.rev acc else go (c.read r :: acc) (i - 1)
          in
          go [] (count r));
    }

  let ascending (key : 'a -> int) c =
    let rec strict = function
      | a :: (b :: _ as rest) -> key a < key b && strict rest
      | [ _ ] | [] -> true
    in
    where strict (list c)

  let array ~len c =
    {
      write =
        (fun w a ->
          Writer.u32 w (Array.length a);
          Array.iter (c.write w) a);
      read =
        (fun r ->
          let n = count r in
          Reader.check (n = len);
          if n = 0 then [||]
          else begin
            let a = Array.make n (c.read r) in
            for i = 1 to n - 1 do
              a.(i) <- c.read r
            done;
            a
          end);
    }

  let enum values =
    {
      write =
        (fun w v ->
          let i = ref 0 in
          while values.(!i) != v do
            incr i
          done;
          Writer.u8 w !i);
      read =
        (fun r ->
          let i = Reader.u8 r in
          Reader.check (i < Array.length values);
          values.(i));
    }

  type 'a case = Case : 'b t * ('b -> 'a) * ('a -> 'b option) -> 'a case

  let case c inj proj = Case (c, inj, proj)

  let variant cases =
    let cases = Array.of_list cases in
    {
      write =
        (fun w v ->
          let rec go i =
            match cases.(i) with
            | Case (c, _, proj) -> (
                match proj v with
                | Some b ->
                    Writer.u8 w i;
                    c.write w b
                | None -> go (i + 1))
          in
          go 0);
      read =
        (fun r ->
          let i = Reader.u8 r in
          Reader.check (i < Array.length cases);
          match cases.(i) with Case (c, inj, _) -> inj (c.read r));
    }

  type ('r, 'a) fields = { put : Writer.t -> 'r -> unit; get : Reader.t -> 'a }

  let field proj c = { put = (fun w v -> c.write w (proj v)); get = c.read }

  let ( and+ ) a b =
    {
      put =
        (fun w v ->
          a.put w v;
          b.put w v);
      get =
        (fun r ->
          let x = a.get r in
          let y = b.get r in
          (x, y));
    }

  let ( let+ ) fields build =
    {
      write = fields.put;
      read =
        (fun r ->
          match build (fields.get r) with
          | v -> v
          | exception Invalid_argument _ -> raise Reader.Corrupt);
    }

  let pair a b =
    {
      write =
        (fun w (x, y) ->
          a.write w x;
          b.write w y);
      read =
        (fun r ->
          let x = a.read r in
          let y = b.read r in
          (x, y));
    }

  let to_bytes write v =
    let w = Writer.create () in
    write w v;
    Writer.to_bytes w

  let of_bytes ?pos ?len read b =
    let r = Reader.of_bytes ?pos ?len b in
    let v = read r in
    Reader.check (Reader.remaining r = 0);
    v
end
