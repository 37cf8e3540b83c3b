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

  let raw t b = Buffer.add_bytes t b
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

  (* Byte [i] past the position, once [need t (i + 1)] has held. *)
  let byte t i = Char.code (Bytes.unsafe_get t.data (t.pos + i))

  let u8 t =
    need t 1;
    let v = byte t 0 in
    t.pos <- t.pos + 1;
    v
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

  (* LEB128 of the 63-bit pattern: [lsr] clears a negative one's sign,
     so at most nine bytes. The reader takes only the canonical form: a
     form of two or more bytes does not end in a zero byte, and a ninth
     byte carries bits 56-62 and does not continue. *)
  let rec put_leb w v =
    if v lsr 7 = 0 then Buffer.add_char w (Char.unsafe_chr v)
    else begin
      Buffer.add_char w (Char.unsafe_chr (v land 0x7f lor 0x80));
      put_leb w (v lsr 7)
    end

  let rec get_leb r acc shift =
    let b = Reader.u8 r in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b < 0x80 then (Reader.check (b <> 0 || shift = 0); acc)
    else (Reader.check (shift < 56); get_leb r acc (shift + 7))

  let nat = where (fun v -> v >= 0) { write = put_leb; read = (fun r -> get_leb r 0 0) }

  (* Zigzag: 0, -1, 1, -2 ... travel as 0, 1, 2, 3 ... *)
  let int =
    {
      write = (fun w v -> put_leb w ((v lsl 1) lxor (v asr (Sys.int_size - 1))));
      read = (fun r -> let z = get_leb r 0 0 in (z lsr 1) lxor (-(z land 1)));
    }

  (* The bytes [n - 1] needs, at least one, so a counted list of indexes
     spends a byte per element. An eighth byte above 0x3f would shift
     bits out of the int. *)
  let index n =
    let rec width k = if k < 8 && (n - 1) lsr (8 * k) <> 0 then width (k + 1) else k in
    let nbytes = width 1 in
    {
      write =
        (fun w v ->
          if v < 0 || v >= n then
            invalid_arg "Byteio.Codec.index: out of range"
            (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
          else
            for i = 0 to nbytes - 1 do
              Buffer.add_char w (Char.unsafe_chr ((v lsr (8 * i)) land 0xff))
            done);
      read =
        (fun r ->
          Reader.need r nbytes;
          let v = ref 0 in
          for i = nbytes - 1 downto 0 do
            v := (!v lsl 8) lor Reader.byte r i
          done;
          Reader.check (!v < n && (nbytes < 8 || Reader.byte r 7 < 0x40));
          r.pos <- r.pos + nbytes;
          !v);
    }

  let enum values =
    let tag = index (Array.length values) in
    let rec find v i = if values.(i) == v then i else find v (i + 1) in
    { write = (fun w v -> tag.write w (find v 0)); read = (fun r -> values.(tag.read r)) }

  let bool = enum [| false; true |]

  let float =
    {
      write = (fun w v -> Buffer.add_int64_le w (Int64.bits_of_float v));
      read =
        (fun r ->
          Reader.need r 8;
          r.pos <- r.pos + 8;
          Int64.float_of_bits (Bytes.get_int64_le r.data (r.pos - 8)));
    }

  (* [Bitmap.or_byte] would keep set padding bits past the width, so two
     byte strings would decode to one bitmap unless refused here. The
     guard comes before allocating: a hostile topology's width must not
     trigger an allocation the input bytes cannot back. *)
  let bitmap ~width =
    let nbytes = (width + 7) / 8 in
    {
      write =
        (fun w bm ->
          if Bitmap.width bm <> width then
            invalid_arg "Byteio.Codec.bitmap: width"
            (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
          else
            for j = 0 to nbytes - 1 do
              Buffer.add_char w (Char.unsafe_chr (Bitmap.get_byte bm j))
            done);
      read =
        (fun r ->
          Reader.need r nbytes;
          Reader.check (width land 7 = 0 || Reader.byte r (nbytes - 1) lsr (width land 7) = 0);
          let bm = Bitmap.create width in
          for j = 0 to nbytes - 1 do
            Bitmap.or_byte bm j (Reader.byte r j)
          done;
          r.pos <- r.pos + nbytes;
          bm);
    }

  let option c =
    {
      write =
        (fun w v ->
          bool.write w (Option.is_some v);
          Option.iter (c.write w) v);
      read = (fun r -> if bool.read r then Some (c.read r) else None);
    }

  (* A counted read evaluates elements with an explicit in-order loop
     (List.init evaluation order is unspecified) and guards the count
     against the bytes remaining before reading any: each element
     consumes at least one byte, so count <= remaining is a sound bound. *)
  let list c =
    {
      write =
        (fun w xs ->
          nat.write w (List.length xs);
          List.iter (c.write w) xs);
      read =
        (fun r ->
          let rec go acc i =
            if i = 0 then List.rev acc else go (c.read r :: acc) (i - 1)
          in
          let n = nat.read r in
          Reader.check (n <= Reader.remaining r);
          go [] n);
    }

  let ascending (key : 'a -> int) c =
    let rec strict = function
      | a :: (b :: _ as rest) -> key a < key b && strict rest
      | [ _ ] | [] -> true
    in
    where strict (list c)

  type 'a case = Case : 'b t * ('b -> 'a) * ('a -> 'b option) -> 'a case

  let case c inj proj = Case (c, inj, proj)

  let variant cases =
    let cases = Array.of_list cases in
    let tag = index (Array.length cases) in
    {
      write =
        (fun w v ->
          let rec go i =
            match cases.(i) with
            | Case (c, _, proj) -> (
                match proj v with
                | Some b ->
                    tag.write w i;
                    c.write w b
                | None -> go (i + 1))
          in
          go 0);
      read =
        (fun r -> match cases.(tag.read r) with Case (c, inj, _) -> inj (c.read r));
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

  let array ~len c =
    let+ l =
      field Array.to_list (where (fun l -> List.compare_length_with l len = 0) (list c))
    in
    Array.of_list l

  let with_bytes c =
    {
      write = (fun w (_, b) -> Writer.raw w b);
      read =
        (fun r ->
          let start = r.pos in
          let v = c.read r in
          (v, Bytes.sub r.data start (r.pos - start)));
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
