(* Bitmaps travel byte-wide. Bitmap bit [8j + k] is stream bit [k] of
   chunk [j] (bit 0 first, as if written one bit at a time), while
   [Bitmap.get_byte] puts bit [8j] in the least significant position and
   the stream is MSB-first — so a chunk crosses between the two orders
   through an 8-bit reversal. *)
module Chunk = struct
  let reversed =
    String.init 256 (fun b ->
        let r = ref 0 in
        for k = 0 to 7 do
          if b land (1 lsl k) <> 0 then r := !r lor (1 lsl (7 - k))
        done;
        Char.chr !r)

  (* elmo-lint: zero-alloc *)
  let reverse b = Char.code (String.unsafe_get reversed b)

  (* Chunk [j] of a bitmap as stream bits: the chunk's bits sit at the top
     of an 8-bit value (first bit in bit 7), zero below. *)
  (* elmo-lint: zero-alloc *)
  let get bm j = reverse (Bitmap.get_byte bm j)

  (* elmo-lint: zero-alloc *)
  let width w j = if w - (8 * j) < 8 then w - (8 * j) else 8
end

module Sink = struct
  type t = {
    data : bytes;
    mutable byte : int; (* next byte index in [data] *)
    mutable cur : int; (* partial byte, bits fill from MSB *)
    mutable used : int; (* bits used in [cur], 0..7 *)
    mutable total : int;
  }

  let of_bytes ?(pos = 0) data =
    if pos < 0 || pos > Bytes.length data then
      invalid_arg "Bitio.Sink.of_bytes: position out of range";
    { data; byte = pos; cur = 0; used = 0; total = 0 }

  (* elmo-lint: zero-alloc *)
  let reset t ~pos =
    if pos < 0 || pos > Bytes.length t.data then
      (* elmo-lint: allow zero-alloc — error path: raising Invalid_argument allocates *)
      invalid_arg "Bitio.Sink.reset: position out of range";
    t.byte <- pos;
    t.cur <- 0;
    t.used <- 0;
    t.total <- 0

  (* elmo-lint: zero-alloc *)
  let flush t v =
    if t.byte >= Bytes.length t.data then
      (* elmo-lint: allow zero-alloc — error path: raising Invalid_argument allocates *)
      invalid_arg "Bitio.Sink: output buffer too small";
    Bytes.unsafe_set t.data t.byte (Char.unsafe_chr v);
    t.byte <- t.byte + 1

  (* Appends the top [n] bits (1..8) of the 8-bit value [x], whose lower
     [8 - n] bits are zero: a 16-bit window holds the partial byte followed
     by [x], and its high byte is complete once [used + n >= 8]. *)
  (* elmo-lint: zero-alloc *)
  let put_top t x n =
    let w = (t.cur lsl 8) lor (x lsl (8 - t.used)) in
    t.total <- t.total + n;
    if t.used + n >= 8 then begin
      flush t (w lsr 8);
      t.cur <- w land 0xff;
      t.used <- t.used + n - 8
    end
    else begin
      t.cur <- w lsr 8;
      t.used <- t.used + n
    end

  (* elmo-lint: zero-alloc *)
  let bit t b = put_top t (if b then 0x80 else 0) 1

  (* elmo-lint: zero-alloc *)
  let rec bits_loop t value n =
    if n > 8 then begin
      put_top t ((value lsr (n - 8)) land 0xff) 8;
      bits_loop t value (n - 8)
    end
    else if n > 0 then put_top t ((value lsl (8 - n)) land 0xff) n

  (* elmo-lint: zero-alloc *)
  let bits t value n =
    if n < 0 || n > 62 then
      (* elmo-lint: allow zero-alloc — error path: raising Invalid_argument allocates *)
      invalid_arg "Bitio.Sink.bits: width out of range";
    if n < 62 && (value < 0 || value lsr n <> 0) then
      (* elmo-lint: allow zero-alloc — error path: raising Invalid_argument allocates *)
      invalid_arg "Bitio.Sink.bits: value does not fit";
    bits_loop t value n

  (* elmo-lint: zero-alloc *)
  let bitmap t bm =
    let width = Bitmap.width bm in
    for j = 0 to ((width + 7) / 8) - 1 do
      put_top t (Chunk.get bm j) (Chunk.width width j)
    done

  (* Bits [pos .. pos + n) (n <= 8) of [src] at the top of an 8-bit value:
     a 16-bit window over the byte holding bit [pos] and the next one. *)
  (* elmo-lint: zero-alloc *)
  let src_top src pos n =
    let byte = pos lsr 3 in
    let hi = Char.code (Bytes.unsafe_get src byte) in
    let lo =
      if byte + 1 < Bytes.length src then Char.code (Bytes.unsafe_get src (byte + 1))
      else 0
    in
    ((((hi lsl 8) lor lo) lsl (pos land 7)) lsr 8) land (0xff lxor ((1 lsl (8 - n)) - 1))

  (* Source bytes [i, stop) of [src], each read [sh] (0..7) bits late so
     that it ends with the next byte's top [sh] bits, written into [data]
     from byte [dst] behind the [k] pending bits of [cur]. Every byte read
     completes one output byte. Returns the pending bits left at the end.
     With [sh > 0] byte [stop] is read too, so the caller guarantees it
     exists. *)
  (* elmo-lint: zero-alloc *)
  let rec shift_bytes data dst src i stop sh k cur =
    if i = stop then cur
    else begin
      let x =
        if sh = 0 then Char.code (Bytes.unsafe_get src i)
        else
          (((Char.code (Bytes.unsafe_get src i) lsl 8)
           lor Char.code (Bytes.unsafe_get src (i + 1)))
          lsr (8 - sh))
          land 0xff
      in
      let w = (cur lsl 8) lor (x lsl (8 - k)) in
      Bytes.unsafe_set data dst (Char.unsafe_chr (w lsr 8));
      shift_bytes data (dst + 1) src (i + 1) stop sh k (w land 0xff)
    end

  (* elmo-lint: zero-alloc *)
  let append t src ~off ~len =
    if off < 0 || len < 0 || off + len > 8 * Bytes.length src then
      (* elmo-lint: allow zero-alloc — error path: raising Invalid_argument allocates *)
      invalid_arg "Bitio.Sink.append: bit range out of bounds";
    let whole = len lsr 3 in
    if t.byte + whole > Bytes.length t.data then
      (* elmo-lint: allow zero-alloc — error path: raising Invalid_argument allocates *)
      invalid_arg "Bitio.Sink: output buffer too small";
    let first = off lsr 3 in
    let sh = off land 7 in
    if sh = 0 && t.used = 0 then
      (* Both sides on a byte boundary: whole bytes are a plain blit. *)
      Bytes.blit src first t.data t.byte whole
    else
      (* With [sh > 0], bits [off, off + 8 * whole) reach into byte
         [first + whole], so [shift_bytes] may read it. *)
      t.cur <- shift_bytes t.data t.byte src first (first + whole) sh t.used t.cur;
    t.byte <- t.byte + whole;
    t.total <- t.total + (8 * whole);
    let rest = len land 7 in
    if rest > 0 then put_top t (src_top src (off + (8 * whole)) rest) rest

  (* elmo-lint: zero-alloc *)
  let align_byte t = if t.used <> 0 then put_top t 0 (8 - t.used)

  (* elmo-lint: zero-alloc *)
  let bit_length t = t.total

  (* elmo-lint: zero-alloc *)
  let byte_pos t = t.byte

  (* elmo-lint: zero-alloc *)
  let finish t =
    align_byte t;
    t.byte
end

(* A run of bits kept at the alignments it will be appended at: [at.(a)]
   holds the run from bit [a] of its first byte (the [a] bits before it
   zero, the tail zero-padded) when bit [a] of [built] is set. A sink
   holding [a] pending bits ORs them into [at.(a)]'s first byte and blits
   the rest, so appending a whole run at a built alignment shifts nothing;
   at any other alignment it is [Sink.append]'s shifted copy of [at.(0)],
   which is always built. *)
module Run = struct
  type t = { len : int; built : int; at : bytes array }

  (* The first [len] bits of [src] from bit [a] of a fresh buffer, the [a]
     bits before them and the tail zero: each source byte lands across two
     output bytes. *)
  let copy_at src ~len a =
    let b = Bytes.make ((a + len + 7) / 8) '\000' in
    let n = (len + 7) / 8 in
    for i = 0 to n - 1 do
      let x = Char.code (Bytes.get src i) in
      let x = if i = n - 1 then x land (0xff lsl ((8 * n) - len)) land 0xff else x in
      Bytes.set b i (Char.unsafe_chr (Char.code (Bytes.get b i) lor (x lsr a)));
      if a > 0 && i + 1 < Bytes.length b then
        Bytes.set b (i + 1) (Char.unsafe_chr ((x lsl (8 - a)) land 0xff))
    done;
    b

  let rec build_at at src ~len built = function
    | [] -> built
    | a :: rest ->
        if a < 0 || a > 7 then invalid_arg "Bitio.Run.make: alignment out of range";
        if built land (1 lsl a) <> 0 then build_at at src ~len built rest
        else begin
          at.(a) <- copy_at src ~len a;
          build_at at src ~len (built lor (1 lsl a)) rest
        end

  let make ~aligns src ~len =
    if len < 0 || len > 8 * Bytes.length src then
      invalid_arg "Bitio.Run.make: source shorter than the run";
    let at = Array.make 8 (copy_at src ~len 0) in
    { len; built = build_at at src ~len 1 aligns; at }

  let bytes r = r.at.(0)

  (* elmo-lint: zero-alloc *)
  let append (s : Sink.t) r ~off =
    let a = s.Sink.used in
    if off <> 0 || r.built land (1 lsl a) = 0 then
      Sink.append s (Array.unsafe_get r.at 0) ~off ~len:(r.len - off)
    else begin
      let src = Array.unsafe_get r.at a in
      let total = a + r.len in
      let complete = total lsr 3 in
      if complete = 0 then s.Sink.cur <- s.Sink.cur lor Char.code (Bytes.unsafe_get src 0)
      else begin
        if s.Sink.byte + complete > Bytes.length s.Sink.data then
          (* elmo-lint: allow zero-alloc — error path: raising Invalid_argument allocates *)
          invalid_arg "Bitio.Sink: output buffer too small";
        Bytes.unsafe_set s.Sink.data s.Sink.byte
          (Char.unsafe_chr (s.Sink.cur lor Char.code (Bytes.unsafe_get src 0)));
        Bytes.blit src 1 s.Sink.data (s.Sink.byte + 1) (complete - 1);
        s.Sink.byte <- s.Sink.byte + complete;
        s.Sink.cur <-
          (if total land 7 = 0 then 0 else Char.code (Bytes.unsafe_get src complete))
      end;
      s.Sink.used <- total land 7;
      s.Sink.total <- s.Sink.total + r.len
    end
end

(* A growable {!Sink}: each write first makes room for the bytes it can
   complete, then runs the sink's kernel. *)
module Writer = struct
  type t = { mutable s : Sink.t }

  let create () = { s = Sink.of_bytes (Bytes.create 64) }

  let reserve t n =
    let s = t.s in
    if s.Sink.byte + n > Bytes.length s.Sink.data then begin
      let data = Bytes.create ((2 * Bytes.length s.Sink.data) + n) in
      Bytes.blit s.Sink.data 0 data 0 s.Sink.byte;
      t.s <- { s with Sink.data }
    end

  let bit t b =
    reserve t 1;
    Sink.bit t.s b

  let bits t value n =
    if n < 0 || n > 62 then invalid_arg "Bitio.Writer.bits: width out of range";
    if n < 62 && (value < 0 || value lsr n <> 0) then
      invalid_arg "Bitio.Writer.bits: value does not fit";
    reserve t 8;
    Sink.bits t.s value n

  let bitmap t bm =
    reserve t ((Bitmap.width bm + 7) / 8);
    Sink.bitmap t.s bm

  let align_byte t =
    reserve t 1;
    Sink.align_byte t.s

  let bit_length t = Sink.bit_length t.s

  let to_bytes t =
    let s = t.s in
    let n = s.Sink.byte in
    let b = Bytes.create (if s.Sink.used = 0 then n else n + 1) in
    Bytes.blit s.Sink.data 0 b 0 n;
    if s.Sink.used <> 0 then Bytes.unsafe_set b n (Char.unsafe_chr s.Sink.cur);
    b
end

module Reader = struct
  type t = { data : bytes; mutable pos : int }

  exception Truncated

  let of_bytes data = { data; pos = 0 }

  (* The [n] bits (1..8) of [data] from bit [pos] as an [n]-bit integer,
     first bit highest: a 16-bit window over that byte and the next one.
     The caller has checked that they lie inside [data]. *)
  (* elmo-lint: zero-alloc *)
  let window data pos n =
    let byte = pos / 8 in
    let hi = Char.code (Bytes.unsafe_get data byte) in
    let lo =
      if byte + 1 < Bytes.length data then Char.code (Bytes.unsafe_get data (byte + 1))
      else 0
    in
    let w = (hi lsl 8) lor lo in
    (w lsr (16 - (pos mod 8) - n)) land ((1 lsl n) - 1)

  (* elmo-lint: zero-alloc *)
  let take t n =
    if t.pos + n > Bytes.length t.data * 8 then raise Truncated;
    let v = window t.data t.pos n in
    t.pos <- t.pos + n;
    v

  (* elmo-lint: zero-alloc *)
  let bit t = take t 1 = 1

  (* elmo-lint: zero-alloc *)
  let rec bits_loop t acc n =
    if n > 8 then bits_loop t ((acc lsl 8) lor take t 8) (n - 8)
    else if n > 0 then (acc lsl n) lor take t n
    else acc

  let bits t n =
    if n < 0 || n > 62 then invalid_arg "Bitio.Reader.bits: width out of range";
    bits_loop t 0 n

  let bitmap t width =
    let bm = Bitmap.create width in
    for j = 0 to ((width + 7) / 8) - 1 do
      let n = Chunk.width width j in
      Bitmap.or_byte bm j (Chunk.reverse (take t n lsl (8 - n)))
    done;
    bm

  (* elmo-lint: zero-alloc *)
  let skip t n =
    if n < 0 || t.pos + n > Bytes.length t.data * 8 then raise Truncated;
    t.pos <- t.pos + n

  (* [leading.[v]]: the leading zero bits of the 8-bit value [v] (8 for 0),
     which is where the first set stream bit of a byte lies. *)
  let leading =
    String.init 256 (fun v ->
        let rec zeros k = if k < 8 && v land (0x80 lsr k) = 0 then zeros (k + 1) else k in
        Char.chr (zeros 0))

  (* The first set stream bit of [data] in [pos, stop), or -1: a byte per
     step, the bits before [pos] masked off its first byte. *)
  (* elmo-lint: zero-alloc *)
  let rec next_stream_bit data pos stop =
    if pos >= stop then -1
    else begin
      let byte = pos lsr 3 in
      let v = Char.code (Bytes.unsafe_get data byte) land (0xff lsr (pos land 7)) in
      if v = 0 then next_stream_bit data ((byte + 1) lsl 3) stop
      else
        let p = (byte lsl 3) + Char.code (String.unsafe_get leading v) in
        if p < stop then p else -1
    end

  (* A bitmap's bit [i] is stream bit [off + i]: a bitmap goes on the wire
     bit 0 first. *)
  (* elmo-lint: zero-alloc *)
  let next_set data ~off width i =
    if off < 0 || width < 0 || off + width > Bytes.length data * 8 then raise Truncated;
    let p = next_stream_bit data (off + i) (off + width) in
    if p < 0 then -1 else p - off

  (* elmo-lint: zero-alloc *)
  let bit_at data pos =
    if pos < 0 || pos >= Bytes.length data * 8 then raise Truncated;
    Char.code (Bytes.unsafe_get data (pos lsr 3)) land (0x80 lsr (pos land 7)) <> 0

  let align_byte t = t.pos <- (t.pos + 7) / 8 * 8

  let seek t pos =
    if pos < 0 || pos > Bytes.length t.data * 8 then
      invalid_arg "Bitio.Reader.seek: position out of range";
    t.pos <- pos

  let pos t = t.pos
  let remaining t = (Bytes.length t.data * 8) - t.pos
end
