(* Record framing: len:u32 | crc:u32 | kind:u8 | epoch:u32 | seq:i64 |
   payload. The CRC covers kind..seq ++ payload (13 + len bytes), so the
   two prefix words are authenticated transitively: a corrupted [len]
   shifts the CRC window and fails the check (except by 1-in-2^32
   collision — which the matrix test's bit-flip arm measures, not
   assumes). *)

let magic = "ELMOWAL4"
let magic_len = 8
let prefix_len = 8 (* len + crc *)
let covered_len = 13 (* kind + epoch + seq *)
let header_len = prefix_len + covered_len

type t = {
  buf : Buffer.t;
  mutable next_seq : int;
  mutable last_epoch : int;
  mutable nrecords : int;
}

let create () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  { buf; next_seq = 0; last_epoch = 0; nrecords = 0 }

let kind_snapshot = 1
let kind_op = 2

let append_record t ~kind ~epoch payload =
  if epoch < 0 || epoch > 0xFFFFFFFF then
    invalid_arg "Wire: epoch out of u32 range";
  if epoch < t.last_epoch then invalid_arg "Wire: epoch regression";
  let plen = Bytes.length payload in
  if plen > 0xFFFFFFFF then invalid_arg "Wire: payload over u32 length";
  let covered = Bytes.create covered_len in
  Bytes.set_uint8 covered 0 kind;
  Bytes.set_int32_le covered 1 (Int32.of_int epoch);
  Bytes.set_int64_le covered 5 (Int64.of_int t.next_seq);
  let crc =
    Byteio.crc32_finish
      (Byteio.crc32_feed
         (Byteio.crc32_feed Byteio.crc32_init covered ~pos:0 ~len:covered_len)
         payload ~pos:0 ~len:plen)
  in
  Buffer.add_int32_le t.buf (Int32.of_int plen);
  Buffer.add_int32_le t.buf (Int32.of_int crc);
  Buffer.add_bytes t.buf covered;
  Buffer.add_bytes t.buf payload;
  t.next_seq <- t.next_seq + 1;
  t.last_epoch <- epoch;
  t.nrecords <- t.nrecords + 1

let append_op t ~epoch ~topo op =
  append_record t ~kind:kind_op ~epoch
    (Byteio.Codec.to_bytes (Journal.op_codec ~topo).write op)

let append_snapshot t ~epoch ctrl =
  append_record t ~kind:kind_snapshot ~epoch
    (Byteio.Codec.to_bytes Controller.write_snapshot ctrl)

let contents t = Buffer.to_bytes t.buf
let size t = Buffer.length t.buf
let records t = t.nrecords

(* {1 Loading} *)

type kind = Snapshot | Op

type record = {
  r_kind : kind;
  r_epoch : int;
  r_seq : int;
  r_off : int;
  r_payload_len : int;
}

type loaded = {
  l_snapshot : Controller.snapshot option;
  l_snapshot_epoch : int;
  l_replay_base_ops : int;
  l_suffix : Journal.op list;
  l_epoch : int;
  l_records : record list;
  l_truncated_at : int option;
  l_dropped_snapshots : int;
}

let u32_at b pos = Int32.to_int (Bytes.get_int32_le b pos) land 0xFFFFFFFF

(* Structural pass: accept records in order while framing holds, stop at
   the first violation. Payloads are not interpreted here. *)
let scan data =
  let total = Bytes.length data in
  let recs = ref [] in
  let truncated = ref None in
  let pos = ref magic_len in
  let prev_seq = ref (-1) in
  let prev_epoch = ref 0 in
  let scanning = ref true in
  while !scanning do
    if !pos = total then scanning := false
    else if total - !pos < header_len then (
      truncated := Some !pos;
      scanning := false)
    else
      let plen = u32_at data !pos in
      let crc = u32_at data (!pos + 4) in
      let body_pos = !pos + prefix_len in
      if plen > total - !pos - header_len then (
        truncated := Some !pos;
        scanning := false)
      else if Byteio.crc32 data ~pos:body_pos ~len:(covered_len + plen) <> crc
      then (
        truncated := Some !pos;
        scanning := false)
      else
        let kind = Char.code (Bytes.get data body_pos) in
        let epoch = u32_at data (body_pos + 1) in
        let seq64 = Bytes.get_int64_le data (body_pos + 5) in
        (* Compare sequence numbers as int64 — a flipped bit 63 would be
           invisible after Int64.to_int's truncation. *)
        if
          (not (Int64.equal seq64 (Int64.of_int (!prev_seq + 1))))
          || epoch < !prev_epoch
          || (kind <> kind_snapshot && kind <> kind_op)
        then (
          truncated := Some !pos;
          scanning := false)
        else (
          incr prev_seq;
          prev_epoch := epoch;
          recs :=
            {
              r_kind = (if kind = kind_snapshot then Snapshot else Op);
              r_epoch = epoch;
              r_seq = !prev_seq;
              r_off = !pos;
              r_payload_len = plen;
            }
            :: !recs;
          pos := !pos + header_len + plen)
  done;
  (List.rev !recs, !truncated, !prev_epoch)

let decode read data r =
  (* Catch-all on purpose: a payload of hostile bytes must never take
     recovery down — any decoding exception means "this record is
     corrupt" (a snapshot falls back to the previous one). *)
  match
    Byteio.Codec.of_bytes ~pos:(r.r_off + header_len) ~len:r.r_payload_len read
      data
  with
  | v -> Some v
  | exception _ -> None

let decode_snapshot data r = decode Controller.read_snapshot data r
let decode_op ~topo data r = decode (Journal.op_codec ~topo).read data r

let load data =
  if
    Bytes.length data < magic_len
    || not (String.equal (Bytes.sub_string data 0 magic_len) magic)
  then Error "bad magic: not a wire log"
  else
    let records, truncated_at, max_epoch = scan data in
    (* Newest decodable snapshot wins; corrupt candidates are fallback
       hops, not truncation points. *)
    let rec choose dropped = function
      | [] -> (None, dropped)
      | r :: older -> (
          match r.r_kind with
          | Op -> choose dropped older
          | Snapshot -> (
              match decode_snapshot data r with
              | Some s -> (Some (s, r), dropped)
              | None -> choose (dropped + 1) older))
    in
    let chosen, dropped = choose 0 (List.rev records) in
    match chosen with
    | None ->
        Ok
          {
            l_snapshot = None;
            l_snapshot_epoch = 0;
            l_replay_base_ops = 0;
            l_suffix = [];
            l_epoch = max_epoch;
            l_records = records;
            l_truncated_at = truncated_at;
            l_dropped_snapshots = dropped;
          }
    | Some (snap, snap_rec) ->
        let topo = Controller.snapshot_topology snap in
        let base = ref 0 in
        let suffix = ref [] in
        let truncated = ref truncated_at in
        let replaying = ref true in
        List.iter
          (fun r ->
            match r.r_kind with
            | Snapshot -> ()
            | Op ->
              if r.r_seq < snap_rec.r_seq then incr base
              else if !replaying then
                match decode_op ~topo data r with
                | Some op -> suffix := op :: !suffix
                | None ->
                    (* A framed-but-undecodable op after the snapshot:
                       everything from here on is suspect — truncate. *)
                    truncated := Some r.r_off;
                    replaying := false)
          records;
        Ok
          {
            l_snapshot = Some snap;
            l_snapshot_epoch = snap_rec.r_epoch;
            l_replay_base_ops = !base;
            l_suffix = List.rev !suffix;
            l_epoch = max_epoch;
            l_records = records;
            l_truncated_at = !truncated;
            l_dropped_snapshots = dropped;
          }

let pp_loaded ppf l =
  Format.fprintf ppf
    "%d records, epoch %d, snapshot %s (epoch %d, %d fallback), %d base ops, \
     %d suffix ops%s"
    (List.length l.l_records) l.l_epoch
    (match l.l_snapshot with Some _ -> "yes" | None -> "NONE")
    l.l_snapshot_epoch l.l_dropped_snapshots l.l_replay_base_ops
    (List.length l.l_suffix)
    (match l.l_truncated_at with
    | None -> ""
    | Some off -> Printf.sprintf ", truncated at byte %d" off)

(* {1 Files} *)

let to_file path data =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_bytes oc data)

let of_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let n = in_channel_length ic in
          let b = Bytes.create n in
          really_input ic b 0 n;
          Ok b)

(* {1 Crash simulation} *)

let truncate_at b n =
  let n = max 0 (min n (Bytes.length b)) in
  Bytes.sub b 0 n

let flip_bit b i =
  if i < 0 || i >= 8 * Bytes.length b then invalid_arg "Wire.flip_bit";
  let c = Bytes.copy b in
  let byte = i / 8 and bit = i mod 8 in
  Bytes.set c byte (Char.chr (Char.code (Bytes.get c byte) lxor (1 lsl bit)));
  c
