(* Durable wire format: byte-level framing round-trips, torn-write
   truncation semantics, the crash/corruption matrix (every recovery is
   predicate-pointer-identical to a never-crashed twin or an explicit
   error — never a silently wrong configuration, never an uncaught
   exception), fenced supervisor failover, and hostile-header hardening
   of the packet codec. *)

module Clock = Elmo_obs.Clock
module Trace = Elmo_obs.Trace
module Ctx = Elmo_obs.Ctx
module Obs = Elmo_obs.Obs

let topo = Topology.running_example ()
let h = topo.Topology.hosts_per_leaf

let tight_params =
  Params.create ~hmax_leaf:1 ~hmax_spine:1 ~header_budget:None ~fmax:6
    ~install_retries:4 ~install_backoff_us:8 ()

let wide_hosts =
  List.concat_map (fun l -> [ l * h; (l * h) + 1 ]) [ 0; 1; 2; 3; 4; 5; 6; 7 ]

let members_both hosts = List.map (fun x -> (x, Controller.Both)) hosts

(* {1 Byteio: CRC-32 and integer fields} *)

(* Bytewise reflected CRC-32 (polynomial 0xEDB88320): the reference the
   library's sliced implementation must agree with. It lives only here. *)
let ref_crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let ref_crc32 b ~pos ~len =
  let crc = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    let byte = Char.code (Bytes.get b i) in
    crc := ref_crc_table.((!crc lxor byte) land 0xff) lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

let test_crc_known_vectors () =
  let crc s = Byteio.crc32 (Bytes.of_string s) ~pos:0 ~len:(String.length s) in
  Alcotest.(check int) "check value of \"123456789\"" 0xCBF43926
    (crc "123456789");
  Alcotest.(check int) "empty input" 0 (crc "");
  Alcotest.(check int) "pangram" 0x414FA339
    (crc "The quick brown fox jumps over the lazy dog")

(* Random buffers, an unaligned start, lengths both around the 16-byte
   block boundary (0-40) and large, fed in one call or chained at random
   split points: always the reference's value. Every prefix of 0-40 bytes
   from the start is checked as well, so each tail length after zero, one
   and two whole blocks is covered in every case. *)
let prop_crc_matches_reference =
  let gen =
    QCheck.Gen.(
      oneof [ int_range 0 40; int_range 1000 20_000 ] >>= fun len ->
      int_range 0 15 >>= fun pos ->
      int_range 0 7 >>= fun slack ->
      string_size (return (pos + len + slack)) >>= fun data ->
      list_size (int_range 0 4) (int_range 0 len) >>= fun cuts ->
      return (Bytes.of_string data, pos, len, List.sort_uniq Int.compare cuts))
  in
  let print (b, pos, len, cuts) =
    Printf.sprintf "buffer %d bytes, pos %d, len %d, cuts [%s]"
      (Bytes.length b) pos len
      (String.concat "; " (List.map string_of_int cuts))
  in
  QCheck.Test.make ~name:"crc32 = bytewise reference, chained feeds"
    ~count:500 (QCheck.make ~print gen) (fun (b, pos, len, cuts) ->
      let expect = ref_crc32 b ~pos ~len in
      let chained =
        let crc, last =
          List.fold_left
            (fun (crc, from) cut ->
              (Byteio.crc32_feed crc b ~pos:(pos + from) ~len:(cut - from), cut))
            (Byteio.crc32_init, 0) cuts
        in
        Byteio.crc32_finish
          (Byteio.crc32_feed crc b ~pos:(pos + last) ~len:(len - last))
      in
      let prefixes_agree =
        List.for_all
          (fun l -> Byteio.crc32 b ~pos ~len:l = ref_crc32 b ~pos ~len:l)
          (List.init (Int.min 41 (len + 1)) Fun.id)
      in
      Byteio.crc32 b ~pos ~len = expect && chained = expect && prefixes_agree)

(* Codec primitives: one byte string per value, each field as wide as
   its information. *)

let encode c v = Byteio.Codec.to_bytes c.Byteio.Codec.write v
let decode c b = Byteio.Codec.of_bytes c.Byteio.Codec.read b
let bytes_of l = Bytes.of_seq (Seq.map Char.chr (List.to_seq l))

let refuses what c l =
  Alcotest.check_raises what Byteio.Reader.Corrupt (fun () ->
      ignore (decode c (bytes_of l)))

(* The LEB128 edges (one byte up to 63 or 127, two from 64 or 128, nine
   at the extremes) among arbitrary ints: each round-trips, fully
   consumed, in the shortest form. *)
let leb_edges = [ 0; 1; -1; 63; 64; -64; -65; 127; 128; 16_383; 16_384; max_int; min_int ]

let leb_length v =
  let rec go v n = if v land lnot 0x7f = 0 then n else go (v lsr 7) (n + 1) in
  go v 1

let prop_int_nat_round_trip =
  let gen = QCheck.Gen.(oneof [ oneofl leb_edges; int; small_signed_int ]) in
  QCheck.Test.make ~name:"codec int/nat: round-trip in the shortest LEB128"
    ~count:2_000 (QCheck.make ~print:string_of_int gen) (fun v ->
      let open Byteio.Codec in
      let zigzag = (v lsl 1) lxor (v asr (Sys.int_size - 1)) in
      let bi = encode int v in
      decode int bi = v
      && Bytes.length bi = leb_length zigzag
      && (v < 0
         ||
         let bn = encode nat v in
         decode nat bn = v && Bytes.length bn = leb_length v))

let test_codec_primitive_edges () =
  let open Byteio.Codec in
  Alcotest.(check (list int)) "int edges: 1, 1, 2, 9, 9 bytes" [ 1; 1; 2; 9; 9 ]
    (List.map (fun v -> Bytes.length (encode int v)) [ 0; -64; 64; max_int; min_int ]);
  Alcotest.(check int) "nat 127 in one byte" 1 (Bytes.length (encode nat 127));
  Alcotest.(check int) "nat 128 in two" 2 (Bytes.length (encode nat 128));
  (* Overlong forms: a multi-byte form ending in a zero byte. *)
  refuses "nat 0 as 80 00" nat [ 0x80; 0x00 ];
  refuses "nat 1 as 81 00" nat [ 0x81; 0x00 ];
  refuses "int 0 as 80 80 00" int [ 0x80; 0x80; 0x00 ];
  refuses "count 0 as 80 00" (list bool) [ 0x80; 0x00 ];
  (* Past 63 bits: a ninth byte that continues. *)
  let nine = List.init 8 (fun _ -> 0xff) in
  refuses "nat with a tenth byte" nat (nine @ [ 0x80; 0x01 ]);
  refuses "int with a tenth byte" int (nine @ [ 0x80; 0x01 ]);
  refuses "nat 2^62 (above max_int)" nat (nine @ [ 0x40 ]);
  Alcotest.(check int) "int's widest form is min_int" min_int
    (decode int (bytes_of (nine @ [ 0x7f ])));
  Alcotest.(check int) "nat's widest form is max_int" max_int
    (decode nat (bytes_of (nine @ [ 0x3f ])));
  (* [index n] at the byte-width boundaries. *)
  List.iter
    (fun (n, width) ->
      let c = index n in
      Alcotest.(check int) (Printf.sprintf "index %d: %d bytes" n width) width
        (Bytes.length (encode c (n - 1)));
      Alcotest.(check int) (Printf.sprintf "index %d: n - 1 round-trips" n) (n - 1)
        (decode c (encode c (n - 1)));
      (* At 257 and 65,537 the bytes hold [n] itself; at 256 and 65,536
         every byte string is an index, and one byte more is refused. *)
      if n lsr (8 * width) = 0 then
        refuses (Printf.sprintf "index %d: n" n) c
          (List.init width (fun i -> (n lsr (8 * i)) land 0xff))
      else refuses (Printf.sprintf "index %d: a byte wider" n) c (List.init (width + 1) (fun _ -> 0));
      refuses (Printf.sprintf "index %d: short" n) c (List.init (width - 1) (fun _ -> 0));
      Alcotest.check_raises (Printf.sprintf "index %d: writer refuses n" n)
        (Invalid_argument "Byteio.Codec.index: out of range") (fun () ->
          ignore (encode c n)))
    [ (256, 1); (257, 2); (65_536, 2); (65_537, 3) ];
  (* A 12-bit bitmap is two bytes with 4 padding bits and no width. *)
  let bm = bitmap ~width:12 in
  Alcotest.(check (list int)) "bits 0 and 11" [ 0; 11 ]
    (Bitmap.to_list (decode bm (bytes_of [ 0x01; 0x08 ])));
  refuses "padding bit 12 set" bm [ 0x01; 0x10 ];
  refuses "padding bit 15 set" bm [ 0x00; 0x80 ];
  refuses "a width prefix is not a bitmap" bm [ 0x0c; 0x00; 0x00; 0x00; 0x01; 0x08 ];
  (* Counts: at most the bytes remaining, checked before reading. *)
  Alcotest.(check (list bool)) "4 bools in 4 bytes" [ true; false; true; false ]
    (decode (list bool) (bytes_of [ 4; 1; 0; 1; 0 ]));
  refuses "5 bools in 4 bytes" (list bool) [ 5; 1; 0; 1; 0 ];
  refuses "a count of max_int" (list bool) (nine @ [ 0x3f ]);
  refuses "array of 3 where 4 are due" (array ~len:4 bool) [ 3; 1; 0; 1 ]

(* {1 Op codec} *)

let all_ops =
  [
    Journal.Add_group
      { group = 3; members = [ (0, Controller.Sender); (5, Controller.Both) ] };
    Journal.Remove_group { group = 3 };
    Journal.Join { group = 0; host = 7; role = Controller.Receiver };
    Journal.Leave { group = 0; host = 7 };
    Journal.Fail_spine 2;
    Journal.Recover_spine 2;
    Journal.Fail_core 0;
    Journal.Recover_core 0;
    Journal.Fail_link { leaf = 3; plane = 1 };
    Journal.Recover_link { leaf = 3; plane = 1 };
  ]

let op_bytes op = Byteio.Codec.to_bytes (Journal.op_codec ~topo).write op
let decode_op b = Byteio.Codec.of_bytes (Journal.op_codec ~topo).read b

let test_op_codec_round_trip () =
  List.iteri
    (fun i op ->
      Alcotest.(check bool)
        (Printf.sprintf "op %d round-trips, fully consumed" i)
        true
        (op = decode_op (op_bytes op)))
    all_ops

let test_op_codec_rejects_out_of_range () =
  (* A structurally intact op whose ids exceed the topology must be
     rejected at decode time, not blow up controller replay later. *)
  let b = op_bytes (Journal.Fail_spine (Topology.num_spines topo + 3)) in
  Alcotest.check_raises "spine id out of range" Byteio.Reader.Corrupt
    (fun () -> ignore (decode_op b))

let fuzz_inputs () =
  match Sys.getenv_opt "ELMO_FUZZ_INPUTS" with
  | Some s -> (try max 100 (int_of_string s) with Failure _ -> 5_000)
  | None -> 5_000

(* The canonical-decode property of a codec under single-bit flips: a
   mutated payload either raises Corrupt or decodes to a value whose
   re-encoding is exactly the mutated bytes, never any other exception. *)
let check_flips ~what ~flips ~valid ~reencode =
  let rng = Rng.create 77 in
  let corrupt = ref 0 and survived = ref 0 in
  for i = 1 to flips do
    let bytes = valid i in
    let bit = Rng.int rng (8 * Bytes.length bytes) in
    let mutated = Wire.flip_bit bytes bit in
    match reencode mutated with
    | again ->
        incr survived;
        if not (Bytes.equal again mutated) then
          Alcotest.failf "%s, bit %d: decodes but re-encodes to other bytes"
            what bit
    | exception Byteio.Reader.Corrupt -> incr corrupt
    | exception exn ->
        Alcotest.failf "%s, bit %d: unexpected exception %s" what bit
          (Printexc.to_string exn)
  done;
  (!corrupt, !survived)

let test_op_codec_canonical_under_bit_flips () =
  let ops = Array.of_list all_ops in
  let corrupt, survived =
    check_flips ~what:"op" ~flips:(fuzz_inputs ())
      ~valid:(fun i -> op_bytes ops.(i mod Array.length ops))
      ~reencode:(fun b -> op_bytes (decode_op b))
  in
  Alcotest.(check bool) "flips both caught and survived" true
    (corrupt > 0 && survived > 0)

(* {1 Snapshot codec} *)

let seeded_replica ?snapshot_every ?fabric_hooks ?observer () =
  let replica =
    Replica.create ?snapshot_every ?fabric_hooks ?observer topo tight_params
  in
  Replica.apply replica
    (Journal.Add_group { group = 0; members = members_both wide_hosts });
  Replica.apply replica
    (Journal.Add_group
       { group = 1; members = members_both [ 0; 1; h; h + 1 ] });
  replica

let test_snapshot_codec_round_trip () =
  let replica = seeded_replica () in
  Replica.apply replica (Journal.Fail_spine 1);
  Replica.apply replica
    (Journal.Join { group = 1; host = (2 * h) + 1; role = Controller.Both });
  Replica.checkpoint replica;
  let bytes = Test_fault.snapshot_bytes (Replica.controller replica) in
  let snap = Test_fault.decode_snapshot bytes in
  let restored = Controller.restore snap in
  Alcotest.(check bool) "bit-identical controller state" true
    (Test_fault.same_controller_state restored (Replica.controller replica)
       ~groups:2);
  (* Deterministic bytes: snapshot of the restored controller re-serializes
     to the identical byte sequence, whether its segments are encoded
     afresh or blitted from what it was decoded from. *)
  Alcotest.(check bool) "canonical bytes" true
    (Bytes.equal bytes (Test_fault.cold_snapshot_bytes restored));
  Alcotest.(check bool) "decoded segments blit the same bytes" true
    (Bytes.equal bytes (Test_fault.snapshot_bytes restored))

(* A restored controller agrees with its members: each group has an
   encoding exactly when it has receivers, over the tree [Tree.of_members]
   builds from them, and the s-rule ledger counts its encodings' s-rules.
   The receivers come from the membership, not from the tree. *)
let agrees_with_members ctrl =
  let leaf_rules = Array.make (Topology.num_leaves topo) 0 in
  let pod_rules = Array.make topo.Topology.pods 0 in
  let count counts = List.iter (fun (id, _) -> counts.(id) <- counts.(id) + 1) in
  let group_ok (g : Installed_config.group_view) =
    match (g.Installed_config.enc, Array.to_list g.Installed_config.receivers) with
    | None, [] -> true
    | Some enc, (_ :: _ as receivers) ->
        count leaf_rules enc.Encoding.d_leaf.Clustering.srules;
        count pod_rules enc.Encoding.d_spine.Clustering.srules;
        let tree = enc.Encoding.tree and want = Tree.of_members topo receivers in
        List.equal Int.equal (Tree.member_list tree) (Tree.member_list want)
        && Tree.equal tree want
        && Bitmap.equal tree.Tree.core_bitmap want.Tree.core_bitmap
    | None, _ :: _ | Some _, [] -> false
  in
  let ledger = Controller.srule_state ctrl in
  Array.for_all group_ok (Installed_config.groups (Controller.installed_config ctrl))
  && Array.for_all Fun.id
       (Array.mapi (fun l n -> Srule_state.leaf_used ledger l = n) leaf_rules)
  && Array.for_all Fun.id
       (Array.mapi (fun p n -> Srule_state.pod_used ledger p = n) pod_rules)

(* On a two-tier fabric an encoding has no spine rules, and the reader
   refuses a spine layer that names a pod. *)
let test_snapshot_two_tier_round_trip () =
  let tt = Topology.leaf_spine ~leaves:4 ~spines:2 ~hosts_per_leaf:4 in
  let ctrl = Controller.create tt tight_params in
  ignore (Controller.add_group ctrl ~group:0 (members_both [ 0; 1; 5; 9; 14 ]));
  let bytes = Test_fault.snapshot_bytes ctrl in
  let restored = Controller.restore (Test_fault.decode_snapshot bytes) in
  Alcotest.(check bool) "canonical bytes" true
    (Bytes.equal bytes (Test_fault.cold_snapshot_bytes restored));
  let header c =
    Header_codec.encode tt (Option.get (Controller.header c ~group:0 ~sender:5))
  in
  Alcotest.(check bool) "same header" true
    (Bytes.equal (header ctrl) (header restored));
  let enc = Option.get (Controller.encoding ctrl ~group:0) in
  Alcotest.(check int) "no spine rules" 0
    (List.length enc.Encoding.d_spine.Clustering.prules);
  let pod0 = { Prule.bitmap = Bitmap.create 0; switches = [ 0 ] } in
  let forged = { enc with d_spine = { enc.Encoding.d_spine with prules = [ pod0 ] } } in
  Alcotest.check_raises "a spine rule on pod 0" Byteio.Reader.Corrupt (fun () ->
      ignore
        (Encoding.of_choices tight_params
           (Tree.copy enc.Encoding.tree)
           (Encoding.choices forged)))

let test_snapshot_codec_rejects_bit_flips () =
  (* Every single-bit flip of a serialized snapshot either raises Corrupt
     or decodes, restores and re-serializes to exactly the mutated bytes:
     no flip lands in dead padding. The re-serialization encodes every
     segment afresh: a restored controller's memo holds the (mutated)
     bytes its groups were decoded from, which would blit back unchecked.
     Every restored controller agrees with its members. *)
  let replica = seeded_replica () in
  Replica.apply replica (Journal.Fail_spine 1);
  let bytes = Test_fault.snapshot_bytes (Replica.controller replica) in
  let corrupt, survived =
    check_flips ~what:"snapshot" ~flips:(fuzz_inputs ())
      ~valid:(fun _ -> bytes)
      ~reencode:(fun b ->
        let ctrl = Controller.restore (Test_fault.decode_snapshot b) in
        if not (agrees_with_members ctrl) then
          failwith "restored state disagrees with its members";
        Test_fault.cold_snapshot_bytes ctrl)
  in
  Alcotest.(check bool) "flips are mostly caught" true (corrupt > survived)

(* A restored controller's memo holds the bytes each group was decoded
   from. On the recovery fixture's log, after restoring its snapshot and
   after each op of the replayed suffix, every memoized segment is its
   group's encoding. *)
let test_restored_segments_are_encodings () =
  let wire =
    Recovery_fixture.churn ~checkpoint_at:100 ~snapshot_every:1_000_000
      ~events:200 ~seed:7 ()
  in
  let l = Result.get_ok (Wire.load (Wire.contents wire)) in
  let ctrl = Controller.restore (Option.get l.Wire.l_snapshot) in
  let groups = Controller.group_count ctrl in
  Alcotest.(check int) "every decoded segment is memoized" groups
    (Test_fault.check_segment_memo "restored" ctrl);
  Alcotest.(check bool) "a suffix to replay" true (List.length l.Wire.l_suffix > 10);
  let kept =
    List.mapi
      (fun i op ->
        Journal.apply ctrl op;
        Test_fault.check_segment_memo (Printf.sprintf "suffix op %d" i) ctrl)
      l.Wire.l_suffix
  in
  Alcotest.(check bool) "replay evicts the groups it touches" true
    (List.exists (fun k -> k < groups) kept)

(* {2 Forged payloads}

   Snapshots built around an empty controller's: its group list (a
   one-byte zero count right after the topology and params) and its
   stale list (a one-byte zero count right before the five trailing
   counters, one zero byte each) are both empty, so a forged list is
   spliced in at a known offset. Each forgery is a well-framed value in
   range that no controller can reach; each one's legitimate twin
   decodes. *)

let empty_snapshot () =
  Test_fault.snapshot_bytes (Controller.create topo tight_params)

let splice_empty_list bytes ~at items =
  Alcotest.(check int) "an empty list at the splice point" 0
    (Bytes.get_uint8 bytes at);
  Bytes.concat Bytes.empty
    [ Bytes.sub bytes 0 at; items;
      Bytes.sub bytes (at + 1) (Bytes.length bytes - at - 1) ]

let with_groups segments =
  let prefix =
    Bytes.length (Byteio.Codec.to_bytes Topology.codec.write topo)
    + Bytes.length (Byteio.Codec.to_bytes Params.codec.write tight_params)
  in
  splice_empty_list (empty_snapshot ()) ~at:prefix
    (Byteio.Codec.to_bytes
       (fun w segs ->
         Byteio.Codec.nat.write w (List.length segs);
         List.iter (Byteio.Writer.raw w) segs)
       segments)

let host_codec = Byteio.Codec.index (Topology.num_hosts topo)

(* A group segment laid out as the codec writes it: gid, (host, role)
   members, the encoding's choices (when given), then the overrides, each
   already encoded. *)
let segment ?(members = []) ?choices ?(overrides = []) gid =
  let open Byteio.Codec in
  to_bytes
    (fun w () ->
      nat.write w gid;
      (list (pair host_codec Controller.role_codec)).write w members;
      (option (Encoding.choices_codec topo)).write w choices;
      nat.write w (List.length overrides);
      List.iter (Byteio.Writer.raw w) overrides)
    ()

(* An override of [host] whose up-leaf-port bitmap is the one byte
   [leaf_ports], with no up-spine ports and multipath kept. *)
let override_bytes ?(leaf_ports = 0) host =
  let open Byteio.Codec in
  to_bytes
    (fun w () ->
      host_codec.write w host;
      Byteio.Writer.u8 w leaf_ports;
      (option (bitmap ~width:(Topology.spine_upstream_width topo))).write w None;
      bool.write w false)
    ()

(* A group of sender-only members (no encoding) with one all-clear
   override per listed host. *)
let bare_segment ?(members = []) ?(overrides = []) gid =
  segment gid
    ~members:(List.map (fun h -> (h, Controller.Sender)) members)
    ~overrides:(List.map override_bytes overrides)

let decodes bytes =
  match Test_fault.decode_snapshot bytes with
  | (_ : Controller.snapshot) -> true
  | exception Byteio.Reader.Corrupt -> false

let refused what bytes =
  Alcotest.check_raises what Byteio.Reader.Corrupt (fun () ->
      ignore (Test_fault.decode_snapshot bytes))

let test_forged_duplicate_gid () =
  Alcotest.(check bool) "gids 0, 1 decode" true
    (decodes (with_groups [ bare_segment 0; bare_segment 1 ]));
  refused "gid 0 twice" (with_groups [ bare_segment 0; bare_segment 0 ])

let test_forged_duplicate_override_host () =
  Alcotest.(check bool) "overrides on hosts 0, 1 decode" true
    (decodes (with_groups [ bare_segment ~overrides:[ 0; 1 ] 0 ]));
  refused "two overrides on host 0"
    (with_groups [ bare_segment ~overrides:[ 0; 0 ] 0 ])

(* Members keep their insertion order on the wire, so the reader cannot
   ask for ascending hosts; it refuses a repeated one. *)
let test_forged_duplicate_member_host () =
  Alcotest.(check bool) "members 3, 0 decode" true
    (decodes (with_groups [ bare_segment ~members:[ 3; 0 ] 0 ]));
  refused "host 3 twice" (with_groups [ bare_segment ~members:[ 3; 0; 3 ] 0 ])

let test_forged_unsorted_stale_list () =
  (* Stale entries for group 0 on leaves 0 and 1: key, group, site tag
     (0 = leaf), leaf id. The key is [group * stride + 2 * leaf]. *)
  let with_stale leaves =
    let open Byteio.Codec in
    let bytes = empty_snapshot () in
    Alcotest.(check string) "five zero counters close the snapshot"
      (String.make 5 '\000')
      (Bytes.sub_string bytes (Bytes.length bytes - 5) 5);
    to_bytes
      (fun w leaves ->
        nat.write w (List.length leaves);
        List.iter
          (fun l ->
            int.write w (2 * l);
            nat.write w 0;
            Byteio.Writer.u8 w 0;
            (index (Topology.num_leaves topo)).write w l)
          leaves)
      leaves
    |> splice_empty_list bytes ~at:(Bytes.length bytes - 6)
  in
  Alcotest.(check bool) "leaves 0, 1 decode" true
    (decodes (with_stale [ 0; 1 ]));
  refused "leaves 1, 0" (with_stale [ 1; 0 ])

(* An override's up-leaf-port bitmap is [spines_per_pod] = 2 bits wide,
   so its one byte has 6 padding bits. *)
let test_forged_override_padding_bit () =
  let forged leaf_ports =
    with_groups
      [ segment 0 ~members:[ (0, Controller.Sender) ]
          ~overrides:[ override_bytes ~leaf_ports 0 ] ]
  in
  Alcotest.(check bool) "planes 0 and 1 decode" true (decodes (forged 0b11));
  refused "padding bit 7 set" (forged 0x81)

(* A group on leaves 0-2 (pods 0 and 1) with two members per leaf. Under
   [tight_params] leaves 0 and 1 share one p-rule and pod 1 has one. *)
let three_leaf_hosts = [ 0; 1; h; h + 1; 2 * h; (2 * h) + 1 ]

let three_leaf_encoding () =
  let ctrl = Controller.create topo tight_params in
  ignore (Controller.add_group ctrl ~group:0 (members_both three_leaf_hosts));
  let enc = Option.get (Controller.encoding ctrl ~group:0) in
  let switches (res : Clustering.result) =
    List.map (fun (r : Prule.prule) -> r.switches) res.prules
  in
  Alcotest.(check (list (list int))) "leaf p-rules" [ [ 0; 1 ] ]
    (switches enc.Encoding.d_leaf);
  Alcotest.(check (list (list int))) "spine p-rules" [ [ 1 ] ]
    (switches enc.Encoding.d_spine);
  enc

(* The three-leaf group's snapshot, its encoding's choices made by [enc]. *)
let three_leaf_snapshot (enc : Encoding.t) =
  with_groups
    [ segment 0 ~members:(members_both three_leaf_hosts)
        ~choices:(Encoding.choices enc) ]

(* The first p-rule of a layer with [f] applied to its switches. *)
let first_rule f (res : Clustering.result) =
  match res.prules with
  | r :: rest -> { res with prules = { r with switches = f r.switches } :: rest }
  | [] -> res

(* A forged copy adds an off-tree switch to the first rule of a layer:
   leaf 7, or pod 3. Each is well framed and in range, and is refused;
   the on-tree twin decodes, and a fast-path [Leave] on it applies.
   Unrefused, the forged leaf rule decodes, and that [Leave] recomputes
   the shared rule over leaf 7, which has no exact bitmap, and raises
   [Invalid_argument]. *)
let test_forged_off_tree_switch () =
  let enc = three_leaf_encoding () in
  let add id = first_rule (fun s -> s @ [ id ]) in
  refused "leaf rule names leaf 7"
    (three_leaf_snapshot { enc with d_leaf = add 7 enc.Encoding.d_leaf });
  refused "spine rule names pod 3"
    (three_leaf_snapshot { enc with d_spine = add 3 enc.Encoding.d_spine });
  let twin =
    Controller.restore (Test_fault.decode_snapshot (three_leaf_snapshot enc))
  in
  let twin_enc = Option.get (Controller.encoding twin ~group:0) in
  Alcotest.(check bool) "the on-tree twin's Leave applies in place" true
    (match
       Encoding.apply_delta twin_enc (Encoding.delta_of_host topo ~joining:false 1)
     with
    | Encoding.Applied _ -> true
    | Encoding.Reencode _ -> false)

(* Each layer names every switch of the tree exactly once: a forged copy
   names leaf 0 twice, or leaf 1 (then pod 1) nowhere. *)
let test_forged_layer_names_switch_once () =
  let enc = three_leaf_encoding () in
  let leaf f = { enc with d_leaf = first_rule f enc.Encoding.d_leaf } in
  Alcotest.(check bool) "the encoder's choices decode" true
    (decodes (three_leaf_snapshot enc));
  refused "leaf 0 twice in one rule"
    (three_leaf_snapshot (leaf (fun s -> s @ [ 0 ])));
  refused "leaf 0 in a rule and an s-rule"
    (three_leaf_snapshot
       {
         enc with
         d_leaf =
           {
             enc.Encoding.d_leaf with
             srules = (0, Bitmap.create 0) :: enc.Encoding.d_leaf.srules;
           };
       });
  refused "leaf 1 named nowhere"
    (three_leaf_snapshot (leaf (List.filter (fun l -> l <> 1))));
  refused "pod 1 named nowhere"
    (three_leaf_snapshot
       { enc with d_spine = { enc.Encoding.d_spine with prules = [] } })

(* A group on leaf 0 alone whose leaf layer is one s-rule, forged into
   gids [0, n): the ledger it implies holds [n] entries at leaf 0, one
   more than [fmax] at [n = 7]. *)
let test_forged_srules_above_fmax () =
  let ctrl = Controller.create topo tight_params in
  ignore (Controller.add_group ctrl ~group:0 (members_both [ 0; 1 ]));
  let enc = Option.get (Controller.encoding ctrl ~group:0) in
  let srule =
    {
      enc with
      d_leaf = { prules = []; srules = [ (0, Bitmap.create 0) ]; default = None };
    }
  in
  let groups n =
    with_groups
      (List.init n (fun g ->
           segment g ~members:(members_both [ 0; 1 ])
             ~choices:(Encoding.choices srule)))
  in
  let fmax = tight_params.Params.fmax in
  let at_fmax = Controller.restore (Test_fault.decode_snapshot (groups fmax)) in
  Alcotest.(check int) "fmax s-rules at leaf 0 decode and count" fmax
    (Srule_state.leaf_used (Controller.srule_state at_fmax) 0);
  refused "fmax + 1 s-rules at leaf 0" (groups (fmax + 1))

(* {1 Wire framing edge cases} *)

let test_empty_log () =
  let w = Wire.create () in
  match Wire.load (Wire.contents w) with
  | Error e -> Alcotest.failf "empty log failed to load: %s" e
  | Ok l ->
      Alcotest.(check int) "no records" 0 (List.length l.Wire.l_records);
      Alcotest.(check bool) "no snapshot" true (l.Wire.l_snapshot = None);
      Alcotest.(check bool) "no truncation" true (l.Wire.l_truncated_at = None)

let test_bad_magic () =
  (match Wire.load (Bytes.of_string "ELMOWAL1") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong magic accepted");
  (* A whole log under a retired format's magic (fixed-width fields, or
     derived state on the wire): refused as not a log, never read as
     corrupt records. *)
  let log = Wire.contents (Option.get (Replica.wire (seeded_replica ()))) in
  List.iter
    (fun retired ->
      Bytes.blit_string retired 0 log 0 8;
      match Wire.load log with
      | Error e ->
          Alcotest.(check string) (retired ^ " refused") "bad magic: not a wire log" e
      | Ok _ -> Alcotest.failf "an %s log accepted" retired)
    [ "ELMOWAL2"; "ELMOWAL3" ];
  (match Wire.load (Bytes.of_string "ELMO") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "short magic accepted");
  match Wire.load (Wire.flip_bit (Wire.contents (Wire.create ())) 3) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "flipped magic accepted"

let test_snapshot_only_load () =
  (* A fresh replica's genesis log: one snapshot, no ops. *)
  let replica = Replica.create topo tight_params in
  let bytes = Wire.contents (Option.get (Replica.wire replica)) in
  match Wire.load bytes with
  | Error e -> Alcotest.fail e
  | Ok l ->
      Alcotest.(check int) "one record" 1 (List.length l.Wire.l_records);
      Alcotest.(check bool) "snapshot present" true
        (Option.is_some l.Wire.l_snapshot);
      Alcotest.(check int) "no base ops" 0 l.Wire.l_replay_base_ops;
      Alcotest.(check int) "no suffix" 0 (List.length l.Wire.l_suffix);
      Alcotest.(check bool) "no truncation" true (l.Wire.l_truncated_at = None)

let test_truncation_at_record_boundary () =
  (* A cut exactly on a record boundary is indistinguishable from a log
     that simply ends there: fewer records, no truncation report. *)
  let replica = seeded_replica () in
  Replica.apply replica (Journal.Fail_spine 0);
  let bytes = Wire.contents (Option.get (Replica.wire replica)) in
  let full = Result.get_ok (Wire.load bytes) in
  let nrecs = List.length full.Wire.l_records in
  Alcotest.(check bool) "several records" true (nrecs >= 3);
  let last = List.nth full.Wire.l_records (nrecs - 1) in
  let boundary = last.Wire.r_off in
  let cut = Result.get_ok (Wire.load (Wire.truncate_at bytes boundary)) in
  Alcotest.(check int) "one record fewer" (nrecs - 1)
    (List.length cut.Wire.l_records);
  Alcotest.(check bool) "clean end, no truncation flag" true
    (cut.Wire.l_truncated_at = None);
  Alcotest.(check int) "one suffix op fewer" 2 (List.length cut.Wire.l_suffix)

let test_torn_header_truncates () =
  let replica = seeded_replica () in
  let bytes = Wire.contents (Option.get (Replica.wire replica)) in
  let full = Result.get_ok (Wire.load bytes) in
  let nrecs = List.length full.Wire.l_records in
  let last = List.nth full.Wire.l_records (nrecs - 1) in
  (* Cut 5 bytes into the last record's header: a torn write. *)
  let torn = Result.get_ok (Wire.load (Wire.truncate_at bytes (last.Wire.r_off + 5))) in
  Alcotest.(check int) "last record dropped" (nrecs - 1)
    (List.length torn.Wire.l_records);
  Alcotest.(check bool) "truncation reported at the torn record" true
    (torn.Wire.l_truncated_at = Some last.Wire.r_off)

let test_corrupt_length_field_truncates () =
  (* Flipping a bit of the length prefix shifts the CRC window, so the
     record fails its checksum (1-in-2^32 collisions aside) and the log
     truncates there rather than mis-framing everything after it. *)
  let replica = seeded_replica () in
  let bytes = Wire.contents (Option.get (Replica.wire replica)) in
  let full = Result.get_ok (Wire.load bytes) in
  let second = List.nth full.Wire.l_records 1 in
  let mutated = Wire.flip_bit bytes (8 * second.Wire.r_off) in
  let l = Result.get_ok (Wire.load mutated) in
  Alcotest.(check int) "only the first record survives" 1
    (List.length l.Wire.l_records);
  Alcotest.(check bool) "truncation reported" true
    (l.Wire.l_truncated_at = Some second.Wire.r_off)

let test_sequence_gap_truncates () =
  (* Duplicate the last record's bytes: the copy re-uses its seq, which is
     no longer prev + 1 — the scan must stop before it. *)
  let replica = seeded_replica () in
  let bytes = Wire.contents (Option.get (Replica.wire replica)) in
  let full = Result.get_ok (Wire.load bytes) in
  let nrecs = List.length full.Wire.l_records in
  let last = List.nth full.Wire.l_records (nrecs - 1) in
  let rec_len = Bytes.length bytes - last.Wire.r_off in
  let doubled = Bytes.create (Bytes.length bytes + rec_len) in
  Bytes.blit bytes 0 doubled 0 (Bytes.length bytes);
  Bytes.blit bytes last.Wire.r_off doubled (Bytes.length bytes) rec_len;
  let l = Result.get_ok (Wire.load doubled) in
  Alcotest.(check int) "duplicate rejected" nrecs
    (List.length l.Wire.l_records);
  Alcotest.(check bool) "truncation reported at the duplicate" true
    (l.Wire.l_truncated_at = Some (Bytes.length bytes))

let test_snapshot_fallback_on_forged_payload () =
  (* A snapshot record whose framing is valid but whose payload is garbage
     (CRC recomputed over the forged bytes) must fall back to the previous
     good snapshot and still replay every op record. *)
  let replica = seeded_replica ~snapshot_every:2 () in
  List.iter
    (fun op -> Replica.apply replica op)
    [
      Journal.Fail_spine 1;
      Journal.Join { group = 1; host = (3 * h) + 1; role = Controller.Both };
      Journal.Leave { group = 0; host = 1 };
      Journal.Fail_link { leaf = 2; plane = 0 };
    ];
  let bytes = Wire.contents (Option.get (Replica.wire replica)) in
  let full = Result.get_ok (Wire.load bytes) in
  let snapshots =
    List.filter
      (fun r -> match r.Wire.r_kind with Wire.Snapshot -> true | Wire.Op -> false)
      full.Wire.l_records
  in
  Alcotest.(check bool) "log rolled several snapshots" true
    (List.length snapshots >= 2);
  let victim = List.nth snapshots (List.length snapshots - 1) in
  let forged = Bytes.copy bytes in
  (* Zero 64 payload bytes, then recompute the record CRC so the framing
     still checks out. *)
  let payload_off = victim.Wire.r_off + 21 in
  Bytes.fill forged payload_off (min 64 victim.Wire.r_payload_len) '\000';
  let crc =
    Byteio.crc32 forged ~pos:(victim.Wire.r_off + 8)
      ~len:(13 + victim.Wire.r_payload_len)
  in
  Bytes.set_int32_le forged (victim.Wire.r_off + 4) (Int32.of_int crc);
  let l = Result.get_ok (Wire.load forged) in
  Alcotest.(check int) "one snapshot dropped" 1 l.Wire.l_dropped_snapshots;
  Alcotest.(check bool) "recovered from an older snapshot" true
    (Option.is_some l.Wire.l_snapshot);
  Alcotest.(check bool) "no truncation: every op record survives" true
    (l.Wire.l_truncated_at = None);
  match Replica.of_wire l with
  | Error e -> Alcotest.fail e
  | Ok rep ->
      Alcotest.(check bool) "fallback recovery is bit-identical" true
        (Test_fault.same_controller_state (Replica.controller rep)
           (Replica.controller replica) ~groups:2)

(* [bytes] with its last record's payload replaced by [payload], framed
   with a recomputed CRC. *)
let reframe_last bytes (last : Wire.record) payload =
  let off = last.Wire.r_off and plen = Bytes.length payload in
  let forged = Bytes.extend (Bytes.sub bytes 0 (off + 21)) 0 plen in
  Bytes.blit payload 0 forged (off + 21) plen;
  Bytes.set_int32_le forged off (Int32.of_int plen);
  Bytes.set_int32_le forged (off + 4)
    (Int32.of_int (Byteio.crc32 forged ~pos:(off + 8) ~len:(13 + plen)));
  forged

let test_trailing_byte_after_op_truncates () =
  (* A valid op followed by one zero byte — the [None] pod tag every op
     record carried under the retired "ELMOWAL1" format — framed with a
     valid CRC: the payload is not one op, so the log ends before it. *)
  let replica = seeded_replica () in
  Replica.apply replica (Journal.Fail_spine 0);
  let bytes = Wire.contents (Option.get (Replica.wire replica)) in
  let full = Result.get_ok (Wire.load bytes) in
  let nrecs = List.length full.Wire.l_records in
  let last = List.nth full.Wire.l_records (nrecs - 1) in
  Alcotest.(check bool) "last record is an op" true (last.Wire.r_kind = Wire.Op);
  let forged =
    reframe_last bytes last
      (Bytes.cat (op_bytes (Journal.Fail_spine 0)) (Bytes.make 1 '\000'))
  in
  let l = Result.get_ok (Wire.load forged) in
  Alcotest.(check int) "the record is framed" nrecs
    (List.length l.Wire.l_records);
  Alcotest.(check bool) "truncated at the record" true
    (l.Wire.l_truncated_at = Some last.Wire.r_off);
  Alcotest.(check int) "its op is not replayed"
    (List.length full.Wire.l_suffix - 1)
    (List.length l.Wire.l_suffix)

(* {1 Crash / corruption matrix}

   One durable run, then >= 200 byte-level crash points: torn tails at
   sampled offsets and single-bit flips at sampled positions. Every load +
   recovery must end in exactly one of two outcomes: (a) a controller
   whose per-group delivery predicates are pointer-identical to the
   never-crashed twin's at the surviving op count, or (b) an explicit
   error (no decodable snapshot / bad magic). Anything else — a wrong
   configuration accepted silently, an exception escaping — fails. *)

let matrix_groups = 6

let build_matrix_run () =
  let rng = Rng.create 20260808 in
  let replica =
    Replica.create ~snapshot_every:24 topo tight_params
  in
  let ctx = Pred.create_ctx () in
  (* The "never-crashed twin" is the live replica itself: after each op we
     compile every group's delivery predicate into the shared ctx, so a
     recovery landing on j surviving ops must be pointer-identical to the
     state recorded at index j. *)
  let preds_of () =
    let cfg = Replica.installed_config replica in
    Array.init matrix_groups (fun g -> Verify.compile ctx cfg ~group:g)
  in
  let members = Array.make matrix_groups [] in
  members.(0) <- wide_hosts;
  members.(1) <- [ 0; 1; h; h + 1 ];
  let hosts = Array.init (Topology.num_hosts topo) Fun.id in
  for g = 2 to matrix_groups - 1 do
    members.(g) <- Array.to_list (Rng.sample_without_replacement rng 6 hosts)
  done;
  (* Built before crash_rng_ops, which mutates [members] as it generates
     the churn stream. *)
  let seed_ops =
    List.init matrix_groups (fun g ->
        Journal.Add_group { group = g; members = members_both members.(g) })
  in
  let events = 120 in
  let stream = seed_ops @ Test_fault.crash_rng_ops rng ~members ~events in
  let total = List.length stream in
  let preds = Array.make (total + 1) [||] in
  preds.(0) <- preds_of ();
  List.iteri
    (fun i op ->
      Replica.apply replica op;
      preds.(i + 1) <- preds_of ())
    stream;
  (replica, ctx, preds, rng)

let check_crash_point ~ctx ~preds ~what mutated =
  match Wire.load mutated with
  | Error (_ : string) -> `Explicit
  | Ok l -> (
      match Replica.of_wire l with
      | Error (_ : string) -> `Explicit
      | Ok rep ->
          let j = l.Wire.l_replay_base_ops + List.length l.Wire.l_suffix in
          if j >= Array.length preds then
            Alcotest.failf "%s: surviving op count %d out of range" what j;
          let cfg = Replica.installed_config rep in
          Array.iteri
            (fun g expected ->
              let got = Verify.compile ctx cfg ~group:g in
              if not (Verify.equiv got expected) then
                Alcotest.failf
                  "%s: recovered group %d diverges from twin at op %d" what g
                  j)
            preds.(j);
          `Recovered)
  | exception exn ->
      Alcotest.failf "%s: uncaught exception %s" what (Printexc.to_string exn)

let test_crash_corruption_matrix () =
  let replica, ctx, preds, rng = build_matrix_run () in
  let bytes = Wire.contents (Option.get (Replica.wire replica)) in
  let total = Bytes.length bytes in
  let points = ref 0 and recovered = ref 0 and explicit = ref 0 in
  let tally = function
    | `Recovered -> incr recovered
    | `Explicit -> incr explicit
  in
  (* Torn tails: every prefix length is a potential crash point; sample
     across the whole file plus a dense band at the end (the likeliest
     real-world tear: mid-final-record) and a band across the first record,
     the initial snapshot, where a tear leaves nothing to recover from. *)
  let first_end =
    match (Result.get_ok (Wire.load bytes)).Wire.l_records with
    | _ :: second :: _ -> second.Wire.r_off
    | [ _ ] | [] -> total
  in
  let offsets =
    Array.to_list (Rng.sample_without_replacement rng 80 (Array.init total Fun.id))
    @ List.init 30 (fun i -> total - 1 - (i * 7))
    @ List.init 10 (fun i -> i * first_end / 10)
  in
  List.iter
    (fun off ->
      incr points;
      tally
        (check_crash_point ~ctx ~preds
           ~what:(Printf.sprintf "torn at %d" off)
           (Wire.truncate_at bytes off)))
    offsets;
  (* Single-bit corruption across the whole file. *)
  let bits =
    Array.to_list
      (Rng.sample_without_replacement rng 100 (Array.init (8 * total) Fun.id))
  in
  List.iter
    (fun bit ->
      incr points;
      tally
        (check_crash_point ~ctx ~preds
           ~what:(Printf.sprintf "bit flip at %d" bit)
           (Wire.flip_bit bytes bit)))
    bits;
  Alcotest.(check bool)
    (Printf.sprintf "matrix covered >= 200 crash points (got %d)" !points)
    true (!points >= 200);
  (* The matrix is only meaningful if both outcomes actually occur: most
     points recover, early tears are explicit failures. *)
  Alcotest.(check bool)
    (Printf.sprintf "both outcomes exercised (%d recovered, %d explicit)"
       !recovered !explicit)
    true
    (!recovered > 0 && !explicit > 0);
  (* And the unmutated log recovers to the full twin. *)
  match check_crash_point ~ctx ~preds ~what:"clean load" bytes with
  | `Recovered -> ()
  | `Explicit -> Alcotest.fail "clean log failed to recover"

(* {1 Chaos across a crash} *)

let test_wedged_pod_churn_across_crash () =
  (* Pod-wide wedge: installs into pod 0 are refused until the controller
     degrades, then the pod is unwedged, the degraded state is
     checkpointed, churn continues, and the standby takes over from the
     wire log. The recovered controller must be bit-identical (the
     degradation state rides in the snapshot) and blackhole-free. *)
  let fabric = Fabric.create topo in
  let fault = Fault.create ~schedule:Fault.Reliable fabric in
  let replica =
    Replica.create ~snapshot_every:1000 ~fabric_hooks:(Fault.hooks fault)
      topo tight_params
  in
  Fault.wedge_pod fault 0 true;
  Replica.apply replica
    (Journal.Add_group { group = 0; members = members_both wide_hosts });
  Replica.apply replica
    (Journal.Add_group
       { group = 1; members = members_both [ 0; 1; h; h + 1; (2 * h) ] });
  Fault.wedge_pod fault 0 false;
  let st = Controller.install_stats (Replica.controller replica) in
  Alcotest.(check bool) "wedge forced degradations" true
    (st.Controller.degradations > 0);
  (* Checkpoint the degraded state, then churn on across the crash
     boundary (the suffix replays against the snapshot's denial state, so
     live and recovered take identical decisions). *)
  Replica.checkpoint replica;
  Replica.apply replica
    (Journal.Join { group = 0; host = (6 * h) + 2; role = Controller.Both });
  Replica.apply replica (Journal.Fail_spine 7);
  Replica.apply replica
    (Journal.Leave { group = 1; host = (2 * h) });
  let bytes = Wire.contents (Option.get (Replica.wire replica)) in
  match Supervisor.failover ~fabric bytes with
  | Error e -> Alcotest.fail e
  | Ok outcome ->
      Alcotest.(check int) "suffix replayed" 3
        (List.length outcome.Supervisor.loaded.Wire.l_suffix);
      Alcotest.(check int) "zero blackholes after failover" 0
        (List.length outcome.Supervisor.blackholes);
      Alcotest.(check bool) "recovery is bit-identical" true
        (Test_fault.same_controller_state
           (Replica.controller outcome.Supervisor.replica)
           (Replica.controller replica) ~groups:2)

let repeat n x = List.init n (fun _ -> x)

let test_stale_markers_survive_crash () =
  (* A removal whose retries exhaust leaves a compensated stale marker;
     the marker must ride the snapshot record across a crash, and the
     failover sweep must keep (never remove) the stale fabric entry. *)
  let second = [ 0; 1; h; h + 1; (2 * h) ] in
  (* Sequential twin tells us how many install/removal hook operations
     each group costs, to position the scripted timeouts. *)
  let twin = Controller.create topo tight_params in
  ignore (Controller.add_group twin ~group:0 (members_both wide_hosts));
  let sites g =
    match Controller.encoding twin ~group:g with
    | None -> 0
    | Some enc ->
        List.length enc.Encoding.d_leaf.Clustering.srules
        + List.length enc.Encoding.d_spine.Clustering.srules
  in
  let k0 = sites 0 in
  ignore (Controller.add_group twin ~group:1 (members_both second));
  let k1 = sites 1 in
  Alcotest.(check bool) "both groups need s-rules" true (k0 > 0 && k1 > 0);
  (* Installs apply; the first removal of group 1's teardown exhausts its
     budget (5 attempts), the rest apply, and the reconcile retry exhausts
     again, forcing the compensating install (script exhausted: applies). *)
  let script =
    repeat (k0 + k1) Fault.Applied
    @ repeat 5 Fault.Timeout
    @ repeat (k1 - 1) Fault.Applied
    @ repeat 5 Fault.Timeout
  in
  let fabric = Fabric.create topo in
  let fault = Fault.create ~schedule:(Fault.Scripted script) fabric in
  let replica =
    Replica.create ~snapshot_every:1000 ~fabric_hooks:(Fault.hooks fault)
      topo tight_params
  in
  Replica.apply replica
    (Journal.Add_group { group = 0; members = members_both wide_hosts });
  Replica.apply replica
    (Journal.Add_group { group = 1; members = members_both second });
  Replica.apply replica (Journal.Remove_group { group = 1 });
  let live_stale =
    (Replica.installed_config replica).Installed_config.stale_sites
  in
  Alcotest.(check int) "exhausted removal left one stale marker" 1
    (Array.length live_stale);
  (* The stale table enters the snapshot record; crash right after. *)
  Replica.checkpoint replica;
  let bytes = Wire.contents (Option.get (Replica.wire replica)) in
  match Supervisor.failover ~fabric bytes with
  | Error e -> Alcotest.fail e
  | Ok outcome ->
      let rec_stale =
        (Replica.installed_config outcome.Supervisor.replica)
          .Installed_config.stale_sites
      in
      Alcotest.(check bool) "stale markers survive the round-trip" true
        (live_stale = rec_stale);
      Alcotest.(check bool) "sweep kept the stale fabric entry" true
        (outcome.Supervisor.reconcile.Supervisor.stale_kept >= 1);
      Alcotest.(check int) "zero blackholes after failover" 0
        (List.length outcome.Supervisor.blackholes);
      Alcotest.(check bool) "recovery is bit-identical" true
        (Test_fault.same_controller_state
           (Replica.controller outcome.Supervisor.replica)
           (Replica.controller replica) ~groups:1)

(* {1 One log, one replay} *)

let test_rejected_ops_never_reach_the_log () =
  (* Two ops the controller refuses: a duplicate join and an out-of-range
     spine. The caller still gets the controller's exception, and neither
     op is logged — so a failover over the bytes neither fails replaying
     the first nor truncates at the second and drops the good op after
     it. *)
  let replica = seeded_replica () in
  let wire = Option.get (Replica.wire replica) in
  let records = Wire.records wire in
  Alcotest.check_raises "duplicate join refused"
    (Invalid_argument "Controller.join: host already a member") (fun () ->
      Replica.apply replica
        (Journal.Join { group = 1; host = h; role = Controller.Both }));
  Alcotest.check_raises "out-of-range spine refused"
    (Invalid_argument "index out of bounds") (fun () ->
      Replica.apply replica (Journal.Fail_spine 999));
  Alcotest.(check int) "nothing logged" records (Wire.records wire);
  let good = (2 * h) + 1 in
  Replica.apply replica
    (Journal.Join { group = 1; host = good; role = Controller.Both });
  match
    Supervisor.failover ~fabric:(Fabric.create topo) (Wire.contents wire)
  with
  | Error e -> Alcotest.failf "failover refused the log: %s" e
  | Ok o ->
      let ctrl = Replica.controller o.Supervisor.replica in
      Alcotest.(check bool) "no truncation" true
        (o.Supervisor.loaded.Wire.l_truncated_at = None);
      Alcotest.(check int) "the good join is replayed" 5
        (List.length (Controller.members ctrl ~group:1));
      Alcotest.(check bool) "the joined host is a member" true
        (List.mem_assoc good (Controller.members ctrl ~group:1));
      Alcotest.(check bool) "failover equals the live controller" true
        (Test_fault.same_controller_state ctrl (Replica.controller replica)
           ~groups:2)

let test_recovered_equals_failover () =
  (* [Replica.recovered] and a supervisor failover read the same bytes
     through the same replay, at every position relative to the last
     checkpoint: empty suffix, partial suffix, one op short of the next
     checkpoint. *)
  let rng = Rng.create 4242 in
  let snapshot_every = 5 in
  let replica = Replica.create ~snapshot_every topo tight_params in
  let groups = 3 in
  let members = Array.make groups [] in
  members.(0) <- wide_hosts;
  members.(1) <- [ 0; 1; h; h + 1 ];
  members.(2) <- [ 2; (3 * h) + 1; (5 * h) + 2 ];
  for g = 0 to groups - 1 do
    Replica.apply replica
      (Journal.Add_group { group = g; members = members_both members.(g) })
  done;
  let positions = Array.make snapshot_every 0 in
  List.iteri
    (fun i op ->
      Replica.apply replica op;
      let bytes = Wire.contents (Option.get (Replica.wire replica)) in
      match Supervisor.failover ~fabric:(Fabric.create topo) bytes with
      | Error e -> Alcotest.failf "op %d: failover failed: %s" i e
      | Ok o ->
          let suffix = List.length o.Supervisor.loaded.Wire.l_suffix in
          positions.(suffix) <- positions.(suffix) + 1;
          Alcotest.(check bool)
            (Printf.sprintf "op %d (suffix %d): recovered = failover" i suffix)
            true
            (Test_fault.same_controller_state (Replica.recovered replica)
               (Replica.controller o.Supervisor.replica)
               ~groups))
    (Test_fault.crash_rng_ops rng ~members ~events:30);
  Array.iteri
    (fun suffix n ->
      Alcotest.(check bool)
        (Printf.sprintf "suffix length %d exercised" suffix)
        true (n > 0))
    positions

(* {1 Supervisor failover} *)

let test_failover_fences_old_primary () =
  let fabric = Fabric.create topo in
  let primary =
    Replica.create ~snapshot_every:16
      ~fabric_hooks:(Fabric.controller_hooks_at fabric ~epoch:0)
      topo tight_params
  in
  Replica.apply primary
    (Journal.Add_group { group = 0; members = members_both wide_hosts });
  Replica.apply primary
    (Journal.Add_group
       { group = 1; members = members_both [ 0; h; (2 * h) + 1 ] });
  (* Checkpoint so recovery restores from the snapshot with no suffix to
     replay — otherwise the replayed installs would heal the fabric before
     the sweep gets to prove itself. *)
  Replica.checkpoint primary;
  (* Sabotage the fabric behind the controller's back: drop one expected
     s-rule site and plant an orphan entry — the reconcile sweep must fix
     both. *)
  let enc =
    Option.get (Controller.encoding (Replica.controller primary) ~group:0)
  in
  let victim_leaf, _ = List.hd enc.Encoding.d_leaf.Clustering.srules in
  Fabric.remove_leaf_srule fabric ~leaf:victim_leaf ~group:0;
  let orphan_bm = Bitmap.create (Topology.leaf_downstream_width topo) in
  Bitmap.set orphan_bm 0;
  Fabric.install_leaf_srule fabric ~leaf:1 ~group:999 orphan_bm;
  let bytes = Wire.contents (Option.get (Replica.wire primary)) in
  match Supervisor.failover ~fabric bytes with
  | Error e -> Alcotest.fail e
  | Ok outcome ->
      Alcotest.(check int) "fence bumped past the log's epoch" 1
        outcome.Supervisor.epoch;
      Alcotest.(check int) "fabric fence matches" 1 (Fabric.fence_epoch fabric);
      Alcotest.(check bool) "dropped site reinstalled" true
        (outcome.Supervisor.reconcile.Supervisor.reinstalled >= 1);
      Alcotest.(check bool) "orphan removed" true
        (outcome.Supervisor.reconcile.Supervisor.orphans_removed >= 1);
      Alcotest.(check bool) "orphan gone from the fabric" true
        (not (List.mem 999 (Fabric.leaf_groups fabric 1)));
      Alcotest.(check bool) "reinstalled site back on the fabric" true
        (Option.is_some (Fabric.leaf_srule fabric ~leaf:victim_leaf ~group:0));
      Alcotest.(check int) "zero blackholes" 0
        (List.length outcome.Supervisor.blackholes);
      (* The fenced ex-primary's late install is refused by the fabric;
         its own reliable-install path degrades honestly instead of
         clobbering the new primary. *)
      let refusals_before = Fabric.fenced_refusals fabric in
      Replica.apply primary
        (Journal.Join { group = 1; host = (4 * h) + 1; role = Controller.Both });
      Alcotest.(check bool) "late installs refused below the fence" true
        (Fabric.fenced_refusals fabric > refusals_before);
      (* The new primary operates normally at the fenced epoch. *)
      Replica.apply outcome.Supervisor.replica
        (Journal.Join { group = 1; host = (5 * h) + 1; role = Controller.Both });
      (match Verify.check_controller (Replica.controller outcome.Supervisor.replica) with
      | Ok (_ : int) -> ()
      | Error w ->
          Alcotest.failf "new primary violates its own intent: %a"
            Verify.pp_witness w);
      match
        Verify.probe
          (Replica.controller outcome.Supervisor.replica)
          fabric ~group:1 ~sender:0
      with
      | Some (ok, _) -> Alcotest.(check bool) "new primary delivers" true ok
      | None -> Alcotest.fail "new primary lost its multicast path"

let test_failover_unrecoverable_is_explicit () =
  let fabric = Fabric.create topo in
  let primary =
    Replica.create ~fabric_hooks:(Fabric.controller_hooks_at fabric ~epoch:0)
      topo tight_params
  in
  Replica.apply primary
    (Journal.Add_group { group = 0; members = members_both wide_hosts });
  let bytes = Wire.contents (Option.get (Replica.wire primary)) in
  (* Tear the log before the genesis snapshot completes: nothing to
     recover from — the failover must fail loudly AND still fence. *)
  match Supervisor.failover ~fabric (Wire.truncate_at bytes 40) with
  | Ok _ -> Alcotest.fail "recovered from a log with no snapshot"
  | Error (_ : string) ->
      Alcotest.(check bool) "fabric fenced even on failed recovery" true
        (Fabric.fence_epoch fabric >= 1)

(* The [supervisor.failover] span covers the whole takeover — log load and
   replay included — with the reconcile sweep and the zero-blackhole proof
   as child spans inside it. *)
let span_events jsonl =
  let field line key =
    match Astring.String.cut ~sep:(Printf.sprintf "\"%s\":" key) line with
    | None -> None
    | Some (_, rest) ->
        let stop =
          match Astring.String.find (fun c -> c = ',' || c = '}') rest with
          | Some i -> i
          | None -> String.length rest
        in
        Some (String.sub rest 0 stop)
  in
  String.split_on_char '\n' jsonl
  |> List.filter_map (fun line ->
         match (field line "name", field line "ts", field line "dur") with
         | Some name, Some ts, Some dur ->
             let name = String.sub name 1 (String.length name - 2) in
             Some (name, float_of_string ts, float_of_string dur)
         | _ -> None)

let test_failover_spans () =
  let fabric = Fabric.create topo in
  let primary =
    Replica.create ~snapshot_every:4
      ~fabric_hooks:(Fabric.controller_hooks_at fabric ~epoch:0)
      topo tight_params
  in
  Replica.apply primary
    (Journal.Add_group { group = 0; members = members_both wide_hosts });
  Replica.apply primary
    (Journal.Add_group
       { group = 1; members = members_both [ 0; h; (2 * h) + 1 ] });
  let bytes = Wire.contents (Option.get (Replica.wire primary)) in
  let clock = Clock.logical () in
  let trace = Trace.create ~clock () in
  Obs.install (Ctx.make ~trace ~clock ());
  let outcome =
    Fun.protect
      ~finally:(fun () -> Obs.install Ctx.disabled)
      (fun () -> Supervisor.failover ~fabric bytes)
  in
  (match outcome with
  | Ok o ->
      Alcotest.(check int) "zero blackholes" 0
        (List.length o.Supervisor.blackholes)
  | Error e -> Alcotest.fail e);
  let events = span_events (Trace.to_jsonl trace) in
  let only name =
    match List.filter (fun (n, _, _) -> String.equal n name) events with
    | [ (_, ts, dur) ] -> (ts, dur)
    | l -> Alcotest.failf "%d %s spans, expected one" (List.length l) name
  in
  let f_ts, f_dur = only "supervisor.failover" in
  List.iter
    (fun child ->
      let ts, dur = only child in
      Alcotest.(check bool)
        (child ^ " nested in supervisor.failover")
        true
        (ts >= f_ts && ts +. dur <= f_ts +. f_dur))
    [ "replica.of_wire"; "supervisor.reconcile"; "supervisor.prove" ]

(* {1 Hostile-header hardening} *)

let header_setup () =
  let ctrl = Controller.create topo tight_params in
  ignore (Controller.add_group ctrl ~group:0 (members_both wide_hosts));
  ignore
    (Controller.add_group ctrl ~group:1
       (members_both [ 0; 1; h; (3 * h) + 2 ]));
  ctrl

let test_decode_checked_round_trip () =
  let ctrl = header_setup () in
  List.iter
    (fun (group, sender) ->
      let hd = Option.get (Controller.header ctrl ~group ~sender) in
      let bytes = Header_codec.encode topo hd in
      match Header_codec.decode_checked topo bytes with
      | Error e ->
          Alcotest.failf "valid header rejected: %a" Header_codec.pp_decode_error
            e
      | Ok hd' ->
          Alcotest.(check bool)
            (Printf.sprintf "group %d sender %d round-trips" group sender)
            true
            (Bytes.equal bytes (Header_codec.encode topo hd')))
    [ (0, 0); (0, (7 * h) + 1); (1, 0); (1, (3 * h) + 2) ]

let test_decode_checked_truncated_total () =
  let ctrl = header_setup () in
  let hd = Option.get (Controller.header ctrl ~group:0 ~sender:0) in
  let bytes = Header_codec.encode topo hd in
  for len = 0 to Bytes.length bytes - 1 do
    match Header_codec.decode_checked topo (Bytes.sub bytes 0 len) with
    | Ok _ | Error _ -> ()
    | exception exn ->
        Alcotest.failf "prefix %d raised %s" len (Printexc.to_string exn)
  done

let test_decode_checked_trailing_bits () =
  let ctrl = header_setup () in
  let hd = Option.get (Controller.header ctrl ~group:0 ~sender:0) in
  let bytes = Header_codec.encode topo hd in
  let padded = Bytes.make (Bytes.length bytes + 2) '\xff' in
  Bytes.blit bytes 0 padded 0 (Bytes.length bytes);
  match Header_codec.decode_checked topo padded with
  | Error Header_codec.Trailing_bits -> ()
  | Error e ->
      Alcotest.failf "expected Trailing_bits, got %a"
        Header_codec.pp_decode_error e
  | Ok _ -> Alcotest.fail "nonzero trailing bytes accepted"

let test_decode_fuzz_no_exceptions_no_over_delivery () =
  let ctrl = header_setup () in
  let ctx = Pred.create_ctx () in
  let sender = 0 in
  let hd = Option.get (Controller.header ctrl ~group:0 ~sender) in
  let valid = Header_codec.encode topo hd in
  let intent = Verify.header_pred ctx topo ~sender hd in
  let rng = Rng.create 424242 in
  let n = fuzz_inputs () in
  let ok = ref 0 and malformed = ref 0 and over = ref 0 in
  for i = 1 to n do
    let input =
      match i mod 3 with
      | 0 ->
          (* Pure noise. *)
          let len = Rng.int rng 48 in
          Bytes.init len (fun _ -> Char.chr (Rng.int rng 256))
      | 1 ->
          (* Valid encoding with 1-4 flipped bits. *)
          let b = ref (Bytes.copy valid) in
          for _ = 0 to Rng.int rng 4 do
            b := Wire.flip_bit !b (Rng.int rng (8 * Bytes.length valid))
          done;
          !b
      | _ ->
          (* Torn valid encoding. *)
          Bytes.sub valid 0 (Rng.int rng (Bytes.length valid + 1))
    in
    match Verify.admit_header ctx topo ~intent ~sender input with
    | Ok admitted ->
        incr ok;
        (* Re-verify the admission guarantee independently: the admitted
           header's own delivery never exceeds the intent. *)
        let hp = Verify.header_pred ctx topo ~sender admitted in
        if not (Verify.subsumes ~big:intent ~small:hp) then
          Alcotest.failf "fuzz %d: admitted header over-delivers" i
    | Error (Verify.Malformed _) -> incr malformed
    | Error (Verify.Over_delivery _) -> incr over
    | exception exn ->
        Alcotest.failf "fuzz %d: uncaught exception %s" i
          (Printexc.to_string exn)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "fuzz corpus exercised all outcomes (%d ok, %d malformed, %d over)"
       !ok !malformed !over)
    true
    (!ok > 0 && !malformed > 0);
  Alcotest.(check int) "all inputs accounted" n (!ok + !malformed + !over)

(* {1 Zero-alloc encode_into} *)

let test_encode_into_matches_encode () =
  let ctrl = header_setup () in
  let buf = Bytes.create 1024 in
  let sink = Bitio.Sink.of_bytes buf in
  List.iter
    (fun (group, sender) ->
      match Controller.header ctrl ~group ~sender with
      | None -> ()
      | Some hd ->
          let expected = Header_codec.encode topo hd in
          Bitio.Sink.reset sink ~pos:0;
          let len = Header_codec.encode_into topo hd sink in
          Alcotest.(check int)
            (Printf.sprintf "group %d sender %d: same length" group sender)
            (Bytes.length expected) len;
          Alcotest.(check bool) "same bytes" true
            (Bytes.equal expected (Bytes.sub buf 0 len)))
    (List.concat_map
       (fun g -> List.map (fun s -> (g, s)) [ 0; 1; h; (5 * h) + 1 ])
       [ 0; 1 ])

let test_encode_into_overflow_raises () =
  let ctrl = header_setup () in
  let hd = Option.get (Controller.header ctrl ~group:0 ~sender:0) in
  let need = Bytes.length (Header_codec.encode topo hd) in
  let sink = Bitio.Sink.of_bytes (Bytes.create (need - 1)) in
  match Header_codec.encode_into topo hd sink with
  | (_ : int) -> Alcotest.fail "overflowing encode_into returned"
  | exception Invalid_argument _ -> ()

let test_encode_into_zero_alloc () =
  let ctrl = header_setup () in
  let hd = Option.get (Controller.header ctrl ~group:0 ~sender:0) in
  let buf = Bytes.create 1024 in
  let sink = Bitio.Sink.of_bytes buf in
  let report =
    Allocs.probe ~warmup:64 ~events:2048 (fun _ ->
        Bitio.Sink.reset sink ~pos:0;
        ignore (Header_codec.encode_into topo hd sink : int))
  in
  match report.Allocs.first_alloc with
  | None ->
      Alcotest.(check (float 0.0)) "zero words per event" 0.0
        report.Allocs.per_event
  | Some (event, words) ->
      Alcotest.failf "encode_into allocated %d words at event %d (%.1f total)"
        words event report.Allocs.total_words

(* The same probe over headers whose bitmaps are 8 bits wide or more (the
   byte-wide bitmap path), including leaf bitmaps wider than one 63-bit
   bitmap word: seeded random headers on the Facebook fabric (48-port
   leaves and spines) and on a fabric with 70-host leaves. *)
let test_encode_into_wide_zero_alloc () =
  let rand = Random.State.make [| 48 |] in
  let wide_topos =
    [
      Topology.facebook_fabric ();
      Topology.create ~pods:3 ~leaves_per_pod:20 ~spines_per_pod:2
        ~hosts_per_leaf:70 ~cores_per_plane:1;
    ]
  in
  let cases =
    Array.of_list
      (List.concat_map
         (fun t -> List.init 16 (fun _ -> (t, Test_codec.gen_header t rand)))
         wide_topos)
  in
  let buf = Bytes.create 4096 in
  let sink = Bitio.Sink.of_bytes buf in
  Array.iter
    (fun (t, hd) ->
      Bitio.Sink.reset sink ~pos:0;
      let len = Header_codec.encode_into t hd sink in
      Alcotest.(check bytes) "encode_into = encode" (Header_codec.encode t hd)
        (Bytes.sub buf 0 len))
    cases;
  let report =
    Allocs.probe ~warmup:64 ~events:2048 (fun i ->
        let t, hd = cases.(i mod Array.length cases) in
        Bitio.Sink.reset sink ~pos:0;
        ignore (Header_codec.encode_into t hd sink : int))
  in
  match report.Allocs.first_alloc with
  | None ->
      Alcotest.(check (float 0.0)) "zero words per event" 0.0
        report.Allocs.per_event
  | Some (event, words) ->
      Alcotest.failf "wide encode_into allocated %d words at event %d (%.1f total)"
        words event report.Allocs.total_words

(* {1 Wire file round-trip} *)

let test_file_round_trip () =
  let replica = seeded_replica () in
  let bytes = Wire.contents (Option.get (Replica.wire replica)) in
  let path = Filename.temp_file "elmo_wire" ".wal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Wire.to_file path bytes;
      match Wire.of_file path with
      | Error e -> Alcotest.fail e
      | Ok read -> Alcotest.(check bool) "same bytes" true (Bytes.equal bytes read));
  match Wire.of_file "/nonexistent/elmo.wal" with
  | Error (_ : string) -> ()
  | Ok _ -> Alcotest.fail "read a nonexistent file"

(* {1 Pinned wire bytes}

   Size, record count and CRC-32 of two whole logs, captured once. Any
   change to what a snapshot or op record carries, or to the order its
   fields are written in, moves them; a refactor of the checkpoint path
   must leave them alone. *)

let check_pinned what wire ~size ~records ~crc =
  let b = Wire.contents wire in
  Alcotest.(check int) (what ^ ": size") size (Bytes.length b);
  Alcotest.(check int) (what ^ ": records") records (Wire.records wire);
  Alcotest.(check int) (what ^ ": crc32") crc
    (Byteio.crc32 b ~pos:0 ~len:(Bytes.length b))

(* [elmo-sim recover --write --events 200 --seed 7]'s log. *)
let test_pinned_recovery_fixture () =
  check_pinned "recovery fixture"
    (Recovery_fixture.churn ~checkpoint_at:100 ~snapshot_every:1_000_000
       ~events:200 ~seed:7 ())
    ~size:4_598 ~records:150 ~crc:2552486893

(* A log whose snapshots carry nonzero install counters, degradations,
   stale entries and failure overrides: the scripted removal timeouts of
   [test_stale_markers_survive_crash] and its compensating install, after
   which every fabric operation times out, so no stale entry is ever
   removed and later installs exhaust their budget and degrade. Three
   sites end stale:
   - group 1 at leaf 0: its removal timed out and the compensating
     install wrote the truthful (empty) entry;
   - group 0 at leaf 6: the last join's fast-path mirror install there
     reads back as missing, exhausts its budget and denies the leaf; the
     re-encode's removals of group 0's s-rules all time out, and the new
     encoding holds none at the denied leaf;
   - group 0 at leaf 4: likewise, denied when group 2 degraded. The new
     encoding's s-rules at its other sites re-install equal bitmaps, which
     read back as installed and clear their markers. *)
let test_pinned_faulty_log () =
  let second = [ 0; 1; h; h + 1; 2 * h ] in
  let twin = Controller.create topo tight_params in
  let sites g =
    match Controller.encoding twin ~group:g with
    | None -> 0
    | Some enc ->
        List.length enc.Encoding.d_leaf.Clustering.srules
        + List.length enc.Encoding.d_spine.Clustering.srules
  in
  ignore (Controller.add_group twin ~group:0 (members_both wide_hosts));
  let k0 = sites 0 in
  ignore (Controller.add_group twin ~group:1 (members_both second));
  let k1 = sites 1 in
  let script =
    repeat (k0 + k1) Fault.Applied
    @ repeat 5 Fault.Timeout
    @ repeat (k1 - 1) Fault.Applied
    @ repeat 5 Fault.Timeout
    @ [ Fault.Applied ]
    @ repeat 1000 Fault.Timeout
  in
  let fabric = Fabric.create topo in
  let fault = Fault.create ~schedule:(Fault.Scripted script) fabric in
  let replica =
    Replica.create ~snapshot_every:4 ~fabric_hooks:(Fault.hooks fault) topo
      tight_params
  in
  let apply = Replica.apply replica in
  apply (Journal.Add_group { group = 0; members = members_both wide_hosts });
  apply (Journal.Add_group { group = 1; members = members_both second });
  apply (Journal.Remove_group { group = 1 });
  apply
    (Journal.Add_group
       { group = 2; members = members_both [ 2; 3; h + 2; (4 * h) + 1 ] });
  apply (Journal.Fail_spine 1);
  apply (Journal.Join { group = 0; host = (6 * h) + 2; role = Controller.Both });
  Replica.checkpoint replica;
  let st = Controller.install_stats (Replica.controller replica) in
  Alcotest.(check bool) "retries, exhaustion, degradation, compensation" true
    (st.Controller.retries > 0 && st.Controller.exhausted > 0
    && st.Controller.degradations > 0 && st.Controller.compensations > 0);
  Alcotest.(check int) "three stale entries" 3 st.Controller.stale_entries;
  check_pinned "faulty log"
    (Option.get (Replica.wire replica))
    ~size:764 ~records:9 ~crc:3540073627

let tests =
  [
    Alcotest.test_case "pinned bytes: recovery fixture" `Quick
      test_pinned_recovery_fixture;
    Alcotest.test_case "pinned bytes: faulty log" `Quick test_pinned_faulty_log;
    Alcotest.test_case "crc32 known vectors" `Quick test_crc_known_vectors;
    QCheck_alcotest.to_alcotest prop_crc_matches_reference;
    QCheck_alcotest.to_alcotest prop_int_nat_round_trip;
    Alcotest.test_case "codec primitives: LEB128, index, bitmap and count edges"
      `Quick test_codec_primitive_edges;
    Alcotest.test_case "op codec round-trip" `Quick
      test_op_codec_round_trip;
    Alcotest.test_case "op codec rejects out-of-range" `Quick
      test_op_codec_rejects_out_of_range;
    Alcotest.test_case "op codec canonical under bit flips" `Quick
      test_op_codec_canonical_under_bit_flips;
    Alcotest.test_case "snapshot codec round-trip" `Quick
      test_snapshot_codec_round_trip;
    Alcotest.test_case "snapshot codec round-trip on a two-tier fabric" `Quick
      test_snapshot_two_tier_round_trip;
    Alcotest.test_case "snapshot codec rejects bit flips" `Quick
      test_snapshot_codec_rejects_bit_flips;
    Alcotest.test_case "restored segments are their groups' encodings" `Quick
      test_restored_segments_are_encodings;
    Alcotest.test_case "forged snapshot: duplicate gid" `Quick
      test_forged_duplicate_gid;
    Alcotest.test_case "forged snapshot: duplicate override host" `Quick
      test_forged_duplicate_override_host;
    Alcotest.test_case "forged snapshot: duplicate member host" `Quick
      test_forged_duplicate_member_host;
    Alcotest.test_case "forged snapshot: unsorted stale list" `Quick
      test_forged_unsorted_stale_list;
    Alcotest.test_case "forged snapshot: override padding bit" `Quick
      test_forged_override_padding_bit;
    Alcotest.test_case "empty log" `Quick test_empty_log;
    Alcotest.test_case "bad magic" `Quick test_bad_magic;
    Alcotest.test_case "snapshot-only load" `Quick test_snapshot_only_load;
    Alcotest.test_case "truncation at record boundary" `Quick
      test_truncation_at_record_boundary;
    Alcotest.test_case "torn header truncates" `Quick
      test_torn_header_truncates;
    Alcotest.test_case "corrupt length field truncates" `Quick
      test_corrupt_length_field_truncates;
    Alcotest.test_case "sequence gap truncates" `Quick
      test_sequence_gap_truncates;
    Alcotest.test_case "snapshot fallback on forged payload" `Quick
      test_snapshot_fallback_on_forged_payload;
    Alcotest.test_case "crash/corruption matrix" `Slow
      test_crash_corruption_matrix;
    Alcotest.test_case "wedged pod churn across crash" `Quick
      test_wedged_pod_churn_across_crash;
    Alcotest.test_case "stale markers survive crash" `Quick
      test_stale_markers_survive_crash;
    Alcotest.test_case "rejected ops never reach the log" `Quick
      test_rejected_ops_never_reach_the_log;
    Alcotest.test_case "recovered equals failover" `Quick
      test_recovered_equals_failover;
    Alcotest.test_case "failover fences old primary" `Quick
      test_failover_fences_old_primary;
    Alcotest.test_case "unrecoverable failover is explicit" `Quick
      test_failover_unrecoverable_is_explicit;
    Alcotest.test_case "failover span covers load, reconcile and proof"
      `Quick test_failover_spans;
    Alcotest.test_case "decode_checked round-trip" `Quick
      test_decode_checked_round_trip;
    Alcotest.test_case "decode_checked total on prefixes" `Quick
      test_decode_checked_truncated_total;
    Alcotest.test_case "decode_checked trailing bits" `Quick
      test_decode_checked_trailing_bits;
    Alcotest.test_case "decode fuzz: no exceptions, no over-delivery" `Slow
      test_decode_fuzz_no_exceptions_no_over_delivery;
    Alcotest.test_case "encode_into matches encode" `Quick
      test_encode_into_matches_encode;
    Alcotest.test_case "encode_into overflow raises" `Quick
      test_encode_into_overflow_raises;
    Alcotest.test_case "encode_into zero-alloc" `Quick
      test_encode_into_zero_alloc;
    Alcotest.test_case "encode_into zero-alloc (wide bitmaps)" `Quick
      test_encode_into_wide_zero_alloc;
    Alcotest.test_case "wire file round-trip" `Quick test_file_round_trip;
    Alcotest.test_case "trailing byte after an op truncates" `Quick
      test_trailing_byte_after_op_truncates;
    Alcotest.test_case "forged encoding: rule names a switch off the tree"
      `Quick test_forged_off_tree_switch;
    Alcotest.test_case "forged encoding: a layer names a switch twice or not at all"
      `Quick test_forged_layer_names_switch_once;
    Alcotest.test_case "forged snapshot: s-rules above fmax" `Quick
      test_forged_srules_above_fmax;
  ]
