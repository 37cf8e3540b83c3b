(** Durable byte-level wire format for journals and snapshots.

    A wire log is the crash-safe persistent form of a {!Replica}: an
    8-byte magic ["ELMOWAL4"] followed by length-prefixed records, each
    carrying a CRC32 and a monotonic epoch/seq header.

    Record layout (all integers little-endian):
    {v
      len   : u32   payload length in bytes
      crc   : u32   CRC32 over kind..seq ++ payload
      kind  : u8    1 = snapshot, 2 = op
      epoch : u32   issuing controller's fencing epoch (non-decreasing)
      seq   : i64   record sequence number (strictly prev + 1, from 0)
      payload : len bytes
    v}

    A snapshot payload is a live controller's checkpoint as
    {!Controller.write_snapshot} writes it; an op payload is one
    {!Journal.op}. Payload fields are {!Byteio.Codec} values, each as wide
    as its information: a switch or host id is an index in the fewest
    bytes its bound needs (one per leaf or pod, two per host on a
    2,048-host Clos), a gid, count or counter a LEB128 (an [int] zigzagged
    first), a bitmap its [(width + 7) / 8] packed bytes with no width, and
    booleans and tags one byte. The magic names the record format: a
    change to what a record carries or how wide bumps it (["ELMOWAL2"]
    wrote every integer and bitmap width as 8 or 4 bytes, ["ELMOWAL3"]
    also wrote each encoding's tree, rule bitmaps and params and the
    s-rule ledger), so a log in a retired format is refused rather than
    read as corrupt.

    {!load} is total over arbitrary bytes (modulo a recognizable magic):
    it scans records in order and {e truncates} — treats the log as ending
    — at the first torn or corrupt record: a short header, a length
    overrunning the buffer, a CRC mismatch, a sequence gap, an epoch
    regression, an unknown kind, or an op payload that fails validated
    decoding or leaves bytes unread. Snapshot payloads are decoded lazily, newest first: a
    corrupt snapshot payload falls back to the previous good snapshot
    (counted in [dropped_snapshots]) rather than truncating the log.
    Recovery never guesses: a record is either replayed exactly or the log
    is explicitly shorter. *)

type t
(** An in-memory append-side log (the durable bytes under construction). *)

val create : unit -> t
(** An empty log: magic only, next seq 0. *)

val append_op : t -> epoch:int -> topo:Topology.t -> Journal.op -> unit
val append_snapshot : t -> epoch:int -> Controller.t -> unit
(** Append one record; an op record holds the op as
    [Journal.op_codec ~topo] writes it, a snapshot record the controller's
    checkpoint as {!Controller.write_snapshot} writes it. Epochs must be
    non-decreasing across appends and [0 <= epoch < 2^32]; raises
    [Invalid_argument] otherwise. *)

val contents : t -> bytes
(** The log's current bytes (magic + records), a fresh copy. *)

val size : t -> int
(** Byte length of {!contents}. *)

val records : t -> int
(** Records appended so far. *)

(** {1 Loading} *)

type kind = Snapshot | Op

type record = {
  r_kind : kind;
  r_epoch : int;
  r_seq : int;
  r_off : int;  (** byte offset of the record's length field *)
  r_payload_len : int;
}

type loaded = {
  l_snapshot : Controller.snapshot option;
      (** newest snapshot whose payload decodes; [None] when no snapshot
          record survives — the log is unrecoverable. {!Controller.restore}
          takes it once: load the bytes again for a second replay. *)
  l_snapshot_epoch : int;
      (** epoch of the chosen snapshot record (0 when none) *)
  l_replay_base_ops : int;
      (** structurally valid op records {e before} the chosen snapshot —
          ops its state already includes *)
  l_suffix : Journal.op list;
      (** decoded ops after the chosen snapshot, in order — the replay
          suffix *)
  l_epoch : int;  (** highest epoch among accepted records *)
  l_records : record list;
      (** every structurally accepted record, in order *)
  l_truncated_at : int option;
      (** byte offset where scanning stopped early ([None] = the whole
          log parsed); also set when an op payload after the chosen
          snapshot fails decoding — that op and everything after it are
          dropped *)
  l_dropped_snapshots : int;
      (** snapshot records whose payload failed decoding (fallback hops) *)
}

val load : bytes -> (loaded, string) result
(** Total over arbitrary input: [Error] only when the magic is missing
    (the bytes are not a wire log at all); every other corruption is
    expressed through truncation/fallback in the result. *)

val pp_loaded : Format.formatter -> loaded -> unit
(** One-line summary: records, suffix length, truncation, fallbacks. *)

(** {1 Files} *)

val to_file : string -> bytes -> unit
val of_file : string -> (bytes, string) result
(** [Error] with the system message when unreadable. *)

(** {1 Crash simulation}

    Deterministic byte-granularity corruption for the crash/corruption
    matrix: both are pure (fresh buffer, input untouched). *)

val truncate_at : bytes -> int -> bytes
(** First [n] bytes — a torn write. Clamped to [[0, length]]. *)

val flip_bit : bytes -> int -> bytes
(** Flip bit [i] (bit [i mod 8] of byte [i / 8]). Raises
    [Invalid_argument] out of range. *)
