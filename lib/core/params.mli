(** Encoding parameters of Algorithm 1 (§3.2).

    - [r]: redundancy limit — the maximum Hamming distance between any input
      bitmap of a shared p-rule and the rule's OR-ed output bitmap (extra
      transmissions tolerated per switch per packet).
    - [hmax_leaf] / [hmax_spine]: per-layer cap on the number of downstream
      p-rules in the header. The paper's 325-byte budget corresponds to 30
      leaf and 2 spine p-rules on the 27k-host fabric.
    - [kmax]: maximum number of switches sharing one p-rule, which bounds the
      p-rule's identifier list and hence its size a priori.
    - [fmax]: s-rule (group-table) capacity of each network switch. *)

type r_semantics =
  | Sum  (** §3.2 text: R bounds the {e sum} of Hamming distances of the
             cluster's input bitmaps to the OR-ed output bitmap *)
  | Per_bitmap  (** Algorithm 1's literal line 6: every input bitmap must be
                    within distance R of the output *)

type t = {
  r : int;
  r_semantics : r_semantics;
  hmax_leaf : int;  (** hard cap on downstream-leaf p-rules *)
  hmax_spine : int;  (** hard cap on downstream-spine p-rules *)
  header_budget : int option;
      (** total header budget in bytes (the paper's 325). When set, the
          per-layer Hmax is computed {e per group} within this budget —
          multi-pod groups may spend more spine rules at the cost of leaf
          rules (§3.2 "we budget a separate Hmax per layer such that the
          total number of p-rules is within a header-size limit") — with
          [hmax_leaf]/[hmax_spine] as hard caps. [None] uses the fixed caps
          alone. *)
  kmax : int;
  fmax : int;
  staleness_limit : int;
      (** how many delta fast-path mutations an encoding may accumulate
          before the controller forces a from-scratch re-encode, bounding
          drift from the greedy optimum of Algorithm 1. [0] disables the
          fast path entirely (every membership event re-encodes). *)
  install_retries : int;
      (** how many times the controller re-attempts a failed or unverified
          s-rule install/remove on one switch before declaring the switch
          unusable and degrading affected groups to the default p-rule.
          [0] means a single attempt with no retry. *)
  install_backoff_us : int;
      (** initial retry backoff in microseconds of the controller's {!Clock};
          doubles on every subsequent retry of the same operation. *)
}

val default : t
(** The paper's defaults: [r = 0] (swept by benchmarks), a 325-byte header
    budget with hard caps of 30 leaf / 12 spine p-rules, [kmax = 2] (which
    makes 30 leaf p-rules fit the budget on the 27k-host fabric and matches
    the sharing degree of the paper's running example), [fmax = 30_000]. *)

val with_r : t -> int -> t

val create :
  ?r:int -> ?r_semantics:r_semantics -> ?hmax_leaf:int -> ?hmax_spine:int ->
  ?header_budget:int option -> ?kmax:int -> ?fmax:int ->
  ?staleness_limit:int -> ?install_retries:int -> ?install_backoff_us:int ->
  unit -> t
(** Like {!default} with overrides ([staleness_limit] defaults to 256,
    [install_retries] to 4, [install_backoff_us] to 8).
    Raises [Invalid_argument] on negative [r]/[fmax]/[staleness_limit]/
    [install_retries] or non-positive [hmax_leaf]/[hmax_spine]/[kmax]/
    [install_backoff_us]. *)

val codec : t Byteio.Codec.t
(** Durable wire codec (snapshot records). The reader re-validates
    through {!create} and raises {!Byteio.Reader.Corrupt} on malformed or
    semantically invalid input. *)

val pp : Format.formatter -> t -> unit
