(** Algorithm 1: expressing one downstream layer of a group's multicast tree
    as p-rules, s-rules, and a default p-rule (§3.2).

    Input is the layer's switch identifiers and their exact output bitmaps
    from the multicast tree, as two arrays of one length. When the layer fits in [hmax] singleton rules the
    result is exact (sharing exists to shrink headers — D3 — and buys
    nothing but spurious traffic below the budget); otherwise the algorithm
    greedily groups up to [kmax] switches whose bitmaps stay within the
    redundancy budget [r] of their OR (via approximate MIN-K-UNION, with
    [r] interpreted per {!Params.r_semantics}), emits at most [hmax]
    p-rules, spills remaining switches to s-rules where the switch still has
    group-table space, and finally ORs whatever is left into the default
    p-rule. *)

type result = {
  prules : Prule.prule list;
      (** shared (or singleton) p-rules, in emission order *)
  srules : (int * Bitmap.t) list;
      (** per-switch s-rules: exact bitmaps, no redundancy *)
  default : (int list * Bitmap.t) option;
      (** switches folded into the default rule, and its OR bitmap *)
}

val equal_default :
  (int list * Bitmap.t) option -> (int list * Bitmap.t) option -> bool
(** Equality of default-rule sections: same folded switch ids (in order)
    and equal bitmaps (by {!Bitmap.equal}, not structural comparison). *)

val rule_within_budget :
  r:int -> semantics:Params.r_semantics -> exacts:Bitmap.t list -> Bitmap.t -> bool
(** Does a rule whose members have the given exact bitmaps respect the
    redundancy budget with [output] as the shared bitmap? The predicate of
    Algorithm 1's line 6, shared with the incremental encoder's fast path. *)

val run :
  r:int ->
  semantics:Params.r_semantics ->
  hmax:int ->
  kmax:int ->
  has_srule_space:(int -> bool) ->
  int array ->
  Bitmap.t array ->
  result
(** [run ~r ~semantics ~hmax ~kmax ~has_srule_space ids bitmaps] never
    fails: [bitmaps.(i)] is switch [ids.(i)]'s exact bitmap, [ids]
    ascend strictly (a tree layer's do), and every input switch lands in
    exactly one of the three outputs. [has_srule_space id] is consulted
    once per spilled switch, in ascending identifier order, so the caller
    can account capacity as it is consumed. Neither array is mutated, and
    every output owns its bitmap: no p-rule, s-rule or default bitmap is
    an input bitmap, and a singleton (a p-rule of the singleton path, an
    s-rule) holds a copy of its switch's. An empty input yields the empty
    result. Raises [Invalid_argument] on
    non-positive [hmax]/[kmax] or negative [r]. *)

val assigned_bitmap : result -> int -> Bitmap.t option
(** The bitmap switch [id] will forward on under this result: its (shared)
    p-rule's bitmap, its s-rule bitmap, or the default bitmap if the switch
    was folded into the default rule. [None] if the switch appears nowhere. *)

val redundancy : (int * Bitmap.t) list -> result -> int
(** Total extra port transmissions implied by sharing and the default rule
    for one packet traversal: Σ over layer switches of
    popcount(assigned) − popcount(exact). *)
