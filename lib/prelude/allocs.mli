(** Runtime allocation probe for hot paths.

    The [zero-alloc] lint rule proves allocation-freedom statically over the
    typed AST; this module cross-checks the claim at runtime with
    [Gc.minor_words] deltas, closing the gap left by the checker's trusted
    base (whitelisted externs, reasoned suppressions). The hot-path bench
    and the [test zero-alloc] suite both drive it.

    A word counts wherever it is allocated: in the minor heap, or straight
    in the major heap (a block over [Max_young_wosize] words, which
    [Gc.minor_words] does not see). Each counter read runs a minor
    collection first, so the runtime has added every direct major
    allocation to its [Gc.quick_stat] count by then. *)

type report = {
  total_words : float;
      (** words allocated across all measured events, minor and direct
          major (warm-up excluded, probe overhead subtracted) *)
  per_event : float;  (** [total_words /. events] *)
  first_alloc : (int * int) option;
      (** on violation: [(event_index, words)] of the first measured event
          that allocated, from a second per-event diagnostic pass; [None]
          when the run was clean or the violation did not reproduce
          per-event *)
}

val probe : warmup:int -> events:int -> (int -> unit) -> report
(** [probe ~warmup ~events f] calls [f i] for [i = 0 .. warmup - 1]
    unmeasured (letting one-time lazy work — buffer growth, cell creation —
    happen off the books), then measures the total allocated-words delta
    over [f warmup .. f (warmup + events - 1)]. The cost of reading the
    counter itself is calibrated by timing back-to-back reads and
    subtracted. If the measured span allocated, a second pass re-runs the
    measured events one by one to pin the first allocating event index in
    [first_alloc].

    The function must be effectively idempotent across the extra diagnostic
    pass (membership churn loops that join and leave in pairs are; one-shot
    state machines are not). Raises [Invalid_argument] on negative
    [warmup] or non-positive [events]. *)
