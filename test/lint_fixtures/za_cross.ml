(* Zero-alloc entries whose only callees live in other modules: they are
   judged through those modules' summaries when those are loaded (as
   targets or as deps), and reported as unproven otherwise. *)

(* elmo-lint: zero-alloc *)
let total words = Za_clean.sum_to words (Array.length words - 1) 0

(* elmo-lint: zero-alloc *)
let leaky n = List.length (Za_indirect.helper n)
