(** elmo-lint: typed-AST static analysis over the [.cmt] files dune emits.

    The type system cannot see the invariants Elmo's correctness argument
    rests on: the controller must be bit-identically deterministic (no code
    path consults ambient randomness or wall clocks, so every run replays),
    capacity failures must surface as declared exceptions rather than stray
    [failwith], and annotated hot paths must not allocate. This pass walks the typed trees ([Cmt_format.read_cmt] +
    [Tast_iterator]) and enforces them mechanically.

    A finding on line [l] is silenced by an inline comment on line [l] or
    [l - 1]:

    {v (* elmo-lint: allow <rule-id> — <reason> *) v}

    A suppression without a reason is itself a finding ([bare-allow]); it
    still silences the original finding so the output names exactly one
    problem per site. *)

type rule =
  | Determinism
      (** No [Random.*], [Sys.time], [Unix.gettimeofday]/[Unix.time], or
          [Hashtbl.hash]/[seeded_hash]/[randomize]: all randomness must flow
          through [Elmo_prelude.Rng] (splitmix64) so every run replays. *)
  | Poly_compare
      (** No polymorphic [=] / [<>] / [compare] instantiated at a
          non-primitive type, and no [Hashtbl.create] keyed by one: abstract
          types ([Bitmap.t]) and records with cached fields compare wrongly
          under structural equality. *)
  | Poly_lookup
      (** No [Stdlib.List.mem] / [assoc] / [assoc_opt] / [mem_assoc] /
          [remove_assoc]: they compare with polymorphic compare whatever
          the element type, which [Poly_compare]'s per-type test cannot
          see. Int keys go through [Elmo_prelude]'s [Int_list]. Same
          scope as [Poly_compare]. *)
  | Exception_discipline
      (** No [failwith] / [invalid_arg] / [assert false]: failures must use
          the module's declared exception constructors. [Invalid_argument]
          at a genuine API-misuse boundary is allowed with a reasoned
          suppression. *)
  | Interface_hygiene
      (** Every implementation ships an [.mli] (detected as a sibling
          [.cmti] of the [.cmt]). *)
  | Zero_alloc
      (** A top-level binding annotated [(* elmo-lint: zero-alloc *)] (on
          the binding's line or the line above) must not allocate on any
          path. Per-function summaries over the typed AST record direct
          allocation sites — non-constant constructors, tuples, records,
          arrays, closures and partial applications, boxed floats and
          float-record reads, [@]/[^], polymorphic-compare fallbacks —
          and the calls the body makes; verdicts propagate through every
          module loaded into the lint run, and the finding's message
          carries the first allocating call chain as a witness:
          [f → g → h allocates <construct> (path:line)]. Calls that reach
          neither a summarized binding nor the clean-extern whitelist are
          conservatively reported as unproven. Cold slow paths are
          silenced per site with a reasoned [allow zero-alloc] on the
          allocating line or the line above (honored inside callees
          too). *)
  | Bare_allow
      (** An [elmo-lint: allow] suppression that carries no reason, or
          one naming an unknown rule-id (a typo'd allow suppresses
          nothing). *)

val rule_id : rule -> string
(** Stable kebab-case id used in output and in suppression comments. *)

val rule_of_id : string -> rule option

type finding = { file : string; line : int; rule : rule; message : string }

val pp_finding : Format.formatter -> finding -> unit
(** Prints [path:line: [rule-id] message]. *)

type config = {
  determinism_scope : string -> bool;
  poly_scope : string -> bool;
  exn_scope : string -> bool;
  iface_scope : string -> bool;
}
(** Each predicate receives the workspace-relative source path recorded in
    the [.cmt] and decides whether the rule applies to that file. *)

val default_config : config
(** The repo policy: determinism / poly-compare / poly-lookup /
    interface-hygiene over [lib/]; exception-discipline over [lib/core/]
    and [lib/dataplane/] only. *)

val all_config : config
(** Every rule everywhere — used by the fixture tests. *)

val analyze :
  ?config:config -> ?source_root:string -> targets:string list ->
  ?deps:string list -> unit -> finding list
(** [analyze ~targets ~deps ()] reads the given [.cmt] files and returns
    the findings, sorted by file, line, then rule id.

    [source_root] is prepended to the workspace-relative source path when
    locating the [.ml] for suppression scanning; needed when the linter does
    not run from the workspace root (dune actions run inside the build
    context, and dune scrubs [cmt_builddir] to [/workspace_root]).

    [targets] are the modules being linted; [deps] are context-only modules
    whose typed trees extend the [Zero_alloc] summaries (a zero-alloc
    binding in a target is judged through the callees it reaches in a
    dep). Every rule reports on targets only, so linting each library with
    its dependency closure as [deps] never duplicates a finding across
    library lint runs.

    Raises [Failure] when a [.cmt] cannot be read. *)
