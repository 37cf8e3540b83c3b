(** Canonical symbolic delivery predicates.

    A predicate is the set of [(switch, port)] forwarding edges an installed
    configuration guarantees to a group's receivers — the {e sorted-set
    normal form} the verification layer ({!Verify}) compiles configurations
    into. Switches are the logical downstream switches of the Elmo paper:
    the single logical core (ports are pods), one logical spine per pod
    (ports are the pod's leaves) and the leaves (ports are hosts).

    Predicates are {e hash-consed} inside an explicit universe ({!ctx}):
    building the same edge set twice in one universe returns the same
    physical value, so {!equiv} is pointer equality. The universe is a
    value, not a global — create one per checking session; predicates from
    different universes must not be mixed (equivalence across universes is
    meaningless and {!equiv} will answer [false]). *)

type switch =
  | Core  (** the logical core; a port is a pod number *)
  | Spine of int  (** logical spine of a pod; a port is a leaf position *)
  | Leaf of int  (** a leaf; a port is a host position *)

type ctx
(** A hash-consing universe. *)

val create_ctx : unit -> ctx

type t
(** A canonical predicate: strictly sorted edge set, hash-consed in its
    universe. The sort order is [Core < Spine _ < Leaf _] (then by switch
    id, then port), so a structural diff surfaces the topmost divergence
    first. *)

val of_pairs : ctx -> (switch * int) list -> t
(** Canonicalizes (sorts, deduplicates) and interns the edge set. Raises
    nothing; an empty list yields the (unique) empty predicate. *)

val pairs : t -> (switch * int) list
(** The edges back, in canonical order. *)

val leaf_endpoints : t -> topo:Topology.t -> int list
(** The delivery endpoints: hosts of the [Leaf] edges, ascending. *)

val compare_edge : switch * int -> switch * int -> int
(** The canonical edge order of {!t}: [Core < Spine _ < Leaf _], then
    switch id, then port. *)

val cardinal : t -> int
val is_empty : t -> bool

val equiv : t -> t -> bool
(** Pointer equality — constant time. Sound and complete for predicates
    interned in the same {!ctx}. *)

val subsumes : big:t -> small:t -> bool
(** Is every edge of [small] in [big]? Linear merge over the sorted sets. *)

val first_missing : big:t -> small:t -> (switch * int) option
(** The first (canonically smallest) edge of [small] absent from [big] —
    the counterexample witness behind {!Verify.check_subsumes}. *)

val first_diff : t -> t -> (switch * int) option
(** The first edge present in exactly one of the two predicates — the
    witness behind {!Verify.check_equiv}. [None] iff the edge sets are
    equal (content equality, independent of interning). *)

val pp_switch : Format.formatter -> switch -> unit
(** [core], [spine<p>] or [leaf<l>]. *)

val pp : Format.formatter -> t -> unit
(** Renders the edge list, e.g. [{core/2, spine2/0, leaf4/7}]. *)
