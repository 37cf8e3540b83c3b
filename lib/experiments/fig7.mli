(** Hypervisor-switch encapsulation microbenchmark (§5.3, Figure 7).

    The paper pushes p-rules at a PISCES switch and shows that writing all
    p-rules as one header keeps 20 Gbps line rate while packets/s falls with
    header size, whereas one DMA write per rule degrades linearly in the
    rule count. We reproduce the same series against the OCaml codec: for
    each downstream-leaf p-rule count, measure single-write
    ({!Hypervisor.encap}) and per-rule-write ({!Hypervisor.encap_per_rule},
    one buffer per {!Header_codec.encode_parts} part) encapsulation
    rates.

    Substitution note (DESIGN.md §3): absolute Mpps depends on the machine;
    the reproduced claims are the {e shapes} — bits/s roughly flat in rule
    count for the single-write path, and a widening pps gap for the
    per-rule-write path. *)

type point = {
  prules : int;
  header_bytes : int;
  single_mpps : float;  (** million encapsulations/s, single header write *)
  single_gbps : float;  (** at the given payload *)
  per_rule_mpps : float;
  per_rule_gbps : float;
}

val header_with_rules : Topology.t -> int -> Prule.header
(** A representative header carrying [n] downstream-leaf p-rules (plus the
    usual upstream/core sections). [n = 0] yields the bare encapsulation. *)

val run : ?payload:int -> ?iterations:int -> Topology.t -> int list -> point list
(** [run topo counts] measures each p-rule count with a timed loop
    ([iterations] encodes per sample, default 2_000; payload default 1458
    bytes as in MoonGen line-rate tests). *)

val pp_point : Format.formatter -> point -> unit
