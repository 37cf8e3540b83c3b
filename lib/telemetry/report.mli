(** Self-contained measured run for `elmo-sim top` and `bench
    te-baseline`: tenant placement, batch install, membership
    churn, then a Zipf-skewed packet workload through the operational
    fabric with a {!Recorder} attached.

    The result pairs the sketch's view with exact per-group byte counts
    computed alongside, so callers can check the space-saving error bound
    ([est - err <= exact <= est], every group over [total/k] tracked)
    against ground truth. *)

type config = {
  topo : Topology.t;
  params : Params.t;
  groups : int;
  tenants : int;
  packets : int;
  churn_events : int;
  payload : int;  (** bytes per packet before headers *)
  zipf : float;  (** skew exponent of the group-popularity distribution *)
  seed : int;
  k : int;  (** sketch slots *)
  windows : int;
  window_s : float;
  advance_every : int;
  watermark : float;
}

val default_config : Topology.t -> config
(** 256 WVE groups over 20 tenants, 2000 packets of 1500 B, 200 churn
    events, Zipf 1.1, seed 42, k=16, 8 windows of 1 ms, watermark off. *)

type result = {
  recorder : Recorder.t;
  exact : int array;  (** exact wire bytes per group (dense group ids) *)
  injected : int;
  no_header : int;  (** packets skipped: sender had no header *)
  churn : Controller.churn_stats;
  sketch_ok : bool;  (** every tracked entry within its error bound *)
  missed_heavy : int;
      (** groups over [total/k] the sketch failed to track (must be 0) *)
}

val run : ?flight:Flight_recorder.t -> config -> result
(** Deterministic in [config]. Control-plane ops (group adds, churn
    joins/leaves) and watermark-crossing notes are recorded into [flight]
    (default: the ambient recorder). *)

type link_row = {
  row_link : int;
  row_kind : Link_series.link_kind;
  row_a : int;
  row_b : int;
  row_bytes : int;
  row_max_util : float;
  row_mean_util : float;
}

val link_rows : result -> n:int -> link_row list
(** The [n] busiest links with endpoint naming and utilization rollups. *)

type elephant = {
  eg : int;
  est : int;
  err : int;
  exact_bytes : int;
  within : bool;
}

val elephants : result -> n:int -> elephant list

val pp : Format.formatter -> result -> unit
(** The `elmo-sim top` snapshot table: utilization summary, hottest links,
    elephant groups vs exact, fast-path hit rate. *)
