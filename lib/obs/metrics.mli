(** Metrics registry: counters, gauges, and log2-bucketed histograms keyed
    by (primitive) string names. A registry is single-domain: it takes no
    lock, so only the domain that records into it may read it.

    Histogram quantiles reuse {!Stats.percentile}: the 64 log2 buckets are
    expanded into at most 4096 representative samples (exact when the count
    is below the cap, proportional otherwise) — p50/p95/p99 are therefore
    bucket-resolution approximations of the true quantiles. *)

type t

type hist_summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

type value = Counter of int | Gauge of float | Histogram of hist_summary

val create : unit -> t

val incr : ?n:int -> t -> string -> unit
(** Add [n] (default 1) to a counter. Raises [Invalid_argument] if the name
    is already bound to a different metric kind (same for the others). *)

val gauge : t -> string -> float -> unit
(** Set a gauge (last write wins). *)

val observe : t -> string -> float -> unit
(** Record a sample into a histogram. *)

val dump : t -> (string * value) list
(** Every metric, sorted by name. *)

val to_json : t -> string
(** One JSON object: counters as ints, gauges as floats, histograms as
    [{"count":..,"sum":..,"min":..,"max":..,"p50":..,"p95":..,"p99":..}]. *)

val bucket_bound : int -> float
(** Upper bound of log2 bucket [i]: 1.0 for bucket 0, [2^i] for [i >= 1].
    Bucket 0 holds samples [<= 1.0] (inclusive, and NaN); bucket [i >= 1]
    holds [(2^(i-1), 2^i)] with one wrinkle inherited from [Float.frexp]:
    an exact power of two [2^e] (for [e >= 1]) lands in bucket [e + 1], so
    the bound is exclusive there too. *)

val dump_buckets : t -> string -> (float * int) array option
(** Raw bucket counts of histogram [name] as
    [(bucket_bound i, count)] per bucket, or [None] if the name is unbound
    or not a histogram. Lets tests and exposition see the distribution, not
    just the p50/p95/p99 summary. *)

val expose : t -> string
(** Prometheus text-format exposition of {!dump}: each metric as
    [elmo_<name>] (punctuation folded to [_]) with a [# TYPE] line;
    histograms render cumulative [_bucket{le="..."}] lines (empty buckets
    elided) plus [_sum]/[_count]. *)

val pp : Format.formatter -> t -> unit
