(** Fixed-size reusable pool of worker domains (OCaml 5 [Domain] + [Mutex] +
    [Condition]; no dependencies).

    A pool spawns its workers once and feeds them closures through a shared
    queue, so repeated {!map} calls amortize the domain-spawn cost — the
    batch-encoding control plane runs one pool across many batches. Results
    are written by index, so a map's output order never depends on worker
    scheduling. *)

type t

type probe = {
  prb_now : unit -> float;
      (** timestamp source; called on the submitting domain at enqueue and on
          the executing worker around each chunk, so it must read a clock
          those domains share *)
  prb_chunk : queue_us:float -> run_us:float -> items:int -> unit;
      (** called on the worker after each chunk with its queue latency,
          execution time and item count *)
}
(** Observability hook for {!map}: the pool stays dependency-free, the caller
    (e.g. [Elmo_obs.Obs.pool_probe]) supplies the clock and the sink. *)

val create : ?worker_init:(int -> unit) -> ?worker_exit:(unit -> unit) -> int -> t
(** [create n] spawns [n] worker domains ([n >= 1]; raises
    [Invalid_argument] otherwise). Call {!shutdown} when done — live domains
    are a bounded resource.

    [worker_init i] runs first on worker [i] (e.g. installing a per-domain
    observability shard); [worker_exit] runs on the worker just before it
    terminates — even if a submitted closure raised — so per-domain state can
    be merged back exactly once per worker. Both default to no-ops. *)

val size : t -> int

val map : ?chunk:int -> ?probe:probe -> t -> ('a -> 'b) -> 'a array -> 'b array
(** [map pool f arr] applies [f] to every element on the pool's workers and
    returns the results in input order. The input is split into [chunk]-size
    slices (default: ~4 chunks per worker). The caller blocks until every
    chunk completes. [f] must not touch the pool. An empty input returns
    [[||]] without touching the workers.

    If one or more applications raise, the exception of the lowest-index
    failing chunk is re-raised in the caller after all chunks have drained
    — deterministic regardless of scheduling — and the pool remains
    usable. *)

val submit : t -> (unit -> unit) -> unit
(** Fire-and-forget task. Raises [Invalid_argument] after {!shutdown}. *)

val shutdown : t -> unit
(** Drains queued tasks, stops and joins all workers. Idempotent. *)

val with_pool :
  ?worker_init:(int -> unit) -> ?worker_exit:(unit -> unit) -> int ->
  (t -> 'a) -> 'a
(** [with_pool n f] runs [f] with a fresh pool and always shuts it down
    (joining the workers, so every [worker_exit] has completed on return). *)
