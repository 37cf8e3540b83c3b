(** Deterministic fault injection between {!Controller} and {!Fabric}.

    Wraps a fabric's perfect hooks so that every s-rule install or removal
    can transiently time out, be refused, or be {e silently dropped}
    (acknowledged but never applied) according to a seeded {!Rng}-driven
    schedule — or a scripted one for tests. Read-backs are never faulted:
    queries are idempotent and cheap to repeat, and they are what the
    controller's reliable installation path uses to detect every lie the
    mutation path tells.

    Orthogonally to the per-operation schedule, individual switches can be
    {e wedged}: their group table refuses all new installs (a wedged
    flow-table pipeline) while removals still work. Wedging is what drives
    the controller's graceful degradation — installs on a wedged switch
    exhaust their retry budget and the switch is excluded from s-rule
    eligibility. Removals are only ever {e transiently} faulty, so stale
    entries are always eventually removed or compensated; a switch whose
    management plane is permanently unreachable while holding state would
    need data-plane assistance (entry timeouts) that Elmo does not model. *)

type outcome =
  | Applied  (** performed and acknowledged *)
  | Timeout  (** not performed; [Error Timed_out] *)
  | Refused  (** not performed; [Error Refused] *)
  | Dropped  (** {b not} performed, yet acknowledged [Ok] *)

type schedule =
  | Reliable  (** every operation applies — the identity wrapper *)
  | Random of { rng : Rng.t; timeout : float; refuse : float; drop : float }
      (** independent per-operation outcome probabilities; the remainder
          applies *)
  | Scripted of outcome list
      (** consumed one outcome per mutation, in operation order; [Applied]
          once exhausted. Wedged-switch refusals do not consume outcomes. *)

type t

val create : ?schedule:schedule -> Fabric.t -> t
(** Default schedule: {!Reliable}. *)

val random : Rng.t -> rate:float -> schedule
(** Convenience mix for an overall fault rate: half the faults are
    timeouts, a quarter refusals, a quarter silent drops. *)

val hooks : t -> Controller.fabric_hooks
(** The faulted hooks to hand to {!Controller.create}. *)

val wedge_leaf : t -> int -> bool -> unit
(** [wedge_leaf t l true] makes leaf [l] refuse all subsequent installs
    (removals unaffected) until un-wedged. *)

val wedge_pod : t -> int -> bool -> unit

type stats = {
  attempts : int;  (** mutations attempted through the wrapper *)
  applied : int;
  timeouts : int;
  refusals : int;  (** schedule refusals plus wedged-switch refusals *)
  drops : int;
}

val stats : t -> stats
