module Obs = Elmo_obs.Obs

type site = Leaf of int | Pod of int

exception Full of site
exception Underflow of site

let () =
  Printexc.register_printer (function
    | Full (Leaf l) -> Some (Printf.sprintf "Srule_state.Full (Leaf %d)" l)
    | Full (Pod p) -> Some (Printf.sprintf "Srule_state.Full (Pod %d)" p)
    | Underflow (Leaf l) -> Some (Printf.sprintf "Srule_state.Underflow (Leaf %d)" l)
    | Underflow (Pod p) -> Some (Printf.sprintf "Srule_state.Underflow (Pod %d)" p)
    | _ -> None)

type t = {
  topo : Topology.t;
  fmax : int;
  leaf_used : int array;
  pod_used : int array;
}

let create topo ~fmax =
  if fmax < 0 then invalid_arg "Srule_state.create: fmax must be non-negative"; (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
  {
    topo;
    fmax;
    leaf_used = Array.make (Topology.num_leaves topo) 0;
    pod_used = Array.make topo.Topology.pods 0;
  }

let copy t =
  {
    t with
    leaf_used = Array.copy t.leaf_used;
    pod_used = Array.copy t.pod_used;
  }

let fmax t = t.fmax
let leaf_has_space t l = t.leaf_used.(l) < t.fmax
let pod_has_space t p = t.pod_used.(p) < t.fmax

let reserve_leaf t l =
  if not (leaf_has_space t l) then raise (Full (Leaf l));
  t.leaf_used.(l) <- t.leaf_used.(l) + 1

let reserve_pod t p =
  if not (pod_has_space t p) then raise (Full (Pod p));
  t.pod_used.(p) <- t.pod_used.(p) + 1

let release_leaf t l =
  if t.leaf_used.(l) <= 0 then raise (Underflow (Leaf l));
  t.leaf_used.(l) <- t.leaf_used.(l) - 1

let release_pod t p =
  if t.pod_used.(p) <= 0 then raise (Underflow (Pod p));
  t.pod_used.(p) <- t.pod_used.(p) - 1

let leaf_used t l = t.leaf_used.(l)
let pod_used t p = t.pod_used.(p)
let leaf_occupancy t = Array.copy t.leaf_used

let spine_occupancy t =
  Array.init (Topology.num_spines t.topo) (fun s ->
      t.pod_used.(s / t.topo.Topology.spines_per_pod))

let total_srules t =
  Array.fold_left ( + ) 0 t.leaf_used
  + (Array.fold_left ( + ) 0 t.pod_used * t.topo.Topology.spines_per_pod)

let check t =
  let ok used = Array.for_all (fun u -> 0 <= u && u <= t.fmax) used in
  ok t.leaf_used && ok t.pod_used

(* Durable wire codec: the occupancy arrays are dimensioned by the
   topology, so [read] takes the already-decoded topology and validates the
   persisted array lengths against it — a short corrupt array must not
   silently partial-restore. *)
let write w t =
  Byteio.Writer.int w t.fmax;
  Byteio.Writer.int_array w t.leaf_used;
  Byteio.Writer.int_array w t.pod_used

let read ~topo r =
  let fmax = Byteio.Reader.int r in
  let leaf_used = Byteio.Reader.int_array r in
  let pod_used = Byteio.Reader.int_array r in
  Byteio.Reader.check (fmax >= 0);
  Byteio.Reader.check (Array.length leaf_used = Topology.num_leaves topo);
  Byteio.Reader.check (Array.length pod_used = topo.Topology.pods);
  let t = { topo; fmax; leaf_used; pod_used } in
  Byteio.Reader.check (check t);
  t

(* {1 Snapshot / reserve / commit}

   A transaction probes capacity against a frozen snapshot plus its own
   reservations, recording every probe's answer. Commit replays the probe
   log against the live ledger: if every answer still holds, the encode
   that drove the probes would have made the identical decisions against
   the live ledger, so its reservations are applied wholesale; the first
   diverging answer aborts the commit with the offending site and leaves
   the ledger untouched. *)

type snapshot = {
  snap_fmax : int;
  snap_leaf : int array;
  snap_pod : int array;
}

let snapshot t =
  {
    snap_fmax = t.fmax;
    snap_leaf = Array.copy t.leaf_used;
    snap_pod = Array.copy t.pod_used;
  }

(* Primitive key for a [site]: leaves on even slots, pods on odd. The txn
   hot path carries keys, never the variant — constructing [Leaf l] with a
   runtime [l] would allocate. *)
let site_key = function Leaf l -> 2 * l | Pod p -> (2 * p) + 1
let site_of_key k = if k land 1 = 0 then Leaf (k lsr 1) else Pod (k lsr 1)

(* Probe log and reservation set as preallocated parallel arrays: a probe
   appends one site key and one answer byte and bumps one sparse counter,
   all in place. Buffer doubling is the only (cold, amortized) allocation
   on the probe path. [x_replay] is commit's scratch so replay does not
   allocate either. *)
type txn = {
  snap : snapshot;
  mutable p_sites : int array;  (* probe log: site keys, in probe order *)
  mutable p_granted : Bytes.t;  (* probe log: answers; '\001' = granted *)
  mutable p_n : int;
  mutable x_sites : int array;  (* reservations: site keys (sparse) *)
  mutable x_counts : int array;  (* reservations: per-site counts *)
  mutable x_replay : int array;  (* commit replay scratch, same keys *)
  mutable x_n : int;
  mutable closed : bool;
}

let txn snap =
  {
    snap;
    p_sites = Array.make 16 0;
    p_granted = Bytes.make 16 '\000';
    p_n = 0;
    x_sites = Array.make 8 0;
    x_counts = Array.make 8 0;
    x_replay = Array.make 8 0;
    x_n = 0;
    closed = false;
  }

(* Index of [key] in the txn's sparse reservation set, or -1. A group
   touches a handful of switches, so the linear scan beats any table. *)
(* elmo-lint: zero-alloc *)
let rec x_find (keys : int array) n key i =
  if i >= n then -1
  else if Array.unsafe_get keys i = key then i
  else x_find keys n key (i + 1)

let grow_log txn =
  let cap = 2 * Array.length txn.p_sites in
  let sites = Array.make cap 0 in
  Array.blit txn.p_sites 0 sites 0 txn.p_n;
  txn.p_sites <- sites;
  let granted = Bytes.make cap '\000' in
  Bytes.blit txn.p_granted 0 granted 0 txn.p_n;
  txn.p_granted <- granted

let grow_extra txn =
  let cap = 2 * Array.length txn.x_sites in
  let grow a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 txn.x_n;
    b
  in
  txn.x_sites <- grow txn.x_sites;
  txn.x_counts <- grow txn.x_counts;
  txn.x_replay <- grow txn.x_replay

(* elmo-lint: zero-alloc *)
let txn_probe txn key base_used =
  if txn.closed then
    (* elmo-lint: allow zero-alloc — API-misuse guard: raising allocates, cold *)
    invalid_arg "Srule_state: transaction already committed"; (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
  let xi = x_find txn.x_sites txn.x_n key 0 in
  let extra = if xi >= 0 then Array.unsafe_get txn.x_counts xi else 0 in
  let granted = base_used + extra < txn.snap.snap_fmax in
  if txn.p_n >= Array.length txn.p_sites then
    (* elmo-lint: allow zero-alloc — cold probe-log doubling, amortized *)
    grow_log txn;
  Array.unsafe_set txn.p_sites txn.p_n key;
  Bytes.unsafe_set txn.p_granted txn.p_n (if granted then '\001' else '\000');
  txn.p_n <- txn.p_n + 1;
  if granted then
    if xi >= 0 then Array.unsafe_set txn.x_counts xi (extra + 1)
    else begin
      if txn.x_n >= Array.length txn.x_sites then
        (* elmo-lint: allow zero-alloc — cold reservation-set doubling, amortized *)
        grow_extra txn;
      Array.unsafe_set txn.x_sites txn.x_n key;
      Array.unsafe_set txn.x_counts txn.x_n 1;
      txn.x_n <- txn.x_n + 1
    end;
  granted

(* elmo-lint: zero-alloc *)
let txn_reserve_leaf txn l = txn_probe txn (2 * l) txn.snap.snap_leaf.(l)

(* elmo-lint: zero-alloc *)
let txn_reserve_pod txn p = txn_probe txn ((2 * p) + 1) txn.snap.snap_pod.(p)

let txn_reserved txn =
  let s = ref 0 in
  for i = 0 to txn.x_n - 1 do
    s := !s + txn.x_counts.(i)
  done;
  !s

(* elmo-lint: zero-alloc *)
let live_used t key =
  if key land 1 = 0 then Array.unsafe_get t.leaf_used (key lsr 1)
  else Array.unsafe_get t.pod_used (key lsr 1)

(* Replay probe [i..]: the replay extra counts live in the txn's own
   [x_replay] scratch (zeroed by the caller), looked up through the same
   sparse key set — a key absent from [x_sites] was never granted, so its
   replay extra is always 0. *)
(* elmo-lint: zero-alloc *)
let rec replay_probes t txn i =
  if i >= txn.p_n then Ok ()
  else begin
    let k = Array.unsafe_get txn.p_sites i in
    let xi = x_find txn.x_sites txn.x_n k 0 in
    let e = if xi >= 0 then Array.unsafe_get txn.x_replay xi else 0 in
    let granted = Bytes.unsafe_get txn.p_granted i = '\001' in
    let granted' = live_used t k + e < t.fmax in
    if granted' <> granted then
      (* elmo-lint: allow zero-alloc — conflict path: reporting the site allocates *)
      Error (site_of_key k)
    else begin
      (* [granted] implies [xi >= 0]: the original run reserved this key. *)
      if granted then Array.unsafe_set txn.x_replay xi (e + 1);
      replay_probes t txn (i + 1)
    end
  end

(* elmo-lint: zero-alloc *)
let commit_impl t txn =
  Array.fill txn.x_replay 0 txn.x_n 0;
  let result = replay_probes t txn 0 in
  (match result with
  | Ok () ->
      for xi = 0 to txn.x_n - 1 do
        let k = Array.unsafe_get txn.x_sites xi in
        let n = Array.unsafe_get txn.x_counts xi in
        if k land 1 = 0 then begin
          let l = k lsr 1 in
          Array.unsafe_set t.leaf_used l (Array.unsafe_get t.leaf_used l + n)
        end
        else begin
          let p = k lsr 1 in
          Array.unsafe_set t.pod_used p (Array.unsafe_get t.pod_used p + n)
        end
      done
  | Error _ -> Obs.incr "srule.commit_conflicts");
  txn.closed <- true;
  result

let commit t txn =
  if txn.closed then invalid_arg "Srule_state.commit: transaction already committed"; (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
  Obs.with_span "srule.commit" @@ fun () ->
  Obs.incr "srule.commits";
  Obs.observe "srule.txn_probes" (float_of_int txn.p_n);
  commit_impl t txn
