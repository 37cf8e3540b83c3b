let log_src = Logs.Src.create "elmo.controller" ~doc:"Elmo controller events"

module Log = (val Logs.src_log log_src : Logs.LOG)
module Obs = Elmo_obs.Obs

type role = Sender | Receiver | Both

type updates = {
  hypervisors : int list;
  leaves : int list;
  pods : int list;
}

let no_updates = { hypervisors = []; leaves = []; pods = [] }

let merge_updates a b =
  {
    hypervisors = List.sort_uniq compare (a.hypervisors @ b.hypervisors);
    leaves = List.sort_uniq compare (a.leaves @ b.leaves);
    pods = List.sort_uniq compare (a.pods @ b.pods);
  }

let spine_update_count topo u = List.length u.pods * topo.Topology.spines_per_pod

type install_error = Timed_out | Refused

type fabric_hooks = {
  install_leaf :
    leaf:int -> group:int -> Bitmap.t -> (unit, install_error) result;
  remove_leaf : leaf:int -> group:int -> (unit, install_error) result;
  install_pod :
    pod:int -> group:int -> Bitmap.t -> (unit, install_error) result;
  remove_pod : pod:int -> group:int -> (unit, install_error) result;
  read_leaf : leaf:int -> group:int -> Bitmap.t option;
  read_pod : pod:int -> group:int -> Bitmap.t option;
}

(* Failure-time replacement for the multipath flags of a sender pod's
   upstream rules: explicit spine ports at the leaf, explicit core ports at
   the spine (§3.3). [unicast = true] marks an uncoverable pod whose senders
   degrade to unicast. *)
type override = Installed_config.override = {
  up_leaf_ports : Bitmap.t;
  up_spine_ports : Bitmap.t option;
  unicast : bool;
}

type group_state = {
  mutable members : (int * role) list;  (* assoc host -> role, insertion order *)
  mutable enc : Encoding.t option;
  applied : (int, override) Hashtbl.t;
      (* sender host -> override currently installed at its hypervisor; only
         flows whose ECMP choice traverses a failed switch get one *)
}

(* {1 Durable forms}

   The codecs of a group's checkpoint segment and its parts; the
   checkpoint itself is written and read at the end of this file. *)

(* A group's installed overrides, ascending by sender host. *)
let sorted_overrides st =
  Hashtbl.fold (fun host ov acc -> (host, ov) :: acc) st.applied []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let role_codec = Byteio.Codec.enum [| Sender; Receiver; Both |]

let site_codec ~topo =
  let open Byteio.Codec in
  variant
    [
      case
        (index (Topology.num_leaves topo))
        (fun l -> Srule_state.Leaf l)
        (function Srule_state.Leaf l -> Some l | Srule_state.Pod _ -> None);
      case (index topo.Topology.pods)
        (fun p -> Srule_state.Pod p)
        (function Srule_state.Pod p -> Some p | Srule_state.Leaf _ -> None);
    ]

let override_codec ~topo =
  let open Byteio.Codec in
  let+ up_leaf_ports =
    field
      (fun ov -> ov.up_leaf_ports)
      (bitmap ~width:(Topology.leaf_upstream_width topo))
  and+ up_spine_ports =
    field
      (fun ov -> ov.up_spine_ports)
      (option (bitmap ~width:(Topology.spine_upstream_width topo)))
  and+ unicast = field (fun ov -> ov.unicast) bool in
  { up_leaf_ports; up_spine_ports; unicast }

let receives = function Receiver | Both -> true | Sender -> false

(* The receiving hosts of a decoded member list, ascending, refusing a
   host that appears twice. The members stay in insertion order on the
   wire, so this sorts a copy: no scratch sized by the topology, whose
   dimensions a hostile snapshot chooses. *)
let decoded_receivers members =
  let rec go (prev : int) acc = function
    | [] -> Array.of_list (List.rev acc)
    | (h, r) :: rest ->
        Byteio.Reader.check (h <> prev);
        go h (if receives r then h :: acc else acc) rest
  in
  go (-1) [] (List.sort (fun (a, _) (b, _) -> Int.compare a b) members)

(* One group's segment: its gid, members, Algorithm 1's choices and
   overrides. The reader derives the encoding: the tree of the receivers,
   under the choices and the checkpoint's [params]. A group has an
   encoding exactly when it has a receiver. *)
let group_codec ~topo ~params =
  let open Byteio.Codec in
  let host = index (Topology.num_hosts topo) in
  let+ gid = field fst nat
  and+ members = field (fun (_, st) -> st.members) (list (pair host role_codec))
  and+ choices =
    field
      (fun (_, st) -> Option.map Encoding.choices st.enc)
      (option (Encoding.choices_codec topo))
  and+ overrides =
    field
      (fun (_, st) -> sorted_overrides st)
      (ascending fst (pair host (override_codec ~topo)))
  in
  let rcvs = decoded_receivers members in
  let enc =
    match choices with
    | None ->
        Byteio.Reader.check (Array.length rcvs = 0);
        None
    | Some c ->
        Byteio.Reader.check (Array.length rcvs > 0);
        Some (Encoding.of_choices params (Tree.of_sorted topo rcvs) c)
  in
  let applied = Hashtbl.create (max 1 (List.length overrides)) in
  List.iter (fun (h, ov) -> Hashtbl.replace applied h ov) overrides;
  (gid, { members; enc; applied })

type churn_stats = { fast_path : int; reencoded : int }

type install_stats = {
  attempts : int;
  retries : int;
  exhausted : int;
  degradations : int;
  compensations : int;
  stale_entries : int;
}

(* The controller's one counter block: [churn_stats], [install_stats]
   and the snapshot codec all read it, and each field is bumped in
   exactly one place. *)
type counters = {
  mutable fast_hits : int;
  mutable reencodes : int;
  mutable install_attempts : int;
  mutable install_retries : int;
  mutable install_exhausted : int;
  mutable degraded : int;
  mutable compensated : int;
}

type t = {
  topo : Topology.t;
  params : Params.t;
  srules : Srule_state.t;
  hooks : fabric_hooks option;
  clock : Elmo_obs.Clock.t;
  groups : (int, group_state) Hashtbl.t;
  counters : counters;
  spine_ok : bool array;
  core_ok : bool array;
  link_ok : bool array;  (* leaf <-> pod-spine links, index leaf * spp + plane *)
  mutable healthy : bool;
      (* every flag above is true; recomputed by [refresh_after] and
         [restore], the only places that follow a flag's change *)
  denied_leaf : bool array;
      (* switches whose s-rule installs exhausted the retry budget; excluded
         from s-rule eligibility until the controller is rebuilt *)
  denied_pod : bool array;
  mutable flags_copy :
    (bool array * bool array * bool array * bool array * bool array) option;
      (* [installed_config]'s copies of the five arrays above, shared by
         every view taken until one of them changes ([recompute_health] and
         [deny] drop it), so a view handed out never sees a later change
         and an event that changes none copies none *)
  stale : (int, int * Srule_state.site) Hashtbl.t;
      (* fabric entries whose removal exhausted the retry budget, keyed by
         [stale_key] (a primitive int combining group and site); the value
         is the (group, site) pair needed to reconcile the entry *)
  stale_stride : int;
  dirty : (int, unit) Hashtbl.t;
      (* groups whose installed view may have changed since the last
         [drain_dirty] — feeds the verify layer's predicate-cache
         invalidation *)
  generation : int ref;
      (* bumped by every [mark_dirty]: stamps [installed_config] views,
         which borrow the groups' live encodings and overrides *)
  mutable gids : int array;
      (* every group's gid, ascending, when [index] was built whole; views
         handed out share it, so it is replaced, never written *)
  mutable index : Installed_config.group_view Pvec.t;
      (* [installed_config]'s view of group [gids.(i)] in slot [i]: the
         sorted member arrays and override list beside the borrowed encoding.
         Built whole on the first call and after the group set changes,
         then kept: a call replaces only the slots [mark_dirty] marked *)
  mutable index_stale : Bitmap.t;
      (* one bit per slot: its group was marked since the slot was built *)
  mutable stale_slots : int list;  (* the set bits of [index_stale] *)
  mutable regroup : bool;
      (* a group was added or removed since [index] was built: the next
         call builds it whole, reusing the clean slots' views *)
  host_scratch : Bitmap.t;
      (* one bit per host: the counting sort of a group's hosts (the tree's
         receivers, the update's hypervisors, the view's member arrays) and the
         guard's duplicate check; all clear between calls, also after a
         guard raises *)
  segments : (int, bytes) Hashtbl.t;
      (* [write_snapshot]'s bytes of every group unchanged since they were
         last written; [mark_dirty] evicts it *)
  segment_codec : (int * group_state) Byteio.Codec.t;
}

let create ?fabric_hooks ?clock topo params =
  let clock =
    match clock with Some c -> c | None -> Elmo_obs.Clock.logical ()
  in
  {
    topo;
    params;
    srules = Srule_state.create topo ~fmax:params.Params.fmax;
    hooks = fabric_hooks;
    clock;
    groups = Hashtbl.create 1024;
    counters =
      {
        fast_hits = 0;
        reencodes = 0;
        install_attempts = 0;
        install_retries = 0;
        install_exhausted = 0;
        degraded = 0;
        compensated = 0;
      };
    spine_ok = Array.make (Topology.num_spines topo) true;
    core_ok = Array.make (max 1 (Topology.num_cores topo)) true;
    link_ok =
      Array.make (Topology.num_leaves topo * topo.Topology.spines_per_pod) true;
    healthy = true;
    denied_leaf = Array.make (Topology.num_leaves topo) false;
    denied_pod = Array.make topo.Topology.pods false;
    flags_copy = None;
    stale = Hashtbl.create 8;
    stale_stride =
      (2 * max (Topology.num_leaves topo) topo.Topology.pods) + 2;
    dirty = Hashtbl.create 64;
    generation = ref 0;
    gids = [||];
    index = Pvec.of_array [||];
    index_stale = Bitmap.create 0;
    stale_slots = [];
    regroup = true;
    host_scratch = Bitmap.create (Topology.num_hosts topo);
    segments = Hashtbl.create 1024;
    segment_codec = group_codec ~topo ~params;
  }

let topology t = t.topo
let params t = t.params
let srule_state t = t.srules

let sends = function Sender | Both -> true | Receiver -> false
let only_both = function Both -> true | Sender | Receiver -> false

let any_role (_ : role) = true

let senders st =
  List.filter_map (fun (h, r) -> if sends r then Some h else None) st.members

let find_group t group = Hashtbl.find t.groups group

(* {1 Sorted host lists}

   A group's hosts come out ascending through [t.host_scratch]: set the
   bits of the members whose role [keep] admits, then drain the span
   between the least and the greatest, which clears it for the next call.
   O(members + span / 63), no comparison sort. The members hold no host
   twice (the guard and the snapshot codec refuse repeats). *)

let rec sorted_hosts_from t keep lo hi = function
  | [] -> Bitmap.drain t.host_scratch ~lo ~hi
  | (h, r) :: rest ->
      if keep r then begin
        Bitmap.set t.host_scratch h;
        sorted_hosts_from t keep (Int.min lo h) (Int.max hi h) rest
      end
      else sorted_hosts_from t keep lo hi rest

let sorted_hosts t members keep = sorted_hosts_from t keep max_int (-1) members

(* The same read-out into a fresh array sized by the count, which
   [Tree.of_sorted] keeps as the tree's member buffer and a view as its
   member arrays. *)
let rec sorted_array_from t keep lo hi n = function
  | [] ->
      let a = Array.make n 0 in
      ignore (Bitmap.drain_into t.host_scratch ~lo ~hi a : int);
      a
  | (h, r) :: rest ->
      if keep r then begin
        Bitmap.set t.host_scratch h;
        sorted_array_from t keep (Int.min lo h) (Int.max hi h) (n + 1) rest
      end
      else sorted_array_from t keep lo hi n rest

let sorted_array t members keep = sorted_array_from t keep max_int (-1) 0 members

(* {1 Dirty-group tracking}

   Every mutation that can change a group's installed view — membership,
   encoding, overrides, stale markers — marks the group dirty. The verify
   layer drains the set to invalidate exactly the cached checks that
   could have changed, instead of re-checking every group after every
   event, [installed_config] rebuilds only the marked groups' slots of its
   gid-ordered index and [write_snapshot] re-encodes only their segments,
   so one event's view and re-check cost the groups it touched, not the
   group table. Each mark also bumps the generation counter, so every view
   taken before it stops being current. Marking is conservative: a marked
   group whose view happens to be unchanged merely costs one re-check, one
   re-sort and one segment. Adding or removing a group changes the index's
   shape; [regroup] then makes the next view one full build. *)

let mark_dirty t group =
  incr t.generation;
  Hashtbl.replace t.dirty group ();
  (let last = Array.length t.gids - 1 in
   let slot = Int_array.search t.gids group ~lo:0 ~hi:last in
   if slot >= 0 && not (Bitmap.get t.index_stale slot) then begin
     Bitmap.set t.index_stale slot;
     t.stale_slots <- slot :: t.stale_slots
   end);
  Hashtbl.remove t.segments group

let drain_dirty t =
  let gids = Hashtbl.fold (fun g () acc -> g :: acc) t.dirty [] in
  Hashtbl.reset t.dirty;
  List.sort Int.compare gids

let memoized_views t = Array.length t.gids - List.length t.stale_slots

(* {1 Reliable rule installation}

   Fabric hooks can fail — transiently (timeout, refusal) or silently (an
   acknowledged install that never landed). Every mutation therefore goes
   through [reliable]: perform, verify by read-back, and retry with
   exponential backoff on the controller's clock until the read-back
   confirms the intended state or the per-operation retry budget
   ([Params.install_retries]) is exhausted. Verification is what defines
   success: an install that was refused because the entry is already
   correct counts as done. *)

type fab_op =
  | Op_install_leaf of int * Bitmap.t
  | Op_remove_leaf of int
  | Op_install_pod of int * Bitmap.t
  | Op_remove_pod of int

let perform hooks ~group = function
  | Op_install_leaf (leaf, bm) -> hooks.install_leaf ~leaf ~group bm
  | Op_remove_leaf leaf -> hooks.remove_leaf ~leaf ~group
  | Op_install_pod (pod, bm) -> hooks.install_pod ~pod ~group bm
  | Op_remove_pod pod -> hooks.remove_pod ~pod ~group

let verified hooks ~group = function
  | Op_install_leaf (leaf, bm) -> (
      match hooks.read_leaf ~leaf ~group with
      | Some cur -> Bitmap.equal cur bm
      | None -> false)
  | Op_remove_leaf leaf -> Option.is_none (hooks.read_leaf ~leaf ~group)
  | Op_install_pod (pod, bm) -> (
      match hooks.read_pod ~pod ~group with
      | Some cur -> Bitmap.equal cur bm
      | None -> false)
  | Op_remove_pod pod -> Option.is_none (hooks.read_pod ~pod ~group)

(* Busy-wait on the controller's clock. On the default logical clock one
   read is one tick, so the wait is exactly [us] ticks — deterministic. *)
let backoff_wait t us =
  let deadline = Elmo_obs.Clock.now_us t.clock +. float_of_int us in
  while Elmo_obs.Clock.now_us t.clock < deadline do
    ()
  done

let reliable t hooks ~group op =
  let budget = t.params.Params.install_retries in
  let c = t.counters in
  let rec go attempt backoff =
    c.install_attempts <- c.install_attempts + 1;
    (match perform hooks ~group op with
    | Ok () -> ()
    | Error Timed_out -> Obs.incr "controller.install_timeouts"
    | Error Refused -> Obs.incr "controller.install_refusals");
    if verified hooks ~group op then Ok ()
    else if attempt >= budget then begin
      c.install_exhausted <- c.install_exhausted + 1;
      Error ()
    end
    else begin
      c.install_retries <- c.install_retries + 1;
      Obs.observe "controller.install_backoff_us" (float_of_int backoff);
      backoff_wait t backoff;
      go (attempt + 1) (backoff * 2)
    end
  in
  go 0 t.params.Params.install_backoff_us

(* {1 Stale fabric entries}

   A removal whose retry budget is exhausted leaves the old entry in the
   switch's group table, where it shadows the default p-rule for that group
   (the table is consulted before the default). Such entries are tracked as
   {e stale} markers and reconciled after every subsequent operation: retry
   the removal; failing that, overwrite the entry with the exact, truthful
   bitmap of the group's current tree at that switch (a compensating entry
   never misdelivers: it is precisely what the default rule would have the
   switch forward, or empty when the group no longer reaches the switch). *)

let stale_key t ~group site = (group * t.stale_stride) + Srule_state.site_key site
let mark_stale t ~group site =
  Obs.incr "controller.stale_marked";
  mark_dirty t group;
  Hashtbl.replace t.stale (stale_key t ~group site) (group, site)

let unmark_stale t ~group site =
  if Hashtbl.mem t.stale (stale_key t ~group site) then begin
    mark_dirty t group;
    Hashtbl.remove t.stale (stale_key t ~group site)
  end

(* {1 Encoding lifecycle} *)

let uninstall_enc t ~group enc =
  Encoding.release t.srules enc;
  match t.hooks with
  | None -> ()
  | Some hooks ->
      List.iter
        (fun (leaf, _) ->
          match reliable t hooks ~group (Op_remove_leaf leaf) with
          | Ok () -> unmark_stale t ~group (Srule_state.Leaf leaf)
          | Error () -> mark_stale t ~group (Srule_state.Leaf leaf))
        enc.Encoding.d_leaf.Clustering.srules;
      List.iter
        (fun (pod, _) ->
          match reliable t hooks ~group (Op_remove_pod pod) with
          | Ok () -> unmark_stale t ~group (Srule_state.Pod pod)
          | Error () -> mark_stale t ~group (Srule_state.Pod pod))
        enc.Encoding.d_spine.Clustering.srules

(* Returns the first switch whose install exhausted its retry budget, if
   any; a successful install at a site clears any stale marker there (the
   fresh entry overwrote it). *)
let install_enc t ~group enc =
  match t.hooks with
  | None -> Ok ()
  | Some hooks ->
      let rec leaves = function
        | [] -> Ok ()
        | (leaf, bm) :: rest -> (
            match reliable t hooks ~group (Op_install_leaf (leaf, bm)) with
            | Ok () ->
                unmark_stale t ~group (Srule_state.Leaf leaf);
                leaves rest
            | Error () -> Error (Srule_state.Leaf leaf))
      in
      let rec pods = function
        | [] -> Ok ()
        | (pod, bm) :: rest -> (
            match reliable t hooks ~group (Op_install_pod (pod, bm)) with
            | Ok () ->
                unmark_stale t ~group (Srule_state.Pod pod);
                pods rest
            | Error () -> Error (Srule_state.Pod pod))
      in
      (match leaves enc.Encoding.d_leaf.Clustering.srules with
      | Ok () -> pods enc.Encoding.d_spine.Clustering.srules
      | Error _ as e -> e)

(* {1 Failure-recovery upstream assignment (§3.3)} *)

let live_core_in_plane t plane =
  let cpp = t.topo.Topology.cores_per_plane in
  let rec go i =
    if i >= cpp then None
    else if t.core_ok.((plane * cpp) + i) then Some i
    else go (i + 1)
  in
  go 0

let plane_reaches_pod t plane pod =
  t.spine_ok.((pod * t.topo.Topology.spines_per_pod) + plane)

let link_alive t ~leaf ~plane =
  t.link_ok.((leaf * t.topo.Topology.spines_per_pod) + plane)

(* Does [f] hold for every leaf of [tree] in [pod] but [skip]? A pod's
   tree leaves are one run of the tree's ascending leaf slots. *)
let pod_leaves_all t (tree : Tree.t) ~pod ~skip f =
  let ids = tree.Tree.leaf_ids in
  let n = Array.length ids in
  let lpp = t.topo.Topology.leaves_per_pod in
  let stop = (pod + 1) * lpp in
  let rec from s =
    s >= n || ids.(s) >= stop || ((ids.(s) = skip || f ids.(s)) && from (s + 1))
  in
  from (Int_array.lower_bound ids (pod * lpp) ~lo:0 ~hi:(n - 1))

(* Can plane [pl] deliver to every receiver leaf of [tree] inside pod [p]?
   (Switch up, plus every spine->leaf link of the pod's participating
   leaves, excluding [skip_leaf] — the sender's own leaf, already served.) *)
let plane_serves_pod t tree ~plane ~pod ~skip_leaf =
  plane_reaches_pod t plane pod
  && pod_leaves_all t tree ~pod ~skip:skip_leaf (fun l -> link_alive t ~leaf:l ~plane)

(* Failure-time upstream assignment (§3.3). Preference order:

   1. A single plane that reaches the sender's spine, every receiver leaf
      (links included) and, for cross-pod trees, a live core and every
      target pod — exactly-once delivery, no redundancy.
   2. A greedy set cover by several planes whose reachable pods jointly
      cover the targets (the paper's "one or more spines and cores such
      that the union of reachable hosts covers all recipients"). Leaves
      reachable through more than one chosen plane receive duplicates,
      which the transport above deduplicates.
   3. Unicast fallback at the hypervisor. *)
let choose_upstream t ~tree ~sender =
  let spp = t.topo.Topology.spines_per_pod in
  let sl = Topology.leaf_of_host t.topo sender in
  let sp = Topology.pod_of_leaf t.topo sl in
  let target_pods = List.filter (fun p -> p <> sp) (Tree.pods tree) in
  let planes = List.init spp (fun i -> i) in
  let uplink_ok pl = link_alive t ~leaf:sl ~plane:pl in
  let plane_fully_serves pl =
    uplink_ok pl
    && plane_serves_pod t tree ~plane:pl ~pod:sp ~skip_leaf:sl
    && (target_pods = []
       || (live_core_in_plane t pl <> None
          && List.for_all
               (fun p -> plane_serves_pod t tree ~plane:pl ~pod:p ~skip_leaf:(-1))
               target_pods))
  in
  match List.find_opt plane_fully_serves planes with
  | Some pl ->
      let up_leaf_ports = Bitmap.create spp in
      Bitmap.set up_leaf_ports pl;
      let up_spine_ports =
        if target_pods = [] then None
        else begin
          let ports = Bitmap.create t.topo.Topology.cores_per_plane in
          Bitmap.set ports (Option.get (live_core_in_plane t pl));
          Some ports
        end
      in
      Some { up_leaf_ports; up_spine_ports; unicast = false }
  | None ->
      (* Multi-plane greedy cover over target pods; in-pod leaves must be
         reachable through at least one chosen plane. *)
      let usable =
        List.filter_map
          (fun pl ->
            if not (uplink_ok pl && plane_reaches_pod t pl sp) then None
            else
              match live_core_in_plane t pl with
              | None -> None
              | Some core_port ->
                  let covered =
                    List.filter
                      (fun p ->
                        plane_serves_pod t tree ~plane:pl ~pod:p ~skip_leaf:(-1))
                      target_pods
                  in
                  Some (pl, core_port, covered))
          planes
      in
      let rec cover remaining chosen =
        if remaining = [] then Some (List.rev chosen)
        else begin
          let best =
            List.fold_left
              (fun acc ((_, _, covered) as cand) ->
                let gain =
                  List.length (List.filter (fun p -> Int_list.mem p remaining) covered)
                in
                match acc with
                | Some (best_gain, _) when best_gain >= gain -> acc
                | _ when gain = 0 -> acc
                | _ -> Some (gain, cand))
              None usable
          in
          match best with
          | None -> None
          | Some (_, ((_, _, covered) as cand)) ->
              let remaining =
                List.filter (fun p -> not (Int_list.mem p covered)) remaining
              in
              cover remaining (cand :: chosen)
        end
      in
      let in_pod_leaves_covered chosen =
        pod_leaves_all t tree ~pod:sp ~skip:sl (fun l ->
            List.exists (fun (pl, _, _) -> link_alive t ~leaf:l ~plane:pl) chosen)
      in
      let unicast_override =
        { up_leaf_ports = Bitmap.create spp; up_spine_ports = None; unicast = true }
      in
      (match cover target_pods [] with
      | Some chosen when chosen <> [] && in_pod_leaves_covered chosen ->
          let up_leaf_ports = Bitmap.create spp in
          let up_spine_ports = Bitmap.create t.topo.Topology.cores_per_plane in
          List.iter
            (fun (pl, core_port, _) ->
              Bitmap.set up_leaf_ports pl;
              Bitmap.set up_spine_ports core_port)
            chosen;
          Some
            {
              up_leaf_ports;
              up_spine_ports =
                (if target_pods = [] then None else Some up_spine_ports);
              unicast = false;
            }
      | Some _ | None -> Some unicast_override)

let recompute_health t =
  t.flags_copy <- None;
  t.healthy <-
    Array.for_all Fun.id t.spine_ok
    && Array.for_all Fun.id t.core_ok
    && Array.for_all Fun.id t.link_ok

let all_healthy t = t.healthy

(* Does the (group, sender) flow's ECMP path traverse a failed switch or
   link? This is the paper's notion of an "impacted" group member: only
   those flows need their multipath flag disabled. *)
let flow_impacted t ~group tree ~sender =
  let topo = t.topo in
  let sl = Topology.leaf_of_host topo sender in
  let sp = Topology.pod_of_leaf topo sl in
  let beyond_leaf =
    Tree.spans_other_pod tree sp || Tree.spans_other_leaf_in_pod tree sl
  in
  beyond_leaf
  &&
  let hash = Ecmp.flow_hash ~group ~sender in
  let plane = Ecmp.spine_choice topo ~hash in
  (not (link_alive t ~leaf:sl ~plane))
  || (not (plane_serves_pod t tree ~plane ~pod:sp ~skip_leaf:sl))
  ||
  let target_pods = List.filter (fun p -> p <> sp) (Tree.pods tree) in
  target_pods <> []
  && (not t.core_ok.(Ecmp.core_choice topo ~hash ~plane)
     || List.exists
          (fun p -> not (plane_serves_pod t tree ~plane ~pod:p ~skip_leaf:(-1)))
          target_pods)

let refresh_overrides t ~group st =
  mark_dirty t group;
  Hashtbl.reset st.applied;
  match st.enc with
  | None -> ()
  | Some enc ->
      if not (all_healthy t) then begin
        let tree = enc.Encoding.tree in
        List.iter
          (fun sender ->
            if flow_impacted t ~group tree ~sender then begin
              let ov =
                match choose_upstream t ~tree ~sender with
                | Some ov -> ov
                | None ->
                    {
                      up_leaf_ports =
                        Bitmap.create t.topo.Topology.spines_per_pod;
                      up_spine_ports = None;
                      unicast = true;
                    }
              in
              Hashtbl.replace st.applied sender ov
            end)
          (senders st)
      end

let override_equal a b =
  Bitmap.equal a.up_leaf_ports b.up_leaf_ports
  && a.unicast = b.unicast
  &&
  match (a.up_spine_ports, b.up_spine_ports) with
  | None, None -> true
  | Some x, Some y -> Bitmap.equal x y
  | None, Some _ | Some _, None -> false

(* [refresh_overrides], returning the senders whose override appeared,
   changed or was withdrawn (multipath re-enabled): their headers changed,
   so their hypervisors must be updated. *)
let refresh_overrides_diff t ~group st =
  let before = Hashtbl.copy st.applied in
  refresh_overrides t ~group st;
  let changed =
    Hashtbl.fold
      (fun host ov acc ->
        match Hashtbl.find_opt before host with
        | Some old when override_equal old ov -> acc
        | Some _ | None -> host :: acc)
      st.applied []
  in
  Hashtbl.fold
    (fun host _ acc -> if Hashtbl.mem st.applied host then acc else host :: acc)
    before changed

(* After a membership change: the senders whose override changed, when an
   override is live or the fabric is degraded; nothing to do otherwise. *)
let changed_overrides t ~group st =
  if Hashtbl.length st.applied > 0 || not (all_healthy t) then
    refresh_overrides_diff t ~group st
  else []

(* {1 Group encoding and diffing} *)

let srule_ok_leaf t l = not t.denied_leaf.(l)
let srule_ok_pod t p = not t.denied_pod.(p)

(* Deny a switch whose install exhausted its retry budget. *)
let deny t site =
  t.counters.degraded <- t.counters.degraded + 1;
  t.flags_copy <- None;
  match site with
  | Srule_state.Leaf l -> t.denied_leaf.(l) <- true
  | Srule_state.Pod p -> t.denied_pod.(p) <- true

let encode_group t st =
  let rcvs = sorted_array t st.members receives in
  if Array.length rcvs = 0 then st.enc <- None
  else begin
    let tree = Tree.of_sorted t.topo rcvs in
    st.enc <-
      Some
        (Encoding.encode
           ~srule_ok_leaf:(srule_ok_leaf t)
           ~srule_ok_pod:(srule_ok_pod t) t.params t.srules tree)
  end

(* Graceful degradation: install the encoding's s-rules; when a switch's
   install permanently fails, mark it denied, re-encode the group with the
   switch excluded from s-rule eligibility (its traffic folds into p-rules
   or the default p-rule — extra transmissions, no dependence on the
   unreachable switch) and start over. Terminates because each iteration
   denies at least one more switch; with every switch denied the encoding
   needs no fabric state at all. *)
let rec install_with_degrade t ~group st =
  match st.enc with
  | None -> ()
  | Some enc -> (
      match install_enc t ~group enc with
      | Ok () -> ()
      | Error site ->
          Log.info (fun m ->
              m "group %d: installs on %s keep failing; degrading it to the \
                 default p-rule"
                group
                (match site with
                | Srule_state.Leaf l -> Printf.sprintf "leaf %d" l
                | Srule_state.Pod p -> Printf.sprintf "pod %d" p));
          deny t site;
          uninstall_enc t ~group enc;
          encode_group t st;
          install_with_degrade t ~group st)

(* The exact bitmap the group's current tree wants at [site] — what a
   compensating overwrite of an unremovable entry must hold: the tree's
   own, which the fabric copies on install. Empty (correct width) when the
   group is gone or no longer reaches the switch. *)
let truthful_bitmap t ~group site =
  let tree =
    match Hashtbl.find_opt t.groups group with
    | Some { enc = Some e; _ } -> Some e.Encoding.tree
    | Some { enc = None; _ } | None -> None
  in
  let exact, width =
    match site with
    | Srule_state.Leaf l ->
        ( Option.bind tree (fun tr -> Tree.leaf_bitmap tr l),
          Topology.leaf_downstream_width t.topo )
    | Srule_state.Pod p ->
        ( Option.bind tree (fun tr -> Tree.spine_bitmap tr p),
          Topology.spine_downstream_width t.topo )
  in
  match exact with Some bm -> bm | None -> Bitmap.create width

(* Reconcile stale fabric entries, called after every public mutation (the
   common case — no stale entries — is a single hash-table length test).
   For each marker: retry the removal; failing that, if the entry does not
   already hold the truthful bitmap, overwrite it with a compensating
   install. A marker survives until its removal finally succeeds (or the
   site is overwritten by a later s-rule install of the same group). *)
let reconcile t =
  if Hashtbl.length t.stale > 0 then
    match t.hooks with
    | None -> Hashtbl.reset t.stale
    | Some hooks ->
        let entries =
          Hashtbl.fold (fun key e acc -> (key, e) :: acc) t.stale []
          |> List.sort (fun (k1, _) (k2, _) -> compare k1 k2)
        in
        List.iter
          (fun (_, (group, site)) ->
            let remove_op =
              match site with
              | Srule_state.Leaf l -> Op_remove_leaf l
              | Srule_state.Pod p -> Op_remove_pod p
            in
            match reliable t hooks ~group remove_op with
            | Ok () -> unmark_stale t ~group site
            | Error () -> (
                let truth = truthful_bitmap t ~group site in
                let current =
                  match site with
                  | Srule_state.Leaf l -> hooks.read_leaf ~leaf:l ~group
                  | Srule_state.Pod p -> hooks.read_pod ~pod:p ~group
                in
                let already_truthful =
                  match current with
                  | Some cur -> Bitmap.equal cur truth
                  | None -> false
                in
                if not already_truthful then
                  let install_op =
                    match site with
                    | Srule_state.Leaf l -> Op_install_leaf (l, truth)
                    | Srule_state.Pod p -> Op_install_pod (p, truth)
                  in
                  match reliable t hooks ~group install_op with
                  | Ok () ->
                      t.counters.compensated <- t.counters.compensated + 1
                  | Error () ->
                      (* Entry content unknown until the next reconcile;
                         surfaced via [install_stats.stale_entries]. *)
                      Obs.incr "controller.reconcile_failed"))
          entries

let srule_diff old_srules new_srules =
  let changed =
    List.filter
      (fun (id, bm) ->
        match Int_list.assoc_opt id old_srules with
        | Some bm' -> not (Bitmap.equal bm bm')
        | None -> true)
      new_srules
    |> List.map fst
  in
  let removed =
    List.filter (fun (id, _) -> not (Int_list.mem_assoc id new_srules)) old_srules
    |> List.map fst
  in
  List.sort_uniq compare (changed @ removed)

let clustering_equal (a : Clustering.result) (b : Clustering.result) =
  List.equal Prule.equal a.Clustering.prules b.Clustering.prules
  && Clustering.equal_default a.Clustering.default b.Clustering.default

(* Senders whose headers change when the tree changes but the common
   downstream sections do not: locality-based (§3.1 D2b-c). *)
let affected_senders t old_tree new_tree senders =
  (* A tree's core bitmap is its pod set. *)
  let pods_changed (tr1 : Tree.t) (tr2 : Tree.t) =
    not (Bitmap.equal tr1.Tree.core_bitmap tr2.Tree.core_bitmap)
  in
  (* One merge walk of the two trees' leaf slots: the leaves on one tree
     only, and those whose bitmaps differ, ascending. *)
  let changed_leaves (tr1 : Tree.t) (tr2 : Tree.t) =
    let ids1 = tr1.Tree.leaf_ids and ids2 = tr2.Tree.leaf_ids in
    let n1 = Array.length ids1 and n2 = Array.length ids2 in
    let rec walk i j acc =
      if i = n1 && j = n2 then List.rev acc
      else if j = n2 || (i < n1 && ids1.(i) < ids2.(j)) then walk (i + 1) j (ids1.(i) :: acc)
      else if i = n1 || ids2.(j) < ids1.(i) then walk i (j + 1) (ids2.(j) :: acc)
      else
        walk (i + 1) (j + 1)
          (if Bitmap.equal tr1.Tree.leaf_bms.(i) tr2.Tree.leaf_bms.(j) then acc
           else ids1.(i) :: acc)
    in
    walk 0 0 []
  in
  match (old_tree, new_tree) with
  | None, _ | _, None -> senders
  | Some ot, Some nt ->
      if pods_changed ot nt then senders
      else begin
        let leaves = changed_leaves ot nt in
        let pods =
          List.sort_uniq compare (List.map (Topology.pod_of_leaf t.topo) leaves)
        in
        List.filter
          (fun h ->
            Int_list.mem (Topology.leaf_of_host t.topo h) leaves
            || Int_list.mem (Topology.pod_of_host t.topo h) pods)
          senders
      end

let reencode t ~group st ~changed_host =
  Obs.with_span "controller.reencode" ~attrs:[ ("group", Obs.Int group) ]
  @@ fun () ->
  let old_enc = st.enc in
  let old_tree = Option.map (fun e -> e.Encoding.tree) old_enc in
  (match old_enc with Some e -> uninstall_enc t ~group e | None -> ());
  encode_group t st;
  install_with_degrade t ~group st;
  (match (old_enc, st.enc) with
  | Some from, Some enc -> Encoding.inherit_caches ~from enc
  | None, _ | _, None -> ());
  let overridden = changed_overrides t ~group st in
  let new_tree = Option.map (fun e -> e.Encoding.tree) st.enc in
  let common_changed =
    match (old_enc, st.enc) with
    | Some a, Some b ->
        (not (clustering_equal a.Encoding.d_spine b.Encoding.d_spine))
        || not (clustering_equal a.Encoding.d_leaf b.Encoding.d_leaf)
    | None, Some _ | Some _, None -> true
    | None, None -> false
  in
  let sender_hosts = senders st in
  let hyp =
    if common_changed then sender_hosts
    else affected_senders t old_tree new_tree sender_hosts
  in
  let srules layer = function
    | Some e -> (layer e).Clustering.srules
    | None -> []
  in
  let leaf_layer e = e.Encoding.d_leaf and spine_layer e = e.Encoding.d_spine in
  {
    hypervisors = List.sort_uniq Int.compare ((changed_host :: hyp) @ overridden);
    leaves = srule_diff (srules leaf_layer old_enc) (srules leaf_layer st.enc);
    pods = srule_diff (srules spine_layer old_enc) (srules spine_layer st.enc);
  }

(* {1 Incremental fast path} *)

(* Absorb a single receiver join/leave through the encoding's delta fast
   path (no re-clustering). Returns [None] when the engine demands a full
   re-encode; the caller then falls back to {!reencode}. The fallback is
   safe because [Encoding.apply_delta] mutates nothing before returning
   [Reencode _], so the old encoding still reflects the old membership and
   the diff in {!reencode} stays honest. *)
let try_fast_delta t ~group st ~host ~joining =
  match st.enc with
  | None -> None
  | Some enc -> (
      let dleaf = Topology.leaf_of_host t.topo host in
      let delta = Encoding.delta_of_host t.topo ~joining host in
      match Encoding.apply_delta enc delta with
      | Encoding.Reencode reason ->
          Log.debug (fun m ->
              m "group %d: fast path declined (%s); re-encoding" group
                (match reason with
                | Encoding.New_leaf -> "new leaf"
                | Encoding.Emptied_leaf -> "emptied leaf"
                | Encoding.Budget_exceeded -> "budget exceeded"
                | Encoding.Stale -> "stale"));
          None
      | Encoding.Applied a ->
          let mirror_ok =
            match (a.Encoding.site, t.hooks) with
            | Encoding.Site_srule, Some hooks -> (
                let bm =
                  enc.Encoding.idx_site_bm.(Tree.leaf_slot enc.Encoding.tree dleaf)
                in
                match
                  reliable t hooks ~group (Op_install_leaf (dleaf, bm))
                with
                | Ok () ->
                    unmark_stale t ~group (Srule_state.Leaf dleaf);
                    true
                | Error () ->
                    (* The leaf stopped accepting installs mid-run: deny it
                       and fall back to a full re-encode, which will fold
                       its traffic into the default p-rule. *)
                    deny t (Srule_state.Leaf dleaf);
                    false)
            | _ -> true
          in
          if not mirror_ok then None
          else begin
          t.counters.fast_hits <- t.counters.fast_hits + 1;
          if Hashtbl.length st.applied > 0 || not (all_healthy t) then
            refresh_overrides t ~group st;
          (* Upstream rules only depend on the tree's leaf and pod sets,
             which the fast path never changes — so when the common
             downstream section is untouched, only senders co-located on
             the flipped leaf (their own downstream leaf rule embeds its
             port bitmap) need fresh headers. The failure overrides
             depend on the same sets, so none changes. *)
          let hyp = Bitmap.create (Topology.num_hosts t.topo) in
          Bitmap.set hyp host;
          List.iter
            (fun (h, r) ->
              match r with
              | Receiver -> ()
              | Sender | Both ->
                  if
                    a.Encoding.header_changed
                    || Topology.leaf_of_host t.topo h = dleaf
                  then Bitmap.set hyp h)
            st.members;
          Some
            {
              hypervisors = Bitmap.to_list hyp;
              leaves =
                (match a.Encoding.site with
                | Encoding.Site_srule -> [ dleaf ]
                | Encoding.Site_prule | Encoding.Site_default -> []);
              pods = [];
            }
          end)

(* {1 Public group lifecycle} *)

exception Invariant_violation of string

(* Opt-in runtime invariant checking: with ELMO_DEBUG_INVARIANTS set, every
   mutating operation re-verifies the s-rule ledger against the installed
   encodings. The environment is consulted once, lazily, so the disabled
   path costs a single boolean test. *)
let debug_invariants =
  lazy
    (match Sys.getenv_opt "ELMO_DEBUG_INVARIANTS" with
    | Some ("1" | "true" | "yes" | "on") -> true
    | _ -> false)

let check_invariants t ~op =
  if Lazy.force debug_invariants && not (Srule_state.check t.srules) then
    raise
      (Invariant_violation
         (Printf.sprintf
            "Controller.%s: s-rule ledger diverged from installed encodings"
            op))

(* {1 Membership guards}

   Each membership entry point's API-misuse checks, run before it touches
   any state. They are exposed so that a write-ahead log can refuse an op
   before recording it. *)

(* An out-of-range host raises [Topology]'s own error, through the one
   call made only then. *)
let rec mark_distinct ~op t nhosts = function
  | [] -> ()
  | (h, _) :: rest ->
      if h < 0 || h >= nhosts then ignore (Topology.leaf_of_host t.topo h : int);
      if Bitmap.get t.host_scratch h then
        invalid_arg (op ^ ": duplicate member host"); (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
      Bitmap.set t.host_scratch h;
      mark_distinct ~op t nhosts rest

(* Clears every in-range member's bit. After [mark_distinct] stopped
   anywhere, that is exactly the bits it set: the scratch was clear
   before, and a bit it did not reach stays clear. *)
let rec unmark t nhosts = function
  | [] -> ()
  | (h, _) :: rest ->
      if h >= 0 && h < nhosts then Bitmap.clear t.host_scratch h;
      unmark t nhosts rest

(* [op] names the entry point in the raised message. One bit per host in
   the controller's scratch: a replica runs this guard before its entry
   point runs it again, so it must cost O(members), not a sort, and it
   leaves the scratch clear whether it returns or raises. *)
let check_new_group ~op t ~group members =
  if Hashtbl.mem t.groups group then
    invalid_arg (op ^ ": group exists"); (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
  let nhosts = Bitmap.width t.host_scratch in
  match mark_distinct ~op t nhosts members with
  | () -> unmark t nhosts members
  | exception e ->
      unmark t nhosts members;
      raise e

let check_add_group t ~group members =
  check_new_group ~op:"Controller.add_group" t ~group members

let check_remove_group t ~group = ignore (find_group t group : group_state)

let check_join t ~group ~host =
  if Int_list.mem_assoc host (find_group t group).members then
    invalid_arg "Controller.join: host already a member" (* elmo-lint: allow exception-discipline — documented API-misuse guard *)

let check_leave t ~group ~host =
  if not (Int_list.mem_assoc host (find_group t group).members) then
    raise Not_found

let srule_sites st =
  match st.enc with
  | Some e ->
      ( List.map fst e.Encoding.d_leaf.Clustering.srules,
        List.map fst e.Encoding.d_spine.Clustering.srules )
  | None -> ([], [])

(* Installs a group whose guard has passed; [add_group] and [install_all]
   share it. *)
let install_group t ~group members =
  Log.debug (fun m -> m "add_group %d with %d members" group (List.length members));
  Obs.with_span "controller.add_group" @@ fun () ->
  let st = { members; enc = None; applied = Hashtbl.create 1 } in
  Hashtbl.add t.groups group st;
  t.regroup <- true;
  mark_dirty t group;
  encode_group t st;
  install_with_degrade t ~group st;
  if not (all_healthy t) then refresh_overrides t ~group st;
  reconcile t;
  check_invariants t ~op:"add_group";
  st

let add_group t ~group members =
  check_new_group ~op:"Controller.add_group" t ~group members;
  let st = install_group t ~group members in
  let leaves, pods = srule_sites st in
  { hypervisors = sorted_hosts t members any_role; leaves; pods }

let rec set_hosts bm = function
  | [] -> ()
  | (h, _) :: rest ->
      Bitmap.set bm h;
      set_hosts bm rest

(* Batch group setup (§5.1.3's controller workload): one pass of
   Algorithm 1 per group against the live s-rule ledger, in ascending gid
   order. The whole batch is checked first, so a bad group anywhere in it
   raises before the first group is installed. The merged updates are
   kept as bitmaps (hosts, leaves, pods), so no list is sorted per group. *)
let install_all t batch =
  let batch = List.sort (fun (g1, _) (g2, _) -> Int.compare g1 g2) batch in
  let hosts = Bitmap.create (Topology.num_hosts t.topo) in
  let rec validate = function
    | [] -> ()
    | (group, members) :: rest ->
        (match rest with
        | (next, _) :: _ when next = group ->
            invalid_arg "Controller.install_all: group exists" (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
        | _ -> ());
        check_new_group ~op:"Controller.install_all" t ~group members;
        set_hosts hosts members;
        validate rest
  in
  validate batch;
  Log.debug (fun m -> m "install_all: %d groups" (List.length batch));
  Obs.with_span "controller.install_all"
    ~attrs:[ ("groups", Obs.Int (List.length batch)) ]
  @@ fun () ->
  let leaves = Bitmap.create (Topology.num_leaves t.topo) in
  let pods = Bitmap.create t.topo.Topology.pods in
  List.iter
    (fun (group, members) ->
      let srule_leaves, srule_pods = srule_sites (install_group t ~group members) in
      List.iter (Bitmap.set leaves) srule_leaves;
      List.iter (Bitmap.set pods) srule_pods)
    batch;
  {
    hypervisors = Bitmap.to_list hosts;
    leaves = Bitmap.to_list leaves;
    pods = Bitmap.to_list pods;
  }

(* Every batch group is encoded against the live ledger, so no reservation
   is ever invalidated. *)
let batch_conflicts _ = 0

let remove_group t ~group =
  let st = find_group t group in
  (match st.enc with Some e -> uninstall_enc t ~group e | None -> ());
  let srule_leaves, srule_pods = srule_sites st in
  Hashtbl.remove t.groups group;
  t.regroup <- true;
  mark_dirty t group;
  reconcile t;
  check_invariants t ~op:"remove_group";
  {
    hypervisors = sorted_hosts t st.members any_role;
    leaves = srule_leaves;
    pods = srule_pods;
  }

(* A join or leave, once [st.members] has changed. A sender's tree is
   unchanged: only its own encap rule is (un)installed, and under a
   failure its override is set or dropped. A receiver event tries the fast
   path and falls back to a full re-encode. *)
let member_event t ~group st ~host ~role ~joining =
  let u =
    match role with
    | Sender ->
        {
          hypervisors =
            List.sort_uniq Int.compare (host :: changed_overrides t ~group st);
          leaves = [];
          pods = [];
        }
    | Receiver | Both -> (
        match try_fast_delta t ~group st ~host ~joining with
        | Some u -> u
        | None ->
            t.counters.reencodes <- t.counters.reencodes + 1;
            reencode t ~group st ~changed_host:host)
  in
  reconcile t;
  check_invariants t ~op:(if joining then "join" else "leave");
  u

let join t ~group ~host ~role =
  check_join t ~group ~host;
  let st = find_group t group in
  Obs.with_span "controller.join"
    ~attrs:[ ("group", Obs.Int group); ("host", Obs.Int host) ]
  @@ fun () ->
  mark_dirty t group;
  st.members <- st.members @ [ (host, role) ];
  member_event t ~group st ~host ~role ~joining:true

let leave t ~group ~host =
  check_leave t ~group ~host;
  let st = find_group t group in
  let role = Int_list.assoc host st.members in
  Obs.with_span "controller.leave"
    ~attrs:[ ("group", Obs.Int group); ("host", Obs.Int host) ]
  @@ fun () ->
  mark_dirty t group;
  st.members <- Int_list.remove_assoc host st.members;
  member_event t ~group st ~host ~role ~joining:false

let encoding t ~group = (find_group t group).enc
let members t ~group = (find_group t group).members
let group_count t = Hashtbl.length t.groups

let churn_stats t =
  { fast_path = t.counters.fast_hits; reencoded = t.counters.reencodes }

let install_stats t =
  let c = t.counters in
  {
    attempts = c.install_attempts;
    retries = c.install_retries;
    exhausted = c.install_exhausted;
    degradations = c.degraded;
    compensations = c.compensated;
    stale_entries = Hashtbl.length t.stale;
  }

let header t ~group ~sender =
  let st = find_group t group in
  match st.enc with
  | None -> None
  | Some enc -> (
      let base = Encoding.header_for_sender enc ~sender in
      match Hashtbl.find_opt st.applied sender with
      | None -> Some base
      | Some ov when ov.unicast -> None
      | Some ov ->
          let u_leaf =
            if base.Prule.u_leaf.Prule.multipath then
              {
                base.Prule.u_leaf with
                Prule.multipath = false;
                up = ov.up_leaf_ports;
              }
            else base.Prule.u_leaf
          in
          let u_spine =
            match (base.Prule.u_spine, ov.up_spine_ports) with
            | Some u, Some ports when u.Prule.multipath ->
                Some { u with Prule.multipath = false; up = ports }
            | u, _ -> u
          in
          Some { base with Prule.u_leaf; u_spine })

(* {1 Failure events} *)

type failure_report = {
  affected_groups : int;
  hypervisors_updated : int;
  rule_updates_mean : float;
  rule_updates_max : int;
  unicast_fallbacks : int;
}

let refresh_all t =
  let affected = ref 0 in
  let hyp_hosts = Hashtbl.create 256 in
  let unicast = ref 0 in
  Hashtbl.iter
    (fun group st ->
      let changed = refresh_overrides_diff t ~group st in
      if changed <> [] then begin
        incr affected;
        List.iter
          (fun h ->
            Hashtbl.replace hyp_hosts h
              (1 + Option.value ~default:0 (Hashtbl.find_opt hyp_hosts h)))
          changed;
        if Hashtbl.fold (fun _ ov acc -> acc || ov.unicast) st.applied false
        then incr unicast
      end)
    t.groups;
  let hosts = Hashtbl.length hyp_hosts in
  let total = Hashtbl.fold (fun _ n acc -> acc + n) hyp_hosts 0 in
  let max_per_host = Hashtbl.fold (fun _ n acc -> max acc n) hyp_hosts 0 in
  {
    affected_groups = !affected;
    hypervisors_updated = hosts;
    rule_updates_mean =
      (if hosts = 0 then 0.0 else float_of_int total /. float_of_int hosts);
    rule_updates_max = max_per_host;
    unicast_fallbacks = !unicast;
  }

(* Failure and recovery events only rewrite hypervisor overrides — the
   s-rule ledger is untouched — but the invariant re-check after each one is
   cheap and catches any drift introduced while the fabric was degraded. *)
let refresh_after t ~op =
  recompute_health t;
  let r = refresh_all t in
  check_invariants t ~op;
  r

let fail_spine t s =
  Log.info (fun m -> m "spine %d failed; recomputing upstream assignments" s);
  t.spine_ok.(s) <- false;
  refresh_after t ~op:"fail_spine"

let recover_spine t s =
  t.spine_ok.(s) <- true;
  refresh_after t ~op:"recover_spine"

let fail_core t c =
  Log.info (fun m -> m "core %d failed; recomputing upstream assignments" c);
  t.core_ok.(c) <- false;
  refresh_after t ~op:"fail_core"

let link_index t ~leaf ~plane =
  if
    leaf < 0
    || leaf >= Topology.num_leaves t.topo
    || plane < 0
    || plane >= t.topo.Topology.spines_per_pod
  then invalid_arg "Controller: link out of range"; (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
  (leaf * t.topo.Topology.spines_per_pod) + plane

let fail_link t ~leaf ~plane =
  Log.info (fun m ->
      m "link leaf %d <-> plane %d failed; recomputing upstream assignments"
        leaf plane);
  t.link_ok.(link_index t ~leaf ~plane) <- false;
  refresh_after t ~op:"fail_link"

let recover_link t ~leaf ~plane =
  t.link_ok.(link_index t ~leaf ~plane) <- true;
  refresh_after t ~op:"recover_link"

let recover_core t c =
  t.core_ok.(c) <- true;
  refresh_after t ~op:"recover_core"

(* {1 Installed-configuration views}

   The read-only [Installed_config.t] view feeds the symbolic verification layer
   ([lib/verify]). Each group's view borrows the group's live encoding
   and override records; its sorted member arrays and override list live in the
   gid-ordered [index] until [mark_dirty] marks the slot, so successive
   views share the records of unchanged groups. The index is persistent:
   replacing a slot copies one path of it, so a call costs the marked
   slots, and a view already handed out never changes. Each view is
   stamped with the generation counter, which [mark_dirty] bumps, so a
   view read after a mutation is refused instead of seeing half-old,
   half-new state. *)

(* The member arrays come from the membership, never from the encoder's
   tree, so the check stays independent of what it checks. When every
   member is [Both] the two are equal and share one array. *)
let build_view t gid st =
  let receivers = sorted_array t st.members receives in
  let senders =
    if List.for_all (fun (_, r) -> only_both r) st.members then receivers
    else sorted_array t st.members sends
  in
  {
    Installed_config.gid;
    receivers;
    senders;
    enc = st.enc;
    overrides = sorted_overrides st;
  }

let no_view =
  {
    Installed_config.gid = -1;
    receivers = [||];
    senders = [||];
    enc = None;
    overrides = [];
  }

(* One fold over the group table and one sort by gid; a group whose slot
   in the old index is clean keeps its view record. *)
let build_index t =
  let views = Array.make (Hashtbl.length t.groups) no_view in
  let old_gids = t.gids in
  let last = Array.length old_gids - 1 in
  ignore
    (Hashtbl.fold
       (fun gid st i ->
         let slot = Int_array.search old_gids gid ~lo:0 ~hi:last in
         views.(i) <-
           (if slot >= 0 && not (Bitmap.get t.index_stale slot) then
              Pvec.get t.index slot
            else build_view t gid st);
         i + 1)
       t.groups 0
      : int);
  Array.sort
    (fun (a : Installed_config.group_view) b -> Int.compare a.gid b.gid)
    views;
  t.gids <- Array.map (fun (v : Installed_config.group_view) -> v.gid) views;
  t.index <- Pvec.of_array views;
  t.index_stale <- Bitmap.create (Array.length views);
  t.stale_slots <- [];
  t.regroup <- false

let refresh_index t =
  List.iter
    (fun slot ->
      let gid = t.gids.(slot) in
      t.index <- Pvec.set t.index slot (build_view t gid (find_group t gid));
      Bitmap.clear t.index_stale slot)
    t.stale_slots;
  t.stale_slots <- []

let flags_copy t =
  match t.flags_copy with
  | Some c -> c
  | None ->
      let c =
        Array.(copy t.spine_ok, copy t.core_ok, copy t.link_ok,
               copy t.denied_leaf, copy t.denied_pod)
      in
      t.flags_copy <- Some c;
      c

let installed_config t =
  if t.regroup then build_index t else refresh_index t;
  let spine_ok, core_ok, link_ok, denied_leaf, denied_pod = flags_copy t in
  Installed_config.of_index ~generation:t.generation ~spine_ok ~core_ok
    ~link_ok ~denied_leaf ~denied_pod
    ~stale_sites:(Hashtbl.fold (fun _ e acc -> e :: acc) t.stale [])
    t.topo t.params ~gids:t.gids t.index

(* {1 Crash-consistent checkpoints}

   A checkpoint is the byte-level form of everything recovery needs to
   continue bit-identically, each fact stated once: the params,
   membership, Algorithm 1's choices per encoding (see
   {!Encoding.of_choices}), installed overrides, health/denial state,
   stale markers and the counter block. Trees, rule bitmaps and the
   s-rule ledger are derived on read. [write_snapshot] writes it straight
   from the live controller;
   each group's segment is memoized until [mark_dirty] evicts it, so a
   checkpoint encodes only the groups changed since the previous one.

   [read_snapshot] decodes one into fresh values, each group with the
   bytes it was read from, and [restore] takes them as the new
   controller's own, once; the bytes become its memoized segments.
   Restoring does {e not} re-emit
   fabric installs: the fabric's state survives a controller crash, and
   the journal replay that follows a restore re-issues exactly the
   operations the crashed controller had not yet checkpointed.

   [read_snapshot] is a hostile-input boundary: every switch and host id,
   array length, and stale key is validated against the topology decoded
   from the same record — in particular the boolean state arrays, which
   the restored controller indexes by switch — and every bitmap is read
   at the width that topology gives it. Gids, override hosts
   and stale keys must be strictly ascending, so a repeated entry cannot
   shadow or silently replace another. Only states the controller can
   reach decode: no member host twice, an encoding exactly when a group
   has receivers, rules naming each tree switch exactly once, and at most
   [fmax] s-rules per switch. All violations raise
   [Byteio.Reader.Corrupt], which Wire.load turns into fallback to the
   previous good snapshot. *)

type snapshot = {
  snap_topo : Topology.t;
  snap_params : Params.t;
  snap_groups : ((int * group_state) * bytes) list;
      (* ascending by gid, each with the bytes it was decoded from *)
  snap_srules : Srule_state.t;  (* derived from the groups' s-rules *)
  snap_counters : counters;
  snap_spine_ok : bool array;
  snap_core_ok : bool array;
  snap_link_ok : bool array;
  snap_denied_leaf : bool array;
  snap_denied_pod : bool array;
  snap_stale : (int * (int * Srule_state.site)) list;
  mutable snap_restored : bool;
}

(* A stale entry's key is derived state: the reader recomputes it and
   refuses a stored key that differs. *)
let stale_codec ~topo =
  let open Byteio.Codec in
  let stride = (2 * max (Topology.num_leaves topo) topo.Topology.pods) + 2 in
  where
    (fun (key, (group, site)) ->
      key = (group * stride) + Srule_state.site_key site)
    (pair int (pair nat (site_codec ~topo)))

(* A group's segment depends on the group alone, so it is encoded once
   per change of the group and blitted by every later checkpoint. *)
let encode_segment t gid st = Byteio.Codec.to_bytes t.segment_codec.write (gid, st)

let segment t gid st =
  match Hashtbl.find_opt t.segments gid with
  | Some b -> b
  | None ->
      let b = encode_segment t gid st in
      Hashtbl.replace t.segments gid b;
      b

let flags_codec n = Byteio.Codec.(array ~len:n bool)

(* [segment] gives each group's bytes: the memo for a checkpoint, a
   fresh encoding for the oracle. *)
let write_with segment w t =
  let open Byteio.Codec in
  let topo = t.topo in
  Topology.codec.write w topo;
  Params.codec.write w t.params;
  Hashtbl.fold (fun gid st acc -> ((gid, st), segment t gid st) :: acc) t.groups []
  |> List.sort (fun ((a, _), _) ((b, _), _) -> Int.compare a b)
  |> (list (with_bytes t.segment_codec)).write w;
  let c = t.counters in
  int.write w c.fast_hits;
  int.write w c.reencodes;
  let flags a = (flags_codec (Array.length a)).write w a in
  flags t.spine_ok;
  flags t.core_ok;
  flags t.link_ok;
  flags t.denied_leaf;
  flags t.denied_pod;
  Hashtbl.fold (fun key e acc -> (key, e) :: acc) t.stale []
  |> List.sort (fun (k1, _) (k2, _) -> Int.compare k1 k2)
  |> (list (stale_codec ~topo)).write w;
  int.write w c.install_attempts;
  int.write w c.install_retries;
  int.write w c.install_exhausted;
  int.write w c.degraded;
  int.write w c.compensated

let write_snapshot = write_with segment

let write_snapshot_cold = write_with encode_segment

let memoized_segments t = Hashtbl.length t.segments

let snapshot_topology snap = snap.snap_topo

(* The ledger the groups' encodings imply: one entry per s-rule at its
   switch, refused above [fmax]. *)
let derived_ledger topo params groups =
  let srules = Srule_state.create topo ~fmax:params.Params.fmax in
  match
    List.iter
      (fun ((_, st), _) -> Option.iter (Encoding.reserve srules) st.enc)
      groups
  with
  | () -> srules
  | exception Srule_state.Full _ -> raise Byteio.Reader.Corrupt

let read_snapshot r =
  let open Byteio.Codec in
  let topo = Topology.codec.read r in
  let params = Params.codec.read r in
  let groups =
    (ascending
       (fun ((gid, _), _) -> gid)
       (with_bytes (group_codec ~topo ~params)))
      .read r
  in
  let srules = derived_ledger topo params groups in
  let fast_hits = int.read r in
  let reencodes = int.read r in
  let flags n = (flags_codec n).read r in
  let spine_ok = flags (Topology.num_spines topo) in
  let core_ok = flags (max 1 (Topology.num_cores topo)) in
  let link_ok =
    flags (Topology.num_leaves topo * topo.Topology.spines_per_pod)
  in
  let denied_leaf = flags (Topology.num_leaves topo) in
  let denied_pod = flags topo.Topology.pods in
  let stale = (ascending fst (stale_codec ~topo)).read r in
  let install_attempts = int.read r in
  let install_retries = int.read r in
  let install_exhausted = int.read r in
  let degraded = int.read r in
  let compensated = int.read r in
  {
    snap_topo = topo;
    snap_params = params;
    snap_groups = groups;
    snap_srules = srules;
    snap_counters =
      {
        fast_hits;
        reencodes;
        install_attempts;
        install_retries;
        install_exhausted;
        degraded;
        compensated;
      };
    snap_spine_ok = spine_ok;
    snap_core_ok = core_ok;
    snap_link_ok = link_ok;
    snap_denied_leaf = denied_leaf;
    snap_denied_pod = denied_pod;
    snap_stale = stale;
    snap_restored = false;
  }

let restore ?fabric_hooks ?clock snap =
  if snap.snap_restored then
    invalid_arg "Controller.restore: snapshot already restored"; (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
  snap.snap_restored <- true;
  let t =
    {
      (create ?fabric_hooks ?clock snap.snap_topo snap.snap_params)
      with
      srules = snap.snap_srules;
      counters = snap.snap_counters;
      spine_ok = snap.snap_spine_ok;
      core_ok = snap.snap_core_ok;
      link_ok = snap.snap_link_ok;
      denied_leaf = snap.snap_denied_leaf;
      denied_pod = snap.snap_denied_pod;
    }
  in
  recompute_health t;
  List.iter (fun ((gid, st), _) -> Hashtbl.add t.groups gid st) snap.snap_groups;
  List.iter (fun (key, e) -> Hashtbl.replace t.stale key e) snap.snap_stale;
  (* A restored controller is a new instance: any predicate cache keyed to
     it starts cold, and every group counts as dirty until drained. *)
  Hashtbl.iter (fun g _ -> mark_dirty t g) t.groups;
  (* Canonical decoding makes each group's decoded bytes its encoding, so
     they seed the segment memo: the next checkpoint blits them. *)
  List.iter (fun ((gid, _), b) -> Hashtbl.replace t.segments gid b) snap.snap_groups;
  t
