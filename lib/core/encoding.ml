module Obs = Elmo_obs.Obs

type t = {
  mutable tree : Tree.t;
  params : Params.t;
  d_spine : Clustering.result;
  d_leaf : Clustering.result;
  mutable stale : int;
  (* Fast-path leaf index, built by every from-scratch encode (and by
     the codec's reader), sized by the tree, not the fabric: [idx_leaves]
     holds the tree's leaves in ascending order, and a leaf's slot is its
     position there (found by [slot], a binary search). Per slot,
     [idx_kind] holds one dispatch byte; the arrays hold the leaf's exact
     tree bitmap, its p-rule (when in one), and the site bitmap to mutate.
     Absent entries carry the shared dummies. *)
  idx_leaves : int array;
  idx_kind : Bytes.t;
  idx_exact : Bitmap.t array;
  idx_rule : Prule.prule array;
  idx_site_bm : Bitmap.t array;
  (* Reusable scratch bitmaps (leaf downstream width) for the prospective
     budget check and rule refreshes — the fast path never allocates. *)
  scratch_a : Bitmap.t;
  scratch_b : Bitmap.t;
  (* The downstream sections every sender's header shares: built from
     copies of the rule bitmaps by the first [header_for_sender] of this
     version, marked stale by every committed fast-path mutation. The next
     down reuses the stale one's copies of the rules that did not change. *)
  mutable down : Prule.down option;
  mutable down_stale : bool;
  (* The header parts that depend only on the sender's leaf, allocated by
     the first [header_for_sender]. *)
  mutable upper : memo option;
}

(* One slot per tree leaf, as in the leaf index; a slot holds [blank]
   until its leaf's first header. Sender leaves the tree does not span
   (sender-only members) are kept in [off_tree], by leaf id. The fast
   path never changes the leaf or pod set, so a filled entry stays right
   for as long as the encoding lives. Every header shares the two empty
   up-port bitmaps. *)
and memo = {
  slots : upper array;
  mutable off_tree : (int * upper) list;
  leaf_up : Bitmap.t;
  spine_up : Bitmap.t;
}

and upper = {
  multipath : bool;
  u_spine : Prule.uprule option;
  core : Bitmap.t option;
}

exception Internal_error of string

(* Leaf dispatch bytes for [idx_kind]. *)
let kind_none = '\000'
let kind_prule = '\001'
let kind_srule = '\002'
let kind_default = '\003'

let dummy_bm = Bitmap.create 0
let dummy_prule = { Prule.bitmap = dummy_bm; switches = [] }
let blank = { multipath = false; u_spine = None; core = None }

(* The position of leaf [l] in the ascending [leaves], or -1 when the
   tree does not span it. *)
(* elmo-lint: zero-alloc *)
let slot_in leaves l = Int_array.search leaves l ~lo:0 ~hi:(Array.length leaves - 1)

(* Build the slot-indexed dispatch index of [d_leaf] over [tree]. Write
   order default → s-rules → p-rules so a p-rule wins any (never
   expected) overlap — the same precedence the old list-scan dispatch
   had. Every rule switch is a tree leaf: clustering runs over the
   tree's leaves, and the codec's reader refuses any other. *)
let build_index (d_leaf : Clustering.result) (tree : Tree.t) =
  let n = List.length tree.Tree.leaf_bitmaps in
  let idx_leaves = Array.make n 0 in
  let idx_kind = Bytes.make n kind_none in
  let idx_exact = Array.make n dummy_bm in
  List.iteri
    (fun s (l, bm) ->
      idx_leaves.(s) <- l;
      idx_exact.(s) <- bm)
    tree.Tree.leaf_bitmaps;
  let idx_rule = Array.make n dummy_prule in
  let idx_site_bm = Array.make n dummy_bm in
  let mark l kind bm =
    let s = slot_in idx_leaves l in
    Bytes.set idx_kind s kind;
    idx_site_bm.(s) <- bm;
    s
  in
  (match d_leaf.Clustering.default with
  | Some (ids, bm) -> List.iter (fun l -> ignore (mark l kind_default bm)) ids
  | None -> ());
  List.iter
    (fun (l, bm) -> ignore (mark l kind_srule bm))
    d_leaf.Clustering.srules;
  List.iter
    (fun r ->
      List.iter
        (fun l ->
          let s = mark l kind_prule r.Prule.bitmap in
          idx_rule.(s) <- r)
        r.Prule.switches)
    d_leaf.Clustering.prules;
  (idx_leaves, idx_kind, idx_exact, idx_rule, idx_site_bm)

(* Per-group Hmax within the byte budget (§3.2): worst-case rule sizes are
   known a priori (Kmax identifiers each), the upstream and core sections are
   fixed-size, and one default bitmap per layer is reserved. Spine rules are
   budgeted first (a tree has at most [pods] of them); leaves get the rest. *)
let budgeted_hmax topo (params : Params.t) tree =
  match params.Params.header_budget with
  | None -> (params.Params.hmax_spine, params.Params.hmax_leaf)
  | Some budget_bytes ->
      let total = budget_bytes * 8 in
      let spine_rule = Prule.prule_bits topo `Spine ~nswitches:params.Params.kmax in
      let leaf_rule = Prule.prule_bits topo `Leaf ~nswitches:params.Params.kmax in
      let fixed =
        Prule.uprule_bits
          ~down_width:(Topology.leaf_downstream_width topo)
          ~up_width:(Topology.leaf_upstream_width topo)
        + 1
        + (if Topology.is_two_tier topo then 0
           else
             Prule.uprule_bits
               ~down_width:(Topology.spine_downstream_width topo)
               ~up_width:(Topology.spine_upstream_width topo))
        + 1
        + Topology.core_downstream_width topo
        + (2 * 1) (* section terminators *)
        + Prule.default_rule_bits topo `Spine
        + Prule.default_rule_bits topo `Leaf
      in
      let available = max 0 (total - fixed) in
      let hmax_spine =
        min params.Params.hmax_spine
          (max 1 (min (Tree.pod_count tree) (available / spine_rule)))
      in
      let hmax_leaf =
        min params.Params.hmax_leaf
          (max 1 ((available - (hmax_spine * spine_rule)) / leaf_rule))
      in
      (hmax_spine, hmax_leaf)

let no_legacy _ = false
let all_ok _ = true

let rec any_legacy legacy = function
  | [] -> false
  | ((id : int), _) :: rest -> legacy id || any_legacy legacy rest

(* Merge the clustering of modern switches with forced s-rules (or default
   fallback) for legacy ones. A layer with no legacy switch is clustered
   as it is, without a partitioned copy. *)
let with_legacy ~legacy ~reserve layer cluster =
  if not (any_legacy legacy layer) then cluster layer
  else begin
    let legacy_switches, modern = List.partition (fun (id, _) -> legacy id) layer in
    let res = cluster modern in
    List.fold_left
      (fun acc (id, bm) ->
        if reserve id then { acc with Clustering.srules = (id, bm) :: acc.Clustering.srules }
        else begin
          let default =
            match acc.Clustering.default with
            | None -> Some ([ id ], Bitmap.copy bm)
            | Some (ids, dbm) ->
                Bitmap.union_into ~dst:dbm bm;
                Some (id :: ids, dbm)
          in
          { acc with Clustering.default }
        end)
      res legacy_switches
  end

(* The only external state a group encode consults is switch capacity, on
   the live ledger: every probe that finds space reserves it at once.
   Everything else is a pure function of (params, tree). *)
let encode ?(legacy_leaf = no_legacy) ?(legacy_pod = no_legacy)
    ?(srule_ok_leaf = all_ok) ?(srule_ok_pod = all_ok) (params : Params.t)
    srules tree =
  Obs.with_span "encoding.encode" @@ fun () ->
  (* Eligibility is checked before the capacity probe (short-circuit), so a
     switch the controller has degraded is never probed: its traffic is
     folded into the default p-rule as if the switch were full. *)
  let reserve_leaf l =
    srule_ok_leaf l
    && Srule_state.leaf_has_space srules l
    && (Srule_state.reserve_leaf srules l; true)
  in
  let reserve_pod p =
    srule_ok_pod p
    && Srule_state.pod_has_space srules p
    && (Srule_state.reserve_pod srules p; true)
  in
  let hmax_spine, hmax_leaf = budgeted_hmax tree.Tree.topo params tree in
  let d_leaf =
    with_legacy ~legacy:legacy_leaf ~reserve:reserve_leaf tree.Tree.leaf_bitmaps
      (Clustering.run ~r:params.r ~semantics:params.r_semantics ~hmax:hmax_leaf
         ~kmax:params.kmax ~has_srule_space:reserve_leaf)
  in
  let d_spine =
    (* On a two-tier fabric the only spine a packet visits is the sender's,
       which forwards on the upstream rule — no downstream spine rules are
       ever consulted. *)
    if Topology.is_two_tier tree.Tree.topo then
      { Clustering.prules = []; srules = []; default = None }
    else
      with_legacy ~legacy:legacy_pod ~reserve:reserve_pod tree.Tree.spine_bitmaps
        (Clustering.run ~r:params.r ~semantics:params.r_semantics
           ~hmax:hmax_spine ~kmax:params.kmax ~has_srule_space:reserve_pod)
  in
  let idx_leaves, idx_kind, idx_exact, idx_rule, idx_site_bm =
    build_index d_leaf tree
  in
  let scratch_width = Topology.leaf_downstream_width tree.Tree.topo in
  {
    tree;
    params;
    d_spine;
    d_leaf;
    stale = 0;
    idx_leaves;
    idx_kind;
    idx_exact;
    idx_rule;
    idx_site_bm;
    scratch_a = Bitmap.create scratch_width;
    scratch_b = Bitmap.create scratch_width;
    down = None;
    down_stale = false;
    upper = None;
  }

(* {1 Incremental deltas (§3.3 rule-update locality)}

   A membership event whose host lands on a leaf the tree already spans does
   not change the structure of the encoding: the leaf keeps its place in the
   same p-rule, s-rule, or default rule, the spine and core sections are
   untouched (the leaf and pod sets are unchanged), and the header size is
   unchanged (bitmap widths are fixed). The fast path therefore flips one
   port bit in the rule the leaf already occupies, in place. Everything
   structural — a new leaf, an emptied leaf, a blown redundancy budget, or
   accumulated staleness — falls back to the from-scratch encoder, which
   stays the correctness oracle. *)

type delta =
  | Join of { host : int; leaf : int; port : int }
  | Leave of { host : int; leaf : int; port : int }

type site = Site_prule | Site_srule | Site_default

type applied = { site : site; header_changed : bool }

type reencode_reason = New_leaf | Emptied_leaf | Budget_exceeded | Stale

type outcome = Applied of applied | Reencode of reencode_reason

(* Preallocated outcomes: a steady-state event returns one of these static
   values, so the fast path allocates nothing (constructors with constant
   arguments are static data in native code). *)
let re_stale = Reencode Stale
let re_new_leaf = Reencode New_leaf
let re_emptied = Reencode Emptied_leaf
let re_budget = Reencode Budget_exceeded
let a_prule_changed = Applied { site = Site_prule; header_changed = true }
let a_prule_quiet = Applied { site = Site_prule; header_changed = false }
let a_srule = Applied { site = Site_srule; header_changed = false }
let a_default_changed = Applied { site = Site_default; header_changed = true }
let a_default_quiet = Applied { site = Site_default; header_changed = false }

let delta_of_host topo ~joining host =
  let leaf = Topology.leaf_of_host topo host in
  let port = Topology.host_port_on_leaf topo host in
  if joining then Join { host; leaf; port } else Leave { host; leaf; port }

(* elmo-lint: zero-alloc *)
let slot t l = slot_in t.idx_leaves l

(* The exact tree bitmap of leaf [l], the width-0 dummy off the tree. *)
(* elmo-lint: zero-alloc *)
let exact_of t l =
  let s = slot t l in
  if s < 0 then dummy_bm else Array.unsafe_get t.idx_exact s

(* elmo-lint: zero-alloc *)
let rec or_exacts t leaves dst =
  match leaves with
  | [] -> ()
  | l :: rest ->
      Bitmap.union_into ~dst (exact_of t l);
      or_exacts t rest dst

(* Recompute [dst] as the OR of the exact bitmaps of [leaves], reporting
   whether it changed; the old value is parked in [scratch_b]. *)
(* elmo-lint: zero-alloc *)
let refresh_rule_bitmap t leaves dst =
  Bitmap.copy_into ~dst:t.scratch_b dst;
  Bitmap.reset dst;
  or_exacts t leaves dst;
  not (Bitmap.equal t.scratch_b dst)

(* Exact bitmap of [l] under the prospective join: for the joining leaf
   itself, its exact plus the new port (materialized in [scratch_b]); any
   other sharing leaf is unchanged. *)
(* elmo-lint: zero-alloc *)
let prospective_exact t leaf port l =
  let e = exact_of t l in
  if l = leaf then begin
    Bitmap.copy_into ~dst:t.scratch_b e;
    Bitmap.set t.scratch_b port;
    t.scratch_b
  end
  else e

(* elmo-lint: zero-alloc *)
let rec budget_each t leaf port r_budget switches prospective =
  match switches with
  | [] -> true
  | l :: rest ->
      Bitmap.hamming (prospective_exact t leaf port l) prospective <= r_budget
      && budget_each t leaf port r_budget rest prospective

(* elmo-lint: zero-alloc *)
let rec budget_total t leaf port switches prospective acc =
  match switches with
  | [] -> acc
  | l :: rest ->
      budget_total t leaf port rest prospective
        (acc + Bitmap.hamming (prospective_exact t leaf port l) prospective)

(* Allocation-free equivalent of [Clustering.rule_within_budget] on the
   prospective rule bitmap (the current bitmap plus the new port,
   materialized in [scratch_a]). *)
(* elmo-lint: zero-alloc *)
let shared_join_within_budget t r leaf port =
  Bitmap.copy_into ~dst:t.scratch_a r.Prule.bitmap;
  Bitmap.set t.scratch_a port;
  match t.params.Params.r_semantics with
  | Params.Per_bitmap ->
      budget_each t leaf port t.params.Params.r r.Prule.switches t.scratch_a
  | Params.Sum ->
      budget_total t leaf port r.Prule.switches t.scratch_a 0
      <= t.params.Params.r

(* On [Reencode _] NOTHING has been mutated: all structural and budget
   checks run before the tree or any rule bitmap is touched, so the caller
   can diff the old encoding against a fresh one honestly. *)
(* elmo-lint: zero-alloc *)
let apply_event t joining host leaf port =
  let s = slot t leaf in
  if t.stale >= t.params.Params.staleness_limit then re_stale
  else if s < 0 then re_new_leaf
  else begin
    let exact = Array.unsafe_get t.idx_exact s in
    if (not joining) && Bitmap.popcount exact <= 1 then re_emptied
    else begin
      let kind = Bytes.unsafe_get t.idx_kind s in
      if kind = kind_none then
        (* Rules out of sync with the tree — cannot happen after a
           from-scratch encode; rebuild defensively. *)
        re_new_leaf
      else begin
        let r = Array.unsafe_get t.idx_rule s in
        (* Prospective redundancy check for joins into a shared rule,
           before committing anything. *)
        let budget_ok =
          kind <> kind_prule
          || (not joining)
          || List.compare_length_with r.Prule.switches 1 <= 0
          || shared_join_within_budget t r leaf port
        in
        if not budget_ok then re_budget
        else begin
          (* Commit. The tree mutation flips the leaf's exact bitmap in
             place; rules aliasing that bitmap (singleton p-rules,
             s-rules) are already up to date — mutate the rest
             explicitly. *)
          let applied =
            if joining then Tree.add_member t.tree host
            else Tree.remove_member t.tree host
          in
          if not applied then
            (* Pre-checked above; keep the invariant anyway. *)
            (* elmo-lint: allow zero-alloc — defensive invariant breach, cold *)
            raise (Internal_error "apply_delta: tree delta rejected");
          t.stale <- t.stale + 1;
          t.down_stale <- true;
          if kind = kind_prule then begin
            let site_bm = r.Prule.bitmap in
            let aliased = site_bm == exact in
            if joining then begin
              let header_changed = aliased || not (Bitmap.get site_bm port) in
              if not aliased then Bitmap.set site_bm port;
              if header_changed then a_prule_changed else a_prule_quiet
            end
            else begin
              (* Leaving: the shared bitmap may only drop bits no remaining
                 member needs — recompute the OR over the survivors. *)
              let header_changed =
                aliased || refresh_rule_bitmap t r.Prule.switches site_bm
              in
              if header_changed then a_prule_changed else a_prule_quiet
            end
          end
          else if kind = kind_srule then begin
            (* s-rules are exact per-switch bitmaps. *)
            let bm = Array.unsafe_get t.idx_site_bm s in
            if not (bm == exact) then
              if joining then Bitmap.set bm port else Bitmap.clear bm port;
            a_srule
          end
          else begin
            let bm = Array.unsafe_get t.idx_site_bm s in
            let header_changed =
              if joining then begin
                let fresh = not (Bitmap.get bm port) in
                if fresh then Bitmap.set bm port;
                fresh
              end
              else
                match t.d_leaf.Clustering.default with
                | Some (ids, _) -> refresh_rule_bitmap t ids bm
                | None -> refresh_rule_bitmap t [] bm
            in
            if header_changed then a_default_changed else a_default_quiet
          end
        end
      end
    end
  end

(* elmo-lint: zero-alloc *)
let apply_delta_impl t delta =
  match delta with
  | Join { host; leaf; port } -> apply_event t true host leaf port
  | Leave { host; leaf; port } -> apply_event t false host leaf port

let reason_label = function
  | New_leaf -> "new_leaf"
  | Emptied_leaf -> "emptied_leaf"
  | Budget_exceeded -> "budget_exceeded"
  | Stale -> "stale"

let site_label = function
  | Site_prule -> "prule"
  | Site_srule -> "srule"
  | Site_default -> "default"

(* elmo-lint: zero-alloc *)
let apply_delta t delta =
  if Obs.enabled () then begin
    let outcome =
      (* elmo-lint: allow zero-alloc — span closure on the opt-in traced path *)
      Obs.with_span "encoding.apply_delta" (fun () -> apply_delta_impl t delta)
    in
    (* Attribute fast path vs slow-path fallback, by site / reason. *)
    (match outcome with
    | Applied a ->
        (* elmo-lint: allow zero-alloc — metric label built on the opt-in observed path *)
        Obs.incr ("encoding.fast_path." ^ site_label a.site)
    | Reencode r ->
        (* elmo-lint: allow zero-alloc — metric label built on the opt-in observed path *)
        Obs.incr ("encoding.fallback." ^ reason_label r));
    outcome
  end
  else apply_delta_impl t delta

let release srules t =
  List.iter (fun (l, _) -> Srule_state.release_leaf srules l) t.d_leaf.Clustering.srules;
  List.iter (fun (p, _) -> Srule_state.release_pod srules p) t.d_spine.Clustering.srules

(* Copies of [rules] for a down: a rule that still equals its copy in
   [prev] (the previous down's rules: position by position, the same
   switches and an equal bitmap) keeps that copy; the others are copied
   afresh. The fast path flips the rule bitmaps in place, which must never
   reach a down (and its wire) that headers already carry; no down's copy
   is ever mutated, so two downs may share one. *)
let copy_rule (r : Prule.prule) = { r with Prule.bitmap = Bitmap.copy r.Prule.bitmap }

let same_rule (r : Prule.prule) (c : Prule.prule) =
  (r.Prule.switches == c.Prule.switches
  || List.equal Int.equal r.Prule.switches c.Prule.switches)
  && Bitmap.equal r.Prule.bitmap c.Prule.bitmap

let rec copy_rules rules prev =
  match (rules, prev) with
  | [], _ -> []
  | r :: rest, c :: prev_rest ->
      (if same_rule r c then c else copy_rule r) :: copy_rules rest prev_rest
  | r :: rest, [] -> copy_rule r :: copy_rules rest []

let copy_default (res : Clustering.result) prev =
  match (res.Clustering.default, prev) with
  | None, _ -> None
  | Some (_, bm), Some c when Bitmap.equal bm c -> prev
  | Some (_, bm), (Some _ | None) -> Some (Bitmap.copy bm)

(* This version's down, built on first use. *)
let shared_down t =
  match t.down with
  | Some d when not t.down_stale -> d
  | prev ->
      let spine, spine_default, leaf, leaf_default =
        match prev with
        | Some p -> Prule.(p.d_spine, p.d_spine_default, p.d_leaf, p.d_leaf_default)
        | None -> ([], None, [], None)
      in
      let d =
        Prule.down t.tree.Tree.topo
          ~d_spine:(copy_rules t.d_spine.Clustering.prules spine)
          ~d_spine_default:(copy_default t.d_spine spine_default)
          ~d_leaf:(copy_rules t.d_leaf.Clustering.prules leaf)
          ~d_leaf_default:(copy_default t.d_leaf leaf_default)
      in
      t.down <- Some d;
      t.down_stale <- false;
      d

let rec other_leaf_in_pod topo sl sp = function
  | [] -> false
  | (l, _) :: rest ->
      (l <> sl && Topology.pod_of_leaf topo l = sp) || other_leaf_in_pod topo sl sp rest

let rec other_pod (sp : int) = function
  | [] -> false
  | (p, _) :: rest -> p <> sp || other_pod sp rest

(* The parts of a header that depend only on the sender's leaf [sl]:
   whether the tree reaches beyond it (multipath), the upstream spine rule
   (the pod's spine bitmap minus [sl]'s port) and the core rule (the pod
   set minus [sl]'s pod). *)
let build_upper t m sl =
  let tree = t.tree in
  let topo = tree.Tree.topo in
  let sp = Topology.pod_of_leaf topo sl in
  let other_pods = other_pod sp tree.Tree.spine_bitmaps in
  let beyond_leaf = other_pods || other_leaf_in_pod topo sl sp tree.Tree.leaf_bitmaps in
  let u_spine =
    if not beyond_leaf then None
    else begin
      let down =
        match Tree.spine_bitmap tree sp with
        | None -> Bitmap.create (Topology.spine_downstream_width topo)
        | Some bm ->
            let bm = Bitmap.copy bm in
            Bitmap.clear bm (Topology.leaf_port_on_spine topo sl);
            bm
      in
      Some { Prule.down; up = m.spine_up; multipath = other_pods }
    end
  in
  let core =
    if not other_pods then None
    else begin
      let bm = Bitmap.copy tree.Tree.core_bitmap in
      Bitmap.clear bm sp;
      Some bm
    end
  in
  { multipath = beyond_leaf; u_spine; core }

let memo t =
  match t.upper with
  | Some m -> m
  | None ->
      let topo = t.tree.Tree.topo in
      let m =
        {
          slots = Array.make (Array.length t.idx_leaves) blank;
          off_tree = [];
          leaf_up = Bitmap.create (Topology.leaf_upstream_width topo);
          spine_up = Bitmap.create (Topology.spine_upstream_width topo);
        }
      in
      t.upper <- Some m;
      m

let inherit_caches ~from t =
  if Option.is_none t.down then begin
    t.down <- from.down;
    t.down_stale <- true
  end;
  match from.upper with
  | Some m
    when Option.is_none t.upper
         && Bitmap.equal from.tree.Tree.core_bitmap t.tree.Tree.core_bitmap ->
      let topo = t.tree.Tree.topo in
      let same_pod =
        Array.init topo.Topology.pods (fun p ->
            Option.equal Bitmap.equal (Tree.spine_bitmap from.tree p)
              (Tree.spine_bitmap t.tree p))
      in
      (* With every pod's spine bitmap unchanged, so are the leaf and pod
         sets: an entry either encoding fills is right for both, so they
         share the memo. Otherwise a leaf keeps [from]'s entry, matched by
         leaf id, when its pod's spine bitmap is unchanged. *)
      if Array.for_all Fun.id same_pod then t.upper <- from.upper
      else begin
        let kept l = same_pod.(Topology.pod_of_leaf topo l) in
        let inherited l =
          let s = slot from l in
          if not (kept l) then blank
          else if s >= 0 then m.slots.(s)
          else Option.value ~default:blank (Int_list.assoc_opt l m.off_tree)
        in
        t.upper <-
          Some
            {
              m with
              slots = Array.map inherited t.idx_leaves;
              off_tree =
                List.filter (fun (l, _) -> kept l && slot t l < 0) m.off_tree;
            }
      end
  | Some _ | None -> ()

let header_for_sender t ~sender =
  let topo = t.tree.Tree.topo in
  let sl = Topology.leaf_of_host topo sender in
  let s = slot t sl in
  let m = memo t in
  let u =
    if s >= 0 then begin
      let u = m.slots.(s) in
      if u != blank then u
      else begin
        let u = build_upper t m sl in
        m.slots.(s) <- u;
        u
      end
    end
    else
      match Int_list.assoc_opt sl m.off_tree with
      | Some u -> u
      | None ->
          let u = build_upper t m sl in
          m.off_tree <- (sl, u) :: m.off_tree;
          u
  in
  (* Upstream leaf rule: local member ports minus the sender itself; the
     source hypervisor delivers to co-resident member VMs directly. It is
     the one part built per sender. *)
  let down =
    if s < 0 then Bitmap.create (Topology.leaf_downstream_width topo)
    else begin
      let exact = t.idx_exact.(s) in
      let bm = Bitmap.copy exact in
      Bitmap.clear bm (Topology.host_port_on_leaf topo sender);
      bm
    end
  in
  {
    Prule.u_leaf = { Prule.down; up = m.leaf_up; multipath = u.multipath };
    u_spine = u.u_spine;
    core = u.core;
    downstream = shared_down t;
  }

let header_bytes t ~sender =
  Prule.header_bytes t.tree.Tree.topo (header_for_sender t ~sender)

let covered_by_prules t =
  List.is_empty t.d_spine.Clustering.srules
  && List.is_empty t.d_leaf.Clustering.srules
  && Option.is_none t.d_spine.Clustering.default
  && Option.is_none t.d_leaf.Clustering.default

let covered_without_default t =
  Option.is_none t.d_spine.Clustering.default
  && Option.is_none t.d_leaf.Clustering.default

let uses_default t =
  Option.is_some t.d_spine.Clustering.default
  || Option.is_some t.d_leaf.Clustering.default

let srule_entries t =
  let topo = t.tree.Tree.topo in
  List.length t.d_leaf.Clustering.srules
  + (List.length t.d_spine.Clustering.srules * topo.Topology.spines_per_pod)

let prule_count t =
  List.length t.d_spine.Clustering.prules + List.length t.d_leaf.Clustering.prules

(* {1 Durable wire codec}

   The delta fast path depends on physical sharing between the tree's
   exact bitmaps and rule bitmaps (singleton p-rules and s-rules alias the
   tree's leaf bitmaps), so the serialized form carries the aliasing graph
   explicitly. Each distinct bitmap object is written inline exactly once,
   at its first occurrence, and every later occurrence is a back-reference
   into the pool of bitmaps seen so far ([==]-keyed when writing,
   index-keyed when reading). Reading therefore reconstructs the exact
   object graph, which is what makes a restored encoding bit-identical —
   predicate-pointer-identical under lib/verify — to the never-crashed
   original. *)

(* Newest first; an index counts from the oldest, so both sides agree
   without reversing. The pool holds one encoding's bitmaps at a time. *)
type pool = { mutable seen : Bitmap.t list; mutable size : int }

let pooled pool ~width =
  let inline = Byteio.Codec.bitmap ~width in
  let add bm =
    pool.seen <- bm :: pool.seen;
    pool.size <- pool.size + 1
  in
  {
    Byteio.Codec.write =
      (fun w bm ->
        let rec find i = function
          | [] -> -1
          | o :: _ when o == bm -> i
          | _ :: rest -> find (i + 1) rest
        in
        match find 0 pool.seen with
        | -1 ->
            add bm;
            Byteio.Writer.u8 w 0;
            inline.write w bm
        | i ->
            Byteio.Writer.u8 w 1;
            Byteio.Codec.nat.write w (pool.size - 1 - i));
    read =
      (fun r ->
        match Byteio.Reader.u8 r with
        | 0 ->
            let bm = inline.read r in
            add bm;
            bm
        | 1 ->
            let idx = Byteio.Codec.nat.read r in
            Byteio.Reader.check (idx < pool.size);
            let bm = List.nth pool.seen (pool.size - 1 - idx) in
            Byteio.Reader.check (Bitmap.width bm = width);
            bm
        | _ -> raise Byteio.Reader.Corrupt);
  }

let result_codec ~bm ~nswitches =
  let open Byteio.Codec in
  let id = index nswitches in
  let prule =
    let+ bitmap = field (fun (r : Prule.prule) -> r.bitmap) bm
    and+ switches = field (fun (r : Prule.prule) -> r.switches) (list id) in
    { Prule.bitmap; switches }
  in
  let+ prules = field (fun (res : Clustering.result) -> res.prules) (list prule)
  and+ srules =
    field (fun (res : Clustering.result) -> res.srules) (list (pair id bm))
  and+ default =
    field
      (fun (res : Clustering.result) -> res.default)
      (option (pair (list id) bm))
  in
  { Clustering.prules; srules; default }

(* Does every switch [res]'s rules name satisfy [spans]? *)
let names_within spans (res : Clustering.result) =
  List.for_all (fun (r : Prule.prule) -> List.for_all spans r.switches) res.prules
  && List.for_all (fun (id, _) -> spans id) res.srules
  && match res.default with Some (ids, _) -> List.for_all spans ids | None -> true

(* A membership test for the keys of [keyed], ids below [width]. *)
let keys_of width keyed =
  let bm = Bitmap.create width in
  List.iter (fun (k, _) -> Bitmap.set bm k) keyed;
  Bitmap.get bm

(* The structural invariants of [Tree.t] hold on every decoded value:
   leaf and spine sections and members strictly ascending, no empty
   tree. Every leaf rule names a leaf of the tree and every spine rule
   one of its pods, as the encoder's do. *)
let codec_with pool topo =
  let open Byteio.Codec in
  let leaf_width = Topology.leaf_downstream_width topo in
  let leaf_bm = pooled pool ~width:leaf_width in
  let spine_bm = pooled pool ~width:(Topology.spine_downstream_width topo) in
  let nonempty = function [] -> false | _ :: _ -> true in
  let+ params = field (fun t -> t.params) Params.codec
  and+ leaf_bitmaps =
    field
      (fun t -> t.tree.Tree.leaf_bitmaps)
      (where nonempty
         (ascending fst (pair (index (Topology.num_leaves topo)) leaf_bm)))
  and+ spine_bitmaps =
    field
      (fun t -> t.tree.Tree.spine_bitmaps)
      (ascending fst (pair (index topo.Topology.pods) spine_bm))
  and+ core_bitmap =
    field
      (fun t -> t.tree.Tree.core_bitmap)
      (pooled pool ~width:topo.Topology.pods)
  and+ members =
    field
      (fun t -> Tree.member_list t.tree)
      (where nonempty (ascending Fun.id (index (Topology.num_hosts topo))))
  and+ d_spine =
    field
      (fun t -> t.d_spine)
      (result_codec ~bm:spine_bm ~nswitches:topo.Topology.pods)
  and+ d_leaf =
    field
      (fun t -> t.d_leaf)
      (result_codec ~bm:leaf_bm ~nswitches:(Topology.num_leaves topo))
  and+ stale = field (fun t -> t.stale) nat in
  let tree =
    {
      Tree.topo;
      members = Array.of_list members;
      nmembers = List.length members;
      leaf_bitmaps;
      spine_bitmaps;
      core_bitmap;
    }
  in
  Byteio.Reader.check
    (names_within (keys_of (Topology.num_leaves topo) leaf_bitmaps) d_leaf
    && names_within (keys_of topo.Topology.pods spine_bitmaps) d_spine);
  let idx_leaves, idx_kind, idx_exact, idx_rule, idx_site_bm =
    build_index d_leaf tree
  in
  {
    tree;
    params;
    d_spine;
    d_leaf;
    stale;
    idx_leaves;
    idx_kind;
    idx_exact;
    idx_rule;
    idx_site_bm;
    scratch_a = Bitmap.create leaf_width;
    scratch_b = Bitmap.create leaf_width;
    down = None;
    down_stale = false;
    upper = None;
  }

(* The pool is emptied before and after each use, so a codec value can
   be built once and reused without holding on to bitmaps. *)
let codec topo =
  let pool = { seen = []; size = 0 } in
  let body = codec_with pool topo in
  let clear () =
    pool.seen <- [];
    pool.size <- 0
  in
  {
    Byteio.Codec.write =
      (fun w t ->
        clear ();
        body.write w t;
        clear ());
    read =
      (fun r ->
        clear ();
        let t = body.read r in
        clear ();
        t);
  }
