module Obs = Elmo_obs.Obs

type t = {
  tree : Tree.t;
  params : Params.t;
  d_spine : Clustering.result;
  d_leaf : Clustering.result;
  mutable stale : int;
  (* Fast-path rule dispatch, built by every from-scratch encode (and by
     [of_choices]), one entry per slot of the tree's leaf index
     ([Tree.leaf_slot]), so it is sized by the tree, not the fabric. Per
     slot, [idx_kind] holds one dispatch byte; the arrays hold the leaf's
     p-rule (when in one) and the site bitmap to mutate. Absent entries
     carry the shared dummies. *)
  idx_kind : Bytes.t;
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

(* One slot per tree leaf, as in the tree's index; a slot holds [blank]
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
let kind_prule = '\001'
let kind_srule = '\002'
let kind_default = '\003'

let dummy_bm = Bitmap.create 0
let dummy_prule = { Prule.bitmap = dummy_bm; switches = [] }
let blank = { multipath = false; u_spine = None; core = None }

(* Build the slot-indexed dispatch of [d_leaf] over [tree]'s leaf slots.
   The rules name each tree leaf exactly once — clustering places every
   leaf it is given in one rule, and [of_choices] refuses anything else —
   so every slot's kind is written below. *)
let build_index (d_leaf : Clustering.result) (tree : Tree.t) =
  let n = Tree.leaf_count tree in
  let idx_kind = Bytes.create n in
  let idx_rule = Array.make n dummy_prule in
  let idx_site_bm = Array.make n dummy_bm in
  let mark l kind bm =
    let s = Tree.leaf_slot tree l in
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
  (idx_kind, idx_rule, idx_site_bm)

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

(* Merge the clustering of modern switches with forced s-rules (or default
   fallback) for legacy ones. A layer ([ids] and their exact [bms]) with
   no legacy switch is clustered as it is, without a partitioned copy. *)
let with_legacy ~legacy ~reserve ids bms cluster =
  if not (Array.exists legacy ids) then cluster ids bms
  else begin
    let legacy_slots, modern =
      List.partition (fun s -> legacy ids.(s)) (List.init (Array.length ids) Fun.id)
    in
    let pick a = Array.of_list (List.map (Array.get a) modern) in
    let res = cluster (pick ids) (pick bms) in
    List.fold_left
      (fun acc s ->
        let id = ids.(s) and bm = bms.(s) in
        if reserve id then
          { acc with Clustering.srules = (id, Bitmap.copy bm) :: acc.Clustering.srules }
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
      res legacy_slots
  end

(* An encoding of [tree] under the two layers' rules, with a fresh
   fast-path dispatch and scratch and no header caches. *)
let make params (tree : Tree.t) ~d_spine ~d_leaf ~stale =
  let idx_kind, idx_rule, idx_site_bm = build_index d_leaf tree in
  let scratch_width = Topology.leaf_downstream_width tree.Tree.topo in
  {
    tree;
    params;
    d_spine;
    d_leaf;
    stale;
    idx_kind;
    idx_rule;
    idx_site_bm;
    scratch_a = Bitmap.create scratch_width;
    scratch_b = Bitmap.create scratch_width;
    down = None;
    down_stale = false;
    upper = None;
  }

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
    with_legacy ~legacy:legacy_leaf ~reserve:reserve_leaf tree.Tree.leaf_ids
      tree.Tree.leaf_bms
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
      with_legacy ~legacy:legacy_pod ~reserve:reserve_pod tree.Tree.pod_ids
        tree.Tree.spine_bms
        (Clustering.run ~r:params.r ~semantics:params.r_semantics
           ~hmax:hmax_spine ~kmax:params.kmax ~has_srule_space:reserve_pod)
  in
  make params tree ~d_spine ~d_leaf ~stale:0

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
let slot t l = Tree.leaf_slot t.tree l

(* The exact tree bitmap of leaf [l], the width-0 dummy off the tree. *)
(* elmo-lint: zero-alloc *)
let exact_of t l =
  let s = slot t l in
  if s < 0 then dummy_bm else Array.unsafe_get t.tree.Tree.leaf_bms s

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
    let exact = Array.unsafe_get t.tree.Tree.leaf_bms s in
    if (not joining) && Bitmap.popcount exact <= 1 then re_emptied
    else begin
      let kind = Bytes.unsafe_get t.idx_kind s in
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
        (* Commit: flip the member in the tree, then the same port in the
           rule the leaf sits in. Every rule owns its bitmap. *)
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
        let bm = Array.unsafe_get t.idx_site_bm s in
        if kind = kind_srule then begin
          (* s-rules are exact per-switch bitmaps. *)
          if joining then Bitmap.set bm port else Bitmap.clear bm port;
          a_srule
        end
        else begin
          (* A shared rule may already carry a joining port, and may drop a
             leaving one only when no other member needs it: recompute the
             OR over the rule's switches. *)
          let header_changed =
            if joining then begin
              let fresh = not (Bitmap.get bm port) in
              if fresh then Bitmap.set bm port;
              fresh
            end
            else if kind = kind_prule then refresh_rule_bitmap t r.Prule.switches bm
            else
              match t.d_leaf.Clustering.default with
              | Some (ids, _) -> refresh_rule_bitmap t ids bm
              | None -> refresh_rule_bitmap t [] bm
          in
          if kind = kind_prule then
            if header_changed then a_prule_changed else a_prule_quiet
          else if header_changed then a_default_changed
          else a_default_quiet
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

let fold_srules f t acc =
  let layer site rules acc =
    List.fold_right (fun (id, bm) acc -> f (site id) bm acc) rules acc
  in
  layer (fun l -> Srule_state.Leaf l) t.d_leaf.Clustering.srules
    (layer (fun p -> Srule_state.Pod p) t.d_spine.Clustering.srules acc)

let release srules t = fold_srules (fun site _ () -> Srule_state.release srules site) t ()
let reserve srules t = fold_srules (fun site _ () -> Srule_state.reserve srules site) t ()

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

(* The parts of a header that depend only on the sender's leaf [sl]:
   whether the tree reaches beyond it (multipath), the upstream spine rule
   (the pod's spine bitmap minus [sl]'s port) and the core rule (the pod
   set minus [sl]'s pod). *)
let build_upper t m sl =
  let tree = t.tree in
  let topo = tree.Tree.topo in
  let sp = Topology.pod_of_leaf topo sl in
  let other_pods = Tree.spans_other_pod tree sp in
  let beyond_leaf = other_pods || Tree.spans_other_leaf_in_pod tree sl in
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
          slots = Array.make (Tree.leaf_count t.tree) blank;
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
      (* Equal core bitmaps span the same pods, so the two trees' pod
         arrays are equal and one walk pairs their spine bitmaps slot by
         slot. *)
      let same_pod = Array.map2 Bitmap.equal from.tree.Tree.spine_bms t.tree.Tree.spine_bms in
      (* With every pod's spine bitmap unchanged, so are the leaf and pod
         sets: an entry either encoding fills is right for both, so they
         share the memo. Otherwise a leaf keeps [from]'s entry, matched by
         leaf id, when its pod's spine bitmap is unchanged (or the pod is
         on neither tree). *)
      if Array.for_all Fun.id same_pod then t.upper <- from.upper
      else begin
        let kept l =
          let s = Tree.pod_slot t.tree (Topology.pod_of_leaf t.tree.Tree.topo l) in
          s < 0 || same_pod.(s)
        in
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
              slots = Array.map inherited t.tree.Tree.leaf_ids;
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
      let exact = t.tree.Tree.leaf_bms.(s) in
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

(* {1 Durable form}

   An encoding is stated by its tree, which its members fix, and by
   Algorithm 1's choices: which switches each rule names. Every rule
   bitmap is the OR of its switches' tree bitmaps (the fast path keeps it
   so), so the choices alone travel, and [of_choices] derives the rest. *)

type layer_choices = {
  rule_switches : int list list;  (* each p-rule's switches, in order *)
  srule_ids : int list;
  default_ids : int list;  (* empty when the layer has no default rule *)
}

type choices = { spine : layer_choices; leaf : layer_choices; stale_count : int }

let layer_choices (res : Clustering.result) =
  {
    rule_switches = List.map (fun (r : Prule.prule) -> r.switches) res.prules;
    srule_ids = List.map fst res.srules;
    default_ids = (match res.default with Some (ids, _) -> ids | None -> []);
  }

let choices t =
  { spine = layer_choices t.d_spine; leaf = layer_choices t.d_leaf; stale_count = t.stale }

let choices_codec topo =
  let open Byteio.Codec in
  let layer nswitches =
    let id = index nswitches in
    let+ rule_switches = field (fun c -> c.rule_switches) (list (list id))
    and+ srule_ids = field (fun c -> c.srule_ids) (list id)
    and+ default_ids = field (fun c -> c.default_ids) (list id) in
    { rule_switches; srule_ids; default_ids }
  in
  let+ spine = field (fun c -> c.spine) (layer topo.Topology.pods)
  and+ leaf = field (fun c -> c.leaf) (layer (Topology.num_leaves topo))
  and+ stale_count = field (fun c -> c.stale_count) nat in
  { spine; leaf; stale_count }

(* One layer's rules over the tree's ascending switch [ids] of that layer
   and their exact bitmaps [exacts]: each p-rule and the default a fresh
   OR of its switches' bitmaps, each s-rule a fresh copy of its switch's.
   The choices must name every switch of [ids] exactly once, and each
   p-rule at least one. *)
let layer_of_choices ~width ids exacts c =
  let n = Array.length ids in
  let named = Bytes.make n '\000' in
  let exact id =
    let s = Int_array.search ids id ~lo:0 ~hi:(n - 1) in
    Byteio.Reader.check (s >= 0 && Bytes.get named s = '\000');
    Bytes.set named s '\001';
    exacts.(s)
  in
  let union switches =
    let bm = Bitmap.create width in
    List.iter (fun id -> Bitmap.union_into ~dst:bm (exact id)) switches;
    bm
  in
  let prule switches =
    Byteio.Reader.check (not (List.is_empty switches));
    { Prule.bitmap = union switches; switches }
  in
  let prules = List.map prule c.rule_switches in
  let srules = List.map (fun id -> (id, Bitmap.copy (exact id))) c.srule_ids in
  let default =
    match c.default_ids with [] -> None | ids -> Some (ids, union ids)
  in
  Byteio.Reader.check (not (Bytes.contains named '\000'));
  { Clustering.prules; srules; default }

let of_choices params (tree : Tree.t) c =
  let topo = tree.Tree.topo in
  Byteio.Reader.check (c.stale_count <= params.Params.staleness_limit);
  let d_leaf =
    layer_of_choices ~width:(Topology.leaf_downstream_width topo)
      tree.Tree.leaf_ids tree.Tree.leaf_bms c.leaf
  in
  let d_spine =
    (* A two-tier fabric's encodings have no spine rules ([encode]). *)
    let ids, bms =
      if Topology.is_two_tier topo then ([||], [||])
      else (tree.Tree.pod_ids, tree.Tree.spine_bms)
    in
    layer_of_choices ~width:(Topology.spine_downstream_width topo) ids bms c.spine
  in
  make params tree ~d_spine ~d_leaf ~stale:c.stale_count
