module Obs = Elmo_obs.Obs

type t = {
  mutable tree : Tree.t;
  params : Params.t;
  d_spine : Clustering.result;
  d_leaf : Clustering.result;
  mutable stale : int;
  (* Fast-path leaf index, built by every from-scratch encode (and by
     [copy]): O(1) per-leaf dispatch with no list scans and no option
     allocation. [idx_kind] holds one dispatch byte per leaf; the arrays
     hold the leaf's exact tree bitmap, its p-rule (when in one), and the
     site bitmap to mutate. Absent slots carry the shared dummies. *)
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
     version, dropped by every committed fast-path mutation. *)
  mutable down : Prule.down option;
}

exception Internal_error of string

(* Leaf dispatch bytes for [idx_kind]. *)
let kind_none = '\000'
let kind_prule = '\001'
let kind_srule = '\002'
let kind_default = '\003'

let dummy_bm = Bitmap.create 0
let dummy_prule = { Prule.bitmap = dummy_bm; switches = [] }

(* Build the per-leaf dispatch index. Write order default → s-rules →
   p-rules so a p-rule wins any (never expected) overlap — the same
   precedence the old list-scan dispatch had. *)
let build_index (d_leaf : Clustering.result) (tree : Tree.t) =
  let nleaves = Topology.num_leaves tree.Tree.topo in
  let idx_kind = Bytes.make nleaves kind_none in
  let idx_exact = Array.make nleaves dummy_bm in
  let idx_rule = Array.make nleaves dummy_prule in
  let idx_site_bm = Array.make nleaves dummy_bm in
  List.iter (fun (l, bm) -> idx_exact.(l) <- bm) tree.Tree.leaf_bitmaps;
  (match d_leaf.Clustering.default with
  | Some (ids, bm) ->
      List.iter
        (fun l ->
          Bytes.set idx_kind l kind_default;
          idx_site_bm.(l) <- bm)
        ids
  | None -> ());
  List.iter
    (fun (l, bm) ->
      Bytes.set idx_kind l kind_srule;
      idx_site_bm.(l) <- bm)
    d_leaf.Clustering.srules;
  List.iter
    (fun r ->
      List.iter
        (fun l ->
          Bytes.set idx_kind l kind_prule;
          idx_rule.(l) <- r;
          idx_site_bm.(l) <- r.Prule.bitmap)
        r.Prule.switches)
    d_leaf.Clustering.prules;
  (idx_kind, idx_exact, idx_rule, idx_site_bm)

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
   fallback) for legacy ones. *)
let with_legacy ~legacy ~reserve layer cluster =
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

(* The only external state a group encode consults is switch capacity, and
   only through the two probe-and-reserve closures below — everything else
   is a pure function of (params, tree). The closures either hit the live
   ledger (sequential path) or a transaction over a frozen snapshot
   (parallel batch path); identical probe answers imply identical output. *)
let encode_cap ~legacy_leaf ~legacy_pod ~srule_ok_leaf ~srule_ok_pod
    (params : Params.t) ~reserve_leaf ~reserve_pod tree =
  (* Eligibility is checked before the capacity probe (short-circuit), so a
     switch the controller has degraded never even logs a probe: its traffic
     is folded into the default p-rule as if the switch were full. *)
  let reserve_leaf l = srule_ok_leaf l && reserve_leaf l in
  let reserve_pod p = srule_ok_pod p && reserve_pod p in
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
  let idx_kind, idx_exact, idx_rule, idx_site_bm = build_index d_leaf tree in
  let scratch_width = Topology.leaf_downstream_width tree.Tree.topo in
  {
    tree;
    params;
    d_spine;
    d_leaf;
    stale = 0;
    idx_kind;
    idx_exact;
    idx_rule;
    idx_site_bm;
    scratch_a = Bitmap.create scratch_width;
    scratch_b = Bitmap.create scratch_width;
    down = None;
  }

let encode_txn ?(legacy_leaf = no_legacy) ?(legacy_pod = no_legacy)
    ?(srule_ok_leaf = all_ok) ?(srule_ok_pod = all_ok) (params : Params.t) txn
    tree =
  Obs.with_span "encoding.encode_txn" @@ fun () ->
  encode_cap ~legacy_leaf ~legacy_pod ~srule_ok_leaf ~srule_ok_pod params
    ~reserve_leaf:(Srule_state.txn_reserve_leaf txn)
    ~reserve_pod:(Srule_state.txn_reserve_pod txn)
    tree

let encode ?legacy_leaf ?legacy_pod ?srule_ok_leaf ?srule_ok_pod
    (params : Params.t) srules tree =
  Obs.with_span "encoding.encode" @@ fun () ->
  (* The sequential path is the batch protocol at batch size one: encode
     against a just-taken snapshot, then commit. Nothing can have mutated
     the ledger in between, so the commit replay cannot diverge. *)
  let txn = Srule_state.txn (Srule_state.snapshot srules) in
  let enc =
    encode_txn ?legacy_leaf ?legacy_pod ?srule_ok_leaf ?srule_ok_pod params txn
      tree
  in
  (match Srule_state.commit srules txn with
  | Ok () -> ()
  | Error _ ->
      raise (Internal_error "encode: commit of a fresh snapshot diverged"));
  enc

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
let rec or_exacts t leaves dst =
  match leaves with
  | [] -> ()
  | l :: rest ->
      Bitmap.union_into ~dst (Array.unsafe_get t.idx_exact l);
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
  let e = Array.unsafe_get t.idx_exact l in
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
  if t.stale >= t.params.Params.staleness_limit then re_stale
  else if leaf < 0 || leaf >= Array.length t.idx_exact then re_new_leaf
  else begin
    let exact = Array.unsafe_get t.idx_exact leaf in
    if exact == dummy_bm then re_new_leaf
    else if (not joining) && Bitmap.popcount exact <= 1 then re_emptied
    else begin
      let kind = Bytes.unsafe_get t.idx_kind leaf in
      if kind = kind_none then
        (* Rules out of sync with the tree — cannot happen after a
           from-scratch encode; rebuild defensively. *)
        re_new_leaf
      else begin
        let r = Array.unsafe_get t.idx_rule leaf in
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
          t.down <- None;
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
            let bm = Array.unsafe_get t.idx_site_bm leaf in
            if not (bm == exact) then
              if joining then Bitmap.set bm port else Bitmap.clear bm port;
            a_srule
          end
          else begin
            let bm = Array.unsafe_get t.idx_site_bm leaf in
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

(* This version's down, built on first use. Its bitmaps are copies: the
   fast path flips the rule bitmaps in place, which must never reach a
   down (and its wire) that headers already carry. *)
let shared_down t =
  match t.down with
  | Some d -> d
  | None ->
      let prules =
        List.map (fun (r : Prule.prule) ->
            { r with Prule.bitmap = Bitmap.copy r.Prule.bitmap })
      in
      let default (res : Clustering.result) =
        Option.map (fun (_, bm) -> Bitmap.copy bm) res.Clustering.default
      in
      let d =
        Prule.down t.tree.Tree.topo
          ~d_spine:(prules t.d_spine.Clustering.prules)
          ~d_spine_default:(default t.d_spine)
          ~d_leaf:(prules t.d_leaf.Clustering.prules)
          ~d_leaf_default:(default t.d_leaf)
      in
      t.down <- Some d;
      d

let header_for_sender t ~sender =
  let tree = t.tree in
  let topo = tree.Tree.topo in
  let sl = Topology.leaf_of_host topo sender in
  let sp = Topology.pod_of_leaf topo sl in
  let other_leaves_in_pod =
    List.exists
      (fun (l, _) -> l <> sl && Topology.pod_of_leaf topo l = sp)
      tree.Tree.leaf_bitmaps
  in
  let other_pods = List.exists (fun (p, _) -> p <> sp) tree.Tree.spine_bitmaps in
  let beyond_leaf = other_leaves_in_pod || other_pods in
  (* Upstream leaf rule: local member ports minus the sender itself; the
     source hypervisor delivers to co-resident member VMs directly. *)
  let u_leaf_down =
    match Tree.leaf_bitmap tree sl with
    | None -> Bitmap.create (Topology.leaf_downstream_width topo)
    | Some bm ->
        let bm = Bitmap.copy bm in
        Bitmap.clear bm (Topology.host_port_on_leaf topo sender);
        bm
  in
  let u_leaf =
    {
      Prule.down = u_leaf_down;
      up = Bitmap.create (Topology.leaf_upstream_width topo);
      multipath = beyond_leaf;
    }
  in
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
      Some
        {
          Prule.down;
          up = Bitmap.create (Topology.spine_upstream_width topo);
          multipath = other_pods;
        }
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
  { Prule.u_leaf; u_spine; core; downstream = shared_down t }

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

   The byte-level analogue of [copy]: the delta fast path depends on
   physical sharing between the tree's exact bitmaps and rule bitmaps
   (singleton p-rules and s-rules alias the tree's leaf bitmaps), so the
   serialized form carries the aliasing graph explicitly. Each distinct
   bitmap object is written inline exactly once, at its first occurrence,
   and every later occurrence is a back-reference into the pool of bitmaps
   written so far ([==]-keyed on the write side, index-keyed on the read
   side). Reading therefore reconstructs the exact object graph, which is
   what makes a restored encoding bit-identical — predicate-pointer-
   identical under lib/verify — to the never-crashed original. *)

let write_bm pool w bm =
  let rec find i = function
    | [] -> -1
    | o :: _ when o == bm -> i
    | _ :: rest -> find (i + 1) rest
  in
  (* The pool list is newest-first; stored indices count from the oldest so
     both sides agree without reversing. *)
  match find 0 !pool with
  | -1 ->
      pool := bm :: !pool;
      Byteio.Writer.u8 w 0;
      Byteio.Writer.bitmap w bm
  | i ->
      Byteio.Writer.u8 w 1;
      Byteio.Writer.u32 w (List.length !pool - 1 - i)

let read_bm pool ~width r =
  match Byteio.Reader.u8 r with
  | 0 ->
      let bm = Byteio.Reader.bitmap r in
      Byteio.Reader.check (Bitmap.width bm = width);
      pool := bm :: !pool;
      bm
  | 1 ->
      let n = List.length !pool in
      let idx = Byteio.Reader.u32 r in
      Byteio.Reader.check (idx < n);
      let bm = List.nth !pool (n - 1 - idx) in
      Byteio.Reader.check (Bitmap.width bm = width);
      bm
  | _ -> raise Byteio.Reader.Corrupt (* elmo-lint: allow exception-discipline — documented API-misuse guard *)

let write_result pool w (res : Clustering.result) =
  Byteio.Writer.list w
    (fun w (r : Prule.prule) ->
      write_bm pool w r.Prule.bitmap;
      Byteio.Writer.list w Byteio.Writer.int r.Prule.switches)
    res.Clustering.prules;
  Byteio.Writer.list w
    (fun w (id, bm) ->
      Byteio.Writer.int w id;
      write_bm pool w bm)
    res.Clustering.srules;
  Byteio.Writer.option w
    (fun w (ids, bm) ->
      Byteio.Writer.list w Byteio.Writer.int ids;
      write_bm pool w bm)
    res.Clustering.default

let read_result pool ~width ~nswitches r =
  let switch_id rd =
    let id = Byteio.Reader.int rd in
    Byteio.Reader.check (0 <= id && id < nswitches);
    id
  in
  let prules =
    Byteio.Reader.list r (fun rd ->
        let bitmap = read_bm pool ~width rd in
        let switches = Byteio.Reader.list rd switch_id in
        { Prule.bitmap; switches })
  in
  let srules =
    Byteio.Reader.list r (fun rd ->
        let id = switch_id rd in
        let bm = read_bm pool ~width rd in
        (id, bm))
  in
  let default =
    Byteio.Reader.option r (fun rd ->
        let ids = Byteio.Reader.list rd switch_id in
        let bm = read_bm pool ~width rd in
        (ids, bm))
  in
  { Clustering.prules; srules; default }

let write w t =
  let pool = ref [] in
  let tree = t.tree in
  Params.write w t.params;
  Byteio.Writer.list w
    (fun w (l, bm) ->
      Byteio.Writer.int w l;
      write_bm pool w bm)
    tree.Tree.leaf_bitmaps;
  Byteio.Writer.list w
    (fun w (p, bm) ->
      Byteio.Writer.int w p;
      write_bm pool w bm)
    tree.Tree.spine_bitmaps;
  write_bm pool w tree.Tree.core_bitmap;
  Byteio.Writer.list w Byteio.Writer.int (Tree.member_list tree);
  write_result pool w t.d_spine;
  write_result pool w t.d_leaf;
  Byteio.Writer.int w t.stale

let read topo r =
  let pool = ref [] in
  let params = Params.read r in
  let site ~count rd =
    let id = Byteio.Reader.int rd in
    Byteio.Reader.check (0 <= id && id < count);
    id
  in
  let leaf_width = Topology.leaf_downstream_width topo in
  let spine_width = Topology.spine_downstream_width topo in
  let leaf_bitmaps =
    Byteio.Reader.list r (fun rd ->
        let l = site ~count:(Topology.num_leaves topo) rd in
        let bm = read_bm pool ~width:leaf_width rd in
        (l, bm))
  in
  let spine_bitmaps =
    Byteio.Reader.list r (fun rd ->
        let p = site ~count:topo.Topology.pods rd in
        let bm = read_bm pool ~width:spine_width rd in
        (p, bm))
  in
  let core_bitmap = read_bm pool ~width:topo.Topology.pods r in
  let members =
    Byteio.Reader.list r (fun rd -> site ~count:(Topology.num_hosts topo) rd)
  in
  (* Structural invariants of Tree.t: ids strictly ascending (leaf/spine
     sections and the sorted members prefix), no empty tree. *)
  let rec ascending = function
    | a :: (b :: _ as rest) ->
        if a < b then ascending rest else raise Byteio.Reader.Corrupt (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
    | _ -> ()
  in
  ascending (List.map fst leaf_bitmaps);
  ascending (List.map fst spine_bitmaps);
  ascending members;
  Byteio.Reader.check (match members with [] -> false | _ :: _ -> true);
  Byteio.Reader.check (match leaf_bitmaps with [] -> false | _ :: _ -> true);
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
  let d_spine =
    read_result pool ~width:spine_width ~nswitches:topo.Topology.pods r
  in
  let d_leaf =
    read_result pool ~width:leaf_width ~nswitches:(Topology.num_leaves topo) r
  in
  let stale = Byteio.Reader.int r in
  Byteio.Reader.check (stale >= 0);
  let idx_kind, idx_exact, idx_rule, idx_site_bm = build_index d_leaf tree in
  let scratch_width = leaf_width in
  {
    tree;
    params;
    d_spine;
    d_leaf;
    stale;
    idx_kind;
    idx_exact;
    idx_rule;
    idx_site_bm;
    scratch_a = Bitmap.create scratch_width;
    scratch_b = Bitmap.create scratch_width;
    down = None;
  }

(* Deep copy for checkpoints. The delta fast path depends on physical
   sharing between the tree's exact bitmaps and rule bitmaps (singleton
   p-rules and s-rules alias the tree's leaf bitmaps), so the copy must
   preserve the aliasing graph: each distinct bitmap object is copied
   exactly once, via a [==]-keyed memo. An encoding touches a handful of
   bitmaps, so the linear memo scan is fine. *)
let copy t =
  let memo = ref [] in
  let copy_bm bm =
    match List.find_opt (fun (o, _) -> o == bm) !memo with
    | Some (_, c) -> c
    | None ->
        let c = Bitmap.copy bm in
        memo := (bm, c) :: !memo;
        c
  in
  let copy_tree (tr : Tree.t) =
    {
      tr with
      Tree.members = Array.copy tr.Tree.members;
      leaf_bitmaps = List.map (fun (l, bm) -> (l, copy_bm bm)) tr.Tree.leaf_bitmaps;
      spine_bitmaps =
        List.map (fun (p, bm) -> (p, copy_bm bm)) tr.Tree.spine_bitmaps;
      core_bitmap = copy_bm tr.Tree.core_bitmap;
    }
  in
  let copy_prule (r : Prule.prule) =
    { r with Prule.bitmap = copy_bm r.Prule.bitmap }
  in
  let copy_result (res : Clustering.result) =
    {
      Clustering.prules = List.map copy_prule res.Clustering.prules;
      srules = List.map (fun (id, bm) -> (id, copy_bm bm)) res.Clustering.srules;
      default =
        Option.map (fun (ids, bm) -> (ids, copy_bm bm)) res.Clustering.default;
    }
  in
  let tree = copy_tree t.tree in
  let d_leaf = copy_result t.d_leaf in
  let idx_kind, idx_exact, idx_rule, idx_site_bm = build_index d_leaf tree in
  {
    tree;
    params = t.params;
    d_spine = copy_result t.d_spine;
    d_leaf;
    stale = t.stale;
    idx_kind;
    idx_exact;
    idx_rule;
    idx_site_bm;
    scratch_a = Bitmap.create (Bitmap.width t.scratch_a);
    scratch_b = Bitmap.create (Bitmap.width t.scratch_b);
    down = None;
  }
