(* Typed-AST lint pass. Everything works off the .cmt files dune already
   emits, so the analysis sees instantiated types at each application site
   (which a source-level grep cannot): [a = b] at type [Bitmap.t] and at
   type [int] are different programs here. *)

type rule =
  | Determinism
  | Poly_compare
  | Poly_lookup
  | Exception_discipline
  | Interface_hygiene
  | Zero_alloc
  | Bare_allow

let rule_id = function
  | Determinism -> "determinism"
  | Poly_compare -> "poly-compare"
  | Poly_lookup -> "poly-lookup"
  | Exception_discipline -> "exception-discipline"
  | Interface_hygiene -> "interface-hygiene"
  | Zero_alloc -> "zero-alloc"
  | Bare_allow -> "bare-allow"

let rule_of_id = function
  | "determinism" -> Some Determinism
  | "poly-compare" -> Some Poly_compare
  | "poly-lookup" -> Some Poly_lookup
  | "exception-discipline" -> Some Exception_discipline
  | "interface-hygiene" -> Some Interface_hygiene
  | "zero-alloc" -> Some Zero_alloc
  | "bare-allow" -> Some Bare_allow
  | _ -> None

type finding = { file : string; line : int; rule : rule; message : string }

let pp_finding ppf f =
  Format.fprintf ppf "%s:%d: [%s] %s" f.file f.line (rule_id f.rule) f.message

type config = {
  determinism_scope : string -> bool;
  poly_scope : string -> bool;
  exn_scope : string -> bool;
  iface_scope : string -> bool;
}

let under prefix path = String.starts_with ~prefix path

let default_config =
  {
    determinism_scope = under "lib/";
    poly_scope = under "lib/";
    exn_scope = (fun p -> under "lib/core/" p || under "lib/dataplane/" p);
    iface_scope = under "lib/";
  }

let all_true _ = true

let all_config =
  {
    determinism_scope = all_true;
    poly_scope = all_true;
    exn_scope = all_true;
    iface_scope = all_true;
  }

(* ------------------------------------------------------------------ *)
(* Cmt loading                                                        *)

type modinfo = {
  cmt_path : string;
  modname : string;
  source : string option;  (* workspace-relative, as recorded by the compiler *)
  source_abs : string option;  (* resolved on disk, for suppression scanning *)
  structure : Typedtree.structure option;
  is_target : bool;
}

let normalize_source s =
  if String.starts_with ~prefix:"./" s then
    String.sub s 2 (String.length s - 2)
  else s

let load_cmt ?source_root ~is_target path =
  let cmt =
    try Cmt_format.read_cmt path
    with e ->
      failwith
        (Printf.sprintf "elmo-lint: cannot read %s (%s)" path
           (Printexc.to_string e))
  in
  let source = Option.map normalize_source cmt.Cmt_format.cmt_sourcefile in
  let source_abs =
    match source with
    | None -> None
    | Some s ->
        let candidates =
          (match source_root with
          | Some root -> [ Filename.concat root s ]
          | None -> [])
          @ [ Filename.concat cmt.Cmt_format.cmt_builddir s; s ]
        in
        List.find_opt Sys.file_exists candidates
  in
  let structure =
    match cmt.Cmt_format.cmt_annots with
    | Cmt_format.Implementation str -> Some str
    | _ -> None
  in
  {
    cmt_path = path;
    modname = cmt.Cmt_format.cmt_modname;
    source;
    source_abs;
    structure;
    is_target;
  }

(* ------------------------------------------------------------------ *)
(* Suppression comments                                               *)

type allow = { a_line : int; a_rule : string; a_reasoned : bool }

(* Per-source scan result: suppressions plus the lines carrying a bare
   [(* elmo-lint: zero-alloc *)] annotation (which marks the binding on the
   same or the following line as a zero-allocation obligation). *)
type file_scan = { fs_allows : allow list; fs_marks : int list }

let empty_scan = { fs_allows = []; fs_marks = [] }

(* Grammar: [(* elmo-lint: allow <rule-id> — <reason> *)] anywhere on the
   line; the separator may be an em-dash, "--", "-" or ":". The scan is
   textual (one comment per line) — good enough for a convention the lint
   itself polices. *)
let scan_file path =
  let ic = open_in path in
  let allows = ref [] in
  let marks = ref [] in
  let lineno = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       match
         let marker = "elmo-lint:" in
         let rec find i =
           if i + String.length marker > String.length line then None
           else if String.sub line i (String.length marker) = marker then
             Some (i + String.length marker)
           else find (i + 1)
         in
         find 0
       with
       | None -> ()
       | Some start ->
           let rest = String.sub line start (String.length line - start) in
           let rest =
             match String.index_opt rest '*' with
             | Some i when i + 1 < String.length rest && rest.[i + 1] = ')' ->
                 String.sub rest 0 i
             | _ -> rest
           in
           let words =
             String.split_on_char ' ' (String.trim rest)
             |> List.filter (fun w -> w <> "")
           in
           (match words with
           | "allow" :: rid :: tail ->
               let is_sep w =
                 w = "\xe2\x80\x94" (* — *) || w = "--" || w = "-" || w = ":"
               in
               let reason =
                 match tail with
                 | sep :: r when is_sep sep -> r
                 | r -> r
               in
               allows :=
                 { a_line = !lineno; a_rule = rid; a_reasoned = reason <> [] }
                 :: !allows
           | [ "zero-alloc" ] -> marks := !lineno :: !marks
           | _ -> ())
     done
   with End_of_file -> ());
  close_in ic;
  { fs_allows = List.rev !allows; fs_marks = List.rev !marks }

(* ------------------------------------------------------------------ *)
(* Type shape: is structural comparison / hashing benign here?        *)

let primitive_paths =
  Predef.
    [
      path_int; path_char; path_string; path_bytes; path_float; path_bool;
      path_unit; path_int32; path_int64; path_nativeint;
    ]

let container_paths = Predef.[ path_list; path_option; path_array ]

let named_containers =
  [ "ref"; "Stdlib.ref"; "result"; "Stdlib.result"; "Either.t";
    "Stdlib.Either.t" ]

(* A type is "primitive" when polymorphic compare/hash on it is total,
   deterministic and means what the author thinks: base types and tuples /
   lists / options / arrays / refs / results thereof. Everything else —
   abstract types, records (cached fields!), variants, functions — must go
   through a dedicated compare/equal. A type variable passes only where
   [vars] says so: a [Hashtbl] keyed at one is judged at its monomorphic
   use sites, but a comparison at one is [caml_compare] at every type the
   code is ever used at, [int] included. *)
let rec type_primitive ~vars ty =
  match Types.get_desc ty with
  | Types.Tvar _ | Types.Tunivar _ -> vars
  | Types.Ttuple tys -> List.for_all (type_primitive ~vars) tys
  | Types.Tpoly (t, _) -> type_primitive ~vars t
  | Types.Tconstr (p, args, _) ->
      if List.exists (Path.same p) primitive_paths then true
      else if List.exists (Path.same p) container_paths then
        List.for_all (type_primitive ~vars) args
      else if List.mem (Path.name p) named_containers then
        List.for_all (type_primitive ~vars) args
      else false
  | _ -> false

let type_str ty =
  try Format.asprintf "%a" Printtyp.type_expr ty with _ -> "<type>"

(* ------------------------------------------------------------------ *)
(* Expression-level rules (determinism, poly-compare, exn-discipline)  *)

let deterministic_banned name =
  String.starts_with ~prefix:"Stdlib.Random." name
  || name = "Stdlib.Sys.time"
  || name = "Unix.gettimeofday"
  || name = "Unix.time"
  || name = "Stdlib.Hashtbl.hash"
  || name = "Stdlib.Hashtbl.seeded_hash"
  || name = "Stdlib.Hashtbl.randomize"

let poly_compare_ops =
  [ "Stdlib.="; "Stdlib.<>"; "Stdlib.compare"; "Stdlib.<"; "Stdlib.<=";
    "Stdlib.>"; "Stdlib.>="; "Stdlib.min"; "Stdlib.max" ]

(* The stdlib list lookups compare keys with polymorphic compare at every
   element type, so [poly-compare]'s type test cannot clear them: even at
   [int] each step is a [caml_compare] call. *)
let poly_lookups =
  [ "Stdlib.List.mem"; "Stdlib.List.assoc"; "Stdlib.List.assoc_opt";
    "Stdlib.List.mem_assoc"; "Stdlib.List.remove_assoc" ]
let banned_raisers = [ "Stdlib.failwith"; "Stdlib.invalid_arg" ]

let short_name name =
  if String.starts_with ~prefix:"Stdlib." name then
    String.sub name 7 (String.length name - 7)
  else name

(* First argument type of an (instantiated) function type, skipping
   optional arguments; [None] when the type is not an arrow. *)
let rec first_arg_type ty =
  match Types.get_desc ty with
  | Types.Tarrow (Asttypes.Optional _, _, rhs, _) -> first_arg_type rhs
  | Types.Tarrow (_, lhs, _, _) -> Some lhs
  | _ -> None

let rec result_type ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, _, rhs, _) -> result_type rhs
  | _ -> ty

(* (line, rule, message) for every expression-level finding in [str]. *)
let scan_expressions str =
  let found = ref [] in
  let add line rule msg = found := (line, rule, msg) :: !found in
  let check_ident line path ty =
    let name = Path.name path in
    if deterministic_banned name then
      add line Determinism
        (Printf.sprintf
           "call to %s: ambient randomness/clock breaks bit-identical \
            replay (use Elmo_prelude.Rng or take the value as an argument)"
           (short_name name));
    if List.mem name poly_compare_ops then (
      match first_arg_type ty with
      | Some arg when not (type_primitive ~vars:false arg) ->
          add line Poly_compare
            (Printf.sprintf
               "polymorphic %s at type %s (use the module's dedicated \
                compare/equal, or annotate the type)"
               (short_name name) (type_str arg))
      | _ -> ());
    if List.mem name poly_lookups then
      add line Poly_lookup
        (Printf.sprintf
           "%s compares with polymorphic compare at any key type (use \
            Elmo_prelude's Int_list at int keys, or a dedicated equality)"
           (short_name name));
    if name = "Stdlib.Hashtbl.create" then (
      match Types.get_desc (result_type ty) with
      | Types.Tconstr (_, key :: _, _) when not (type_primitive ~vars:true key) ->
          add line Poly_compare
            (Printf.sprintf
               "Hashtbl.create keyed by non-primitive type %s (polymorphic \
                hashing/equality; key through a primitive id instead)"
               (type_str key))
      | _ -> ());
    if List.mem name banned_raisers then
      add line Exception_discipline
        (Printf.sprintf
           "%s: raise a declared exception constructor instead (suppress \
            with a reason at genuine API-misuse boundaries)"
           (short_name name))
  in
  let expr (it : Tast_iterator.iterator) (e : Typedtree.expression) =
    let line = e.Typedtree.exp_loc.Location.loc_start.Lexing.pos_lnum in
    (match e.Typedtree.exp_desc with
    | Typedtree.Texp_ident (path, _, _) ->
        check_ident line path e.Typedtree.exp_type
    | Typedtree.Texp_assert (e', _) -> (
        match e'.Typedtree.exp_desc with
        | Typedtree.Texp_construct (_, cd, _)
          when cd.Types.cstr_name = "false" ->
            add line Exception_discipline
              "assert false: raise a declared exception constructor instead"
        | _ -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.structure it str;
  !found

(* ------------------------------------------------------------------ *)
(* Allocation analysis (zero-alloc)                                   *)

(* A binding annotated with [(* elmo-lint: zero-alloc *)] (on the binding's
   line or the line above) must not allocate on any path. Each top-level
   binding gets a summary: direct allocation sites (non-constant
   constructors, tuples, records, arrays, closures, partial applications,
   boxed floats, polymorphic-compare fallbacks) interleaved with the calls
   its body makes, in source order. Verdicts propagate interprocedurally
   across every module loaded into the lint run (targets and --deps), and
   the first allocating chain is reported as a witness anchored at the
   annotated definition. Suppressions ([allow zero-alloc — reason]) apply
   per event site, including inside callees.

   Soundness caveats (see DESIGN.md): structured constants are recognized
   as static data, but any local closure is flagged — lift helpers to the
   top level; value aliases ([let f = g]) and calls through function
   arguments are opaque and reported as unproven; cycles are assumed clean
   (a recursive group allocates only if some member has its own event). *)

type zevent =
  | Z_site of { z_line : int; z_desc : string }
  | Z_call of { z_line : int; z_path : string }

type fsummary = {
  f_mod : string;  (* short module name, after the wrapping prefix *)
  f_name : string;
  f_file : string;
  f_line : int;
  f_annotated : bool;
  f_events : zevent list;
}

type zverdict =
  | Z_clean
  | Z_bad of {
      bz_chain : (string * string) list;  (* (module, name) root..leaf *)
      bz_file : string;
      bz_line : int;
      bz_desc : string;
    }

(* "Elmo_core__Encoding" -> "Encoding"; unwrapped names pass through. *)
let short_mod m =
  let n = String.length m in
  let rec last i best =
    if i + 1 >= n then best
    else last (i + 1) (if m.[i] = '_' && m.[i + 1] = '_' then Some (i + 2) else best)
  in
  match last 0 None with Some j -> String.sub m j (n - j) | None -> m

(* Immutable structured constants are lifted to static data by the
   native compiler; extension constructors (exceptions) never are. *)
let rec constant_expr e =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_constant _ -> true
  | Typedtree.Texp_construct (_, cd, args) -> (
      match cd.Types.cstr_tag with
      | Types.Cstr_extension _ -> false
      | _ -> List.for_all constant_expr args)
  | Typedtree.Texp_tuple es -> List.for_all constant_expr es
  | Typedtree.Texp_variant (_, None) -> true
  | _ -> false

let is_float_ty ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> Path.same p Predef.path_float
  | _ -> false

let is_float_array_ty ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, [ elt ], _) ->
      Path.same p Predef.path_array && is_float_ty elt
  | _ -> false

(* Compare at an immediate (or float) representation compiles to a
   primitive without a caml_compare fallback and without boxing. *)
let compare_immediate ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) ->
      List.exists (Path.same p)
        Predef.[ path_int; path_char; path_bool; path_unit; path_float ]
  | _ -> false

let zcompare_ops =
  [ "Stdlib.="; "Stdlib.<>"; "Stdlib.compare"; "Stdlib.<"; "Stdlib.<=";
    "Stdlib.>"; "Stdlib.>="; "Stdlib.min"; "Stdlib.max" ]

(* Externals proven allocation-free: int/bool primitives plus the
   non-allocating accessors of the flat containers. Anything not listed
   here and not summarized in the loaded cmt set is reported as unproven. *)
let zclean_exact =
  [ "Stdlib.+"; "Stdlib.-"; "Stdlib.*"; "Stdlib./"; "Stdlib.mod";
    "Stdlib.land"; "Stdlib.lor"; "Stdlib.lxor"; "Stdlib.lnot";
    "Stdlib.lsl"; "Stdlib.lsr"; "Stdlib.asr"; "Stdlib.succ";
    "Stdlib.pred"; "Stdlib.abs"; "Stdlib.~-"; "Stdlib.~+"; "Stdlib.not";
    "Stdlib.&&"; "Stdlib.||"; "Stdlib.&"; "Stdlib.or"; "Stdlib.==";
    "Stdlib.!="; "Stdlib.ignore"; "Stdlib.fst"; "Stdlib.snd";
    "Stdlib.raise"; "Stdlib.raise_notrace"; "Stdlib.!"; "Stdlib.:=";
    "Stdlib.incr"; "Stdlib.decr" ]

let zclean_qualified =
  [ "Array.length"; "Array.get"; "Array.set"; "Array.unsafe_get";
    "Array.unsafe_set"; "Array.fill"; "Array.blit";
    "Bytes.length"; "Bytes.get"; "Bytes.set"; "Bytes.unsafe_get";
    "Bytes.unsafe_set"; "Bytes.fill"; "Bytes.blit";
    "String.length"; "String.get"; "String.unsafe_get";
    "Char.code"; "Char.chr"; "Char.unsafe_chr";
    "Int.equal"; "Int.compare";
    "List.length"; "List.compare_length_with"; "List.is_empty";
    "List.mem"; "List.memq";
    "Hashtbl.mem"; "Hashtbl.length";
    "Domain.DLS.get"; "Sys.opaque_identity" ]

let zclean path =
  List.mem path zclean_exact
  || List.exists
       (fun s -> path = s || String.ends_with ~suffix:("." ^ s) path)
       zclean_qualified

(* Well-known allocating externals, named for a sharper witness. *)
let zknown_allocators =
  [ ("Stdlib.^", "string append (^)");
    ("Stdlib.@", "list append (@)");
    ("Stdlib.^^", "format concat (^^)") ]

let mutable_record_literal fields =
  Array.exists
    (fun (ld, _) -> ld.Types.lbl_mut = Asttypes.Mutable)
    fields

(* Walk one function body collecting allocation events in source order.
   [suppressed] filters events whose line carries (or follows) an
   [allow zero-alloc] comment. *)
let collect_zevents ~suppressed bodies =
  let events = ref [] in
  let add_site line desc =
    if not (suppressed line) then
      events := Z_site { z_line = line; z_desc = desc } :: !events
  in
  let add_call line path =
    if not (suppressed line) then
      events := Z_call { z_line = line; z_path = path } :: !events
  in
  let expr (it : Tast_iterator.iterator) (e : Typedtree.expression) =
    let line = e.Typedtree.exp_loc.Location.loc_start.Lexing.pos_lnum in
    (match e.Typedtree.exp_desc with
    | Typedtree.Texp_function _ -> add_site line "closure"
    | Typedtree.Texp_tuple _ when not (constant_expr e) ->
        add_site line "tuple"
    | Typedtree.Texp_construct (_, cd, args) ->
        if args <> [] && not (constant_expr e) then
          add_site line ("constructor " ^ cd.Types.cstr_name)
    | Typedtree.Texp_variant (_, Some _) when not (constant_expr e) ->
        add_site line "polymorphic variant"
    | Typedtree.Texp_record { extended_expression = Some _; _ } ->
        add_site line "record copy ({ ... with ... })"
    | Typedtree.Texp_record { fields; _ } ->
        let static =
          (not (mutable_record_literal fields))
          && Array.for_all
               (fun (_, def) ->
                 match def with
                 | Typedtree.Overridden (_, e') -> constant_expr e'
                 | Typedtree.Kept _ -> false)
               fields
        in
        if not static then add_site line "record"
    | Typedtree.Texp_array [] -> ()
    | Typedtree.Texp_array _ -> add_site line "array literal"
    | Typedtree.Texp_lazy _ -> add_site line "lazy block"
    | Typedtree.Texp_pack _ -> add_site line "first-class module"
    | Typedtree.Texp_object _ -> add_site line "object"
    | Typedtree.Texp_new _ -> add_site line "object instantiation"
    | Typedtree.Texp_letop _ -> add_site line "binding operator (closure)"
    | Typedtree.Texp_field (_, _, lbl) -> (
        match lbl.Types.lbl_repres with
        | Types.Record_float -> add_site line "float record field read (boxes)"
        | _ -> ())
    | Typedtree.Texp_apply (fn0, args0) -> (
        (* Unwrap [f @@ x] and [x |> f] so the real callee is judged. *)
        let fn, args =
          match (fn0.Typedtree.exp_desc, args0) with
          | Typedtree.Texp_ident (p, _, _), [ (_, Some f); (_, Some x) ]
            when Path.name p = "Stdlib.@@" ->
              (f, [ (Asttypes.Nolabel, Some x) ])
          | Typedtree.Texp_ident (p, _, _), [ (_, Some x); (_, Some f) ]
            when Path.name p = "Stdlib.|>" ->
              (f, [ (Asttypes.Nolabel, Some x) ])
          | _ -> (fn0, args0)
        in
        let omitted =
          List.exists (fun (_, a) -> Option.is_none a) args
        in
        let partial =
          match Types.get_desc e.Typedtree.exp_type with
          | Types.Tarrow _ -> true
          | _ -> false
        in
        if omitted || partial then
          add_site line "partial application (closure)"
        else
          match fn.Typedtree.exp_desc with
          | Typedtree.Texp_ident (path, _, _) ->
              let name = Path.name path in
              if List.mem name zcompare_ops then (
                match first_arg_type fn.Typedtree.exp_type with
                | Some arg when not (compare_immediate arg) ->
                    add_site line
                      (Printf.sprintf
                         "polymorphic compare fallback at type %s"
                         (type_str arg))
                | _ -> ())
              else if
                (String.ends_with ~suffix:"Array.get" name
                || String.ends_with ~suffix:"Array.unsafe_get" name)
                && (match first_arg_type fn.Typedtree.exp_type with
                   | Some arg -> is_float_array_ty arg
                   | None -> false)
              then add_site line "float array read (boxes)"
              else add_call line name
          | _ -> add_site line "indirect call (not analyzed)")
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  List.iter (fun b -> it.expr it b) bodies;
  List.rev !events

(* Peel the curried [fun]-spine of a binding down to the body (or bodies:
   a final dispatch [function] contributes every case, guards included). *)
let rec peel_function e =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_function
      { cases = [ ({ Typedtree.c_guard = None; _ } as c) ]; _ } -> (
      match c.Typedtree.c_rhs.Typedtree.exp_desc with
      | Typedtree.Texp_let (Asttypes.Nonrecursive, vbs, inner)
        when List.exists
               (fun a -> a.Parsetree.attr_name.Location.txt = "#default")
               c.Typedtree.c_rhs.Typedtree.exp_attributes ->
          (* The [let]s that elaborate optional-argument defaults (marked
             [#default] by the type-checker) are fused into one n-ary
             function by the compiler: `fun ?(n = 1) name -> ...` takes two
             arguments, it does not return a closure. Peel through them;
             the default expressions still run per call, so they stay in
             the analyzed bodies. *)
          let bodies, _ = peel_function inner in
          (List.map (fun vb -> vb.Typedtree.vb_expr) vbs @ bodies, true)
      | _ ->
          let bodies, _ = peel_function c.Typedtree.c_rhs in
          (bodies, true))
  | Typedtree.Texp_function { cases; _ } ->
      ( List.concat_map
          (fun c ->
            (match c.Typedtree.c_guard with Some g -> [ g ] | None -> [])
            @ [ c.Typedtree.c_rhs ])
          cases,
        true )
  | _ -> ([ e ], false)

let summarize_binding ~self ~file ~suppressed ~marks vb =
  match vb.Typedtree.vb_pat.Typedtree.pat_desc with
  | Typedtree.Tpat_var (id, _) ->
      let line = vb.Typedtree.vb_loc.Location.loc_start.Lexing.pos_lnum in
      let bodies, is_fn = peel_function vb.Typedtree.vb_expr in
      let events = collect_zevents ~suppressed bodies in
      let events =
        if
          is_fn
          && is_float_ty
               (result_type vb.Typedtree.vb_expr.Typedtree.exp_type)
          && not (suppressed line)
        then
          Z_site
            { z_line = line; z_desc = "boxed float result" }
          :: events
        else events
      in
      Some
        {
          f_mod = self;
          f_name = Ident.name id;
          f_file = file;
          f_line = line;
          f_annotated = List.mem line marks || List.mem (line - 1) marks;
          f_events = events;
        }
  | _ -> None

(* [Stdlib.List.length] -> ("List", "length"); unqualified -> [self]. *)
let zresolve_key ~self path_name =
  match List.rev (String.split_on_char '.' path_name) with
  | name :: md :: _ -> (md, name)
  | [ name ] -> (self, name)
  | [] -> (self, path_name)

let zero_alloc_findings mods allows_for =
  let summaries =
    List.concat_map
      (fun m ->
        match (m.structure, m.source) with
        | Some str, Some file ->
            let scan = allows_for m in
            let za_lines =
              List.filter_map
                (fun a ->
                  if a.a_rule = "zero-alloc" then Some a.a_line else None)
                scan.fs_allows
            in
            let suppressed l =
              List.exists (fun a -> a = l || a = l - 1) za_lines
            in
            let self = short_mod m.modname in
            (* Recurse into submodule structures so e.g. [Bitio.Sink.bits]
               gets a summary keyed ("Sink", "bits") — matching
               [zresolve_key], which keeps the last two path components. *)
            let rec items_under self items =
              List.concat_map
                (fun item ->
                  match item.Typedtree.str_desc with
                  | Typedtree.Tstr_value (_, vbs) ->
                      List.filter_map
                        (fun vb ->
                          match
                            summarize_binding ~self ~file ~suppressed
                              ~marks:scan.fs_marks vb
                          with
                          | Some fs -> Some (fs, m.is_target)
                          | None -> None)
                        vbs
                  | Typedtree.Tstr_module mb -> (
                      let rec structure_of me =
                        match me.Typedtree.mod_desc with
                        | Typedtree.Tmod_structure s -> Some s
                        | Typedtree.Tmod_constraint (me', _, _, _) ->
                            structure_of me'
                        | _ -> None
                      in
                      match (mb.Typedtree.mb_id, structure_of mb.mb_expr) with
                      | Some id, Some s ->
                          items_under (Ident.name id) s.Typedtree.str_items
                      | _ -> [])
                  | _ -> [])
                items
            in
            items_under self str.Typedtree.str_items
        | _ -> [])
      mods
  in
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun (fs, _) -> Hashtbl.replace tbl (fs.f_mod, fs.f_name) fs)
    summaries;
  (* Fixpoint with an in-progress marker: a cycle member is clean unless
     some member carries its own event. *)
  let memo = Hashtbl.create 256 in
  let rec eval key fs =
    match Hashtbl.find_opt memo key with
    | Some (Some v) -> v
    | Some None -> Z_clean
    | None ->
        Hashtbl.add memo key None;
        let rec scan = function
          | [] -> Z_clean
          | Z_site s :: _ ->
              Z_bad
                {
                  bz_chain = [ (fs.f_mod, fs.f_name) ];
                  bz_file = fs.f_file;
                  bz_line = s.z_line;
                  bz_desc = s.z_desc;
                }
          | Z_call c :: rest -> (
              let ckey = zresolve_key ~self:fs.f_mod c.z_path in
              match Hashtbl.find_opt tbl ckey with
              | Some callee -> (
                  match eval ckey callee with
                  | Z_clean -> scan rest
                  | Z_bad b ->
                      Z_bad
                        {
                          b with
                          bz_chain = (fs.f_mod, fs.f_name) :: b.bz_chain;
                        })
              | None ->
                  if zclean c.z_path then scan rest
                  else
                    let desc =
                      match List.assoc_opt c.z_path zknown_allocators with
                      | Some d -> d
                      | None ->
                          Printf.sprintf
                            "call to %s (no summary; not on the \
                             clean-extern whitelist)"
                            (short_name c.z_path)
                    in
                    Z_bad
                      {
                        bz_chain = [ (fs.f_mod, fs.f_name) ];
                        bz_file = fs.f_file;
                        bz_line = c.z_line;
                        bz_desc = desc;
                      })
        in
        let v = scan fs.f_events in
        Hashtbl.replace memo key (Some v);
        v
  in
  List.filter_map
    (fun (fs, is_target) ->
      if not (is_target && fs.f_annotated) then None
      else
        match eval (fs.f_mod, fs.f_name) fs with
        | Z_clean -> None
        | Z_bad b ->
            let pp_hop (m, n) =
              if m = fs.f_mod then n else m ^ "." ^ n
            in
            let chain =
              String.concat " \xe2\x86\x92 " (List.map pp_hop b.bz_chain)
            in
            Some
              {
                file = fs.f_file;
                line = fs.f_line;
                rule = Zero_alloc;
                message =
                  Printf.sprintf "%s allocates %s (%s:%d)" chain b.bz_desc
                    b.bz_file b.bz_line;
              })
    summaries

(* ------------------------------------------------------------------ *)
(* Analysis driver                                                    *)

let analyze ?(config = default_config) ?source_root ~targets ?(deps = []) ()
    =
  let mods =
    List.map (load_cmt ?source_root ~is_target:true) targets
    @ List.map (load_cmt ?source_root ~is_target:false) deps
  in
  let allows_cache = Hashtbl.create 64 in
  let allows_for m =
    match m.source_abs with
    | None -> empty_scan
    | Some path -> (
        match Hashtbl.find_opt allows_cache path with
        | Some l -> l
        | None ->
            let l = try scan_file path with Sys_error _ -> empty_scan in
            Hashtbl.add allows_cache path l;
            l)
  in
  let findings = ref [] in
  let emit m line rule message =
    match m.source with
    | None -> ()
    | Some file -> findings := { file; line; rule; message } :: !findings
  in
  (* Per-target expression scan. *)
  List.iter
    (fun m ->
      match (m.is_target, m.structure, m.source) with
      | true, Some str, Some src ->
          List.iter
            (fun (line, rule, msg) ->
              let in_scope =
                match rule with
                | Determinism -> config.determinism_scope src
                | Poly_compare | Poly_lookup -> config.poly_scope src
                | Exception_discipline -> config.exn_scope src
                | _ -> false
              in
              if in_scope then emit m line rule msg)
            (scan_expressions str)
      | _ -> ())
    mods;
  (* Interface hygiene: an implementation cmt without a sibling cmti means
     the module ships no .mli. *)
  List.iter
    (fun m ->
      match (m.is_target, m.structure, m.source) with
      | true, Some _, Some src when config.iface_scope src ->
          let cmti = Filename.remove_extension m.cmt_path ^ ".cmti" in
          if not (Sys.file_exists cmti) then
            emit m 1 Interface_hygiene
              (Printf.sprintf
                 "module %s has no .mli interface (every lib/ module must \
                  declare its surface)"
                 m.modname)
      | _ -> ())
    mods;
  (* Zero-alloc: annotated bindings in target modules must not allocate;
     summaries span the whole loaded cmt set so callees resolve. *)
  List.iter
    (fun f -> findings := f :: !findings)
    (zero_alloc_findings mods allows_for);
  (* Suppressions: drop findings with a matching allow on the same or the
     preceding line; bare allows surface as findings of their own. *)
  let file_allows = Hashtbl.create 64 in
  List.iter
    (fun m ->
      match m.source with
      | Some src when not (Hashtbl.mem file_allows src) ->
          Hashtbl.add file_allows src ((allows_for m).fs_allows, m.is_target)
      | _ -> ())
    mods;
  let kept =
    List.filter
      (fun f ->
        match Hashtbl.find_opt file_allows f.file with
        | None -> true
        | Some (allows, _) ->
            not
              (List.exists
                 (fun a ->
                   a.a_rule = rule_id f.rule
                   && (a.a_line = f.line || a.a_line = f.line - 1))
                 allows))
      !findings
  in
  let bare =
    Hashtbl.fold
      (fun src (allows, is_target) acc ->
        if not is_target then acc
        else
          List.filter_map
            (fun a ->
              match rule_of_id a.a_rule with
              | None ->
                  (* A typo'd rule-id suppresses nothing — surface it
                     loudly rather than letting the author believe the
                     finding is handled. *)
                  Some
                    {
                      file = src;
                      line = a.a_line;
                      rule = Bare_allow;
                      message =
                        Printf.sprintf
                          "allow names unknown rule '%s' — nothing is \
                           suppressed (known rules: determinism, \
                           poly-compare, poly-lookup, exception-discipline, \
                           interface-hygiene, zero-alloc)"
                          a.a_rule;
                    }
              | Some _ ->
                  if a.a_reasoned then None
                  else
                    Some
                      {
                        file = src;
                        line = a.a_line;
                        rule = Bare_allow;
                        message =
                          Printf.sprintf
                            "suppression of [%s] carries no reason (write \
                             'elmo-lint: allow %s — <why>')"
                            a.a_rule a.a_rule;
                      })
            allows
          @ acc)
      file_allows []
  in
  List.sort
    (fun a b ->
      match compare a.file b.file with
      | 0 -> (
          match compare a.line b.line with
          | 0 -> compare (rule_id a.rule) (rule_id b.rule)
          | c -> c)
      | c -> c)
    (kept @ bare)
