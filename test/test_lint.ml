(* Fixture-driven tests for elmo-lint (tools/lint): each deliberately-bad
   module under lint_fixtures/ must produce exactly the expected findings —
   rule id, file and line — and the clean/suppressed fixtures none.

   The fixture cmts are built next to the test binary (_build/default/test)
   and the copied sources (scanned for suppression comments) live one level
   up. Both are addressed from the binary's own path, so the suite passes
   from any working directory. *)

let here = Filename.dirname Sys.executable_name
let cmt m = Filename.concat here ("lint_fixtures/.lint_fixtures.objs/byte/" ^ m ^ ".cmt")
let src m = "test/lint_fixtures/" ^ m ^ ".ml"

let analyze ?(deps = []) mods =
  Lint.analyze ~config:Lint.all_config ~source_root:(Filename.concat here "..")
    ~targets:(List.map cmt mods) ~deps:(List.map cmt deps) ()

let triples findings =
  List.map
    (fun f -> (f.Lint.file, f.Lint.line, Lint.rule_id f.Lint.rule))
    findings

let check name expected actual =
  Alcotest.(check (list (triple string int string))) name expected
    (triples actual)

let test_determinism () =
  check "bad_random"
    [
      (src "bad_random", 2, "determinism");
      (src "bad_random", 3, "determinism");
      (src "bad_random", 4, "determinism");
    ]
    (analyze [ "bad_random" ])

let test_determinism_wall_clock () =
  (* Raw [Unix.gettimeofday] is caught wherever it appears; only the one
     reasoned allow inside Elmo_obs.Clock is sanctioned. *)
  check "bad_clock"
    [
      (src "bad_clock", 3, "determinism");
      (src "bad_clock", 4, "determinism");
    ]
    (analyze [ "bad_clock" ])

let test_poly_compare () =
  (* Line 12 is the fabric's delivery sort as it was, generic over
     ['a array]: a comparison at a type variable. A Hashtbl keyed at a type
     variable (13) and comparisons at [int] (14) pass. *)
  check "bad_poly_compare"
    [
      (src "bad_poly_compare", 6, "poly-compare");
      (src "bad_poly_compare", 7, "poly-compare");
      (src "bad_poly_compare", 8, "poly-compare");
      (src "bad_poly_compare", 9, "poly-compare");
      (src "bad_poly_compare", 10, "poly-compare");
      (src "bad_poly_compare", 11, "poly-compare");
      (src "bad_poly_compare", 12, "poly-compare");
    ]
    (analyze [ "bad_poly_compare" ])

let test_poly_lookup () =
  (* Int keys too: the stdlib lookups call caml_compare at every type. A
     lookup through a monomorphic equality passes. *)
  check "bad_poly_lookup"
    [
      (src "bad_poly_lookup", 3, "poly-lookup");
      (src "bad_poly_lookup", 4, "poly-lookup");
      (src "bad_poly_lookup", 5, "poly-lookup");
      (src "bad_poly_lookup", 6, "poly-lookup");
      (src "bad_poly_lookup", 7, "poly-lookup");
    ]
    (analyze [ "bad_poly_lookup" ])

let test_exception_discipline () =
  check "bad_failwith"
    [
      (src "bad_failwith", 2, "exception-discipline");
      (src "bad_failwith", 3, "exception-discipline");
      (src "bad_failwith", 4, "exception-discipline");
    ]
    (analyze [ "bad_failwith" ])

let messages findings = List.map (fun f -> f.Lint.message) findings

(* {1 Deps: context for zero-alloc summaries only} *)

let test_zero_alloc_without_deps () =
  (* Callees in modules that are not loaded have no summary: both entries
     are unproven. *)
  let findings = analyze [ "za_cross" ] in
  check "cross-module callees unproven"
    [ (src "za_cross", 6, "zero-alloc"); (src "za_cross", 9, "zero-alloc") ]
    findings;
  Alcotest.(check (list string))
    "witnesses name the unsummarized callees"
    [
      "total allocates call to Za_clean.sum_to (no summary; not on the \
       clean-extern whitelist) (test/lint_fixtures/za_cross.ml:6)";
      "leaky allocates call to Za_indirect.helper (no summary; not on the \
       clean-extern whitelist) (test/lint_fixtures/za_cross.ml:9)";
    ]
    (messages findings)

let test_zero_alloc_across_deps () =
  (* With the callees' modules as deps, the clean entry is proven and the
     leaky one's witness runs into the dep. *)
  let findings = analyze ~deps:[ "za_clean"; "za_indirect" ] [ "za_cross" ] in
  check "only the allocating chain is reported"
    [ (src "za_cross", 9, "zero-alloc") ]
    findings;
  Alcotest.(check (list string))
    "witness crosses into the dep"
    [
      "leaky \xe2\x86\x92 Za_indirect.helper allocates constructor :: \
       (test/lint_fixtures/za_indirect.ml:4)";
    ]
    (messages findings)

let test_deps_are_context_only () =
  check "findings in deps are not reported" []
    (analyze ~deps:[ "bad_random"; "bad_failwith"; "za_alloc" ] [ "clean" ])

let test_interface_hygiene () =
  check "bad_no_mli"
    [ (src "bad_no_mli", 1, "interface-hygiene") ]
    (analyze [ "bad_no_mli" ])

let test_suppression_with_reason () =
  check "reasoned allow silences the finding" [] (analyze [ "suppressed_ok" ])

let test_suppression_without_reason () =
  check "bare allow silences the finding but is itself reported"
    [ (src "suppressed_bare", 3, "bare-allow") ]
    (analyze [ "suppressed_bare" ])

let test_clean () = check "clean fixture" [] (analyze [ "clean" ])

let test_zero_alloc_direct () =
  let findings = analyze [ "za_alloc" ] in
  check "annotated fn allocating directly"
    [ (src "za_alloc", 4, "zero-alloc") ]
    findings;
  Alcotest.(check (list string))
    "witness names the construct and the allocating site"
    [ "bad_pair allocates tuple (test/lint_fixtures/za_alloc.ml:4)" ]
    (messages findings)

let test_zero_alloc_interprocedural () =
  (* The allocation lives in the callee; the finding anchors at the
     annotated entry and the witness spells out the call chain. *)
  let findings = analyze [ "za_indirect" ] in
  check "allocation reached only through a callee"
    [ (src "za_indirect", 7, "zero-alloc") ]
    findings;
  Alcotest.(check (list string))
    "call-chain witness"
    [
      "entry \xe2\x86\x92 helper allocates constructor :: \
       (test/lint_fixtures/za_indirect.ml:4)";
    ]
    (messages findings)

let test_zero_alloc_suppressed () =
  check "reasoned allow silences the cold slow path" []
    (analyze [ "za_suppressed" ])

let test_zero_alloc_clean () =
  check "clean kernel has no findings" [] (analyze [ "za_clean" ])

let test_unknown_rule_in_allow () =
  (* A typo'd rule-id would otherwise silently suppress nothing. *)
  let findings = analyze [ "suppressed_typo" ] in
  check "unknown rule-id in allow is flagged"
    [ (src "suppressed_typo", 4, "bare-allow") ]
    findings;
  match messages findings with
  | [ msg ] ->
      Alcotest.(check bool) "message names the bogus id" true
        (Astring.String.is_infix ~affix:"unknown rule 'zero-aloc'" msg)
  | other ->
      Alcotest.failf "expected one finding, got %d" (List.length other)

let all_fixtures =
  [
    "bad_clock";
    "bad_failwith";
    "bad_no_mli";
    "bad_poly_compare";
    "bad_poly_lookup";
    "bad_random";
    "clean";
    "suppressed_bare";
    "suppressed_ok";
    "suppressed_typo";
    "za_alloc";
    "za_clean";
    "za_cross";
    "za_indirect";
    "za_suppressed";
  ]

let test_aggregate () =
  check "whole fixture set, sorted by file/line/rule"
    [
      (src "bad_clock", 3, "determinism");
      (src "bad_clock", 4, "determinism");
      (src "bad_failwith", 2, "exception-discipline");
      (src "bad_failwith", 3, "exception-discipline");
      (src "bad_failwith", 4, "exception-discipline");
      (src "bad_no_mli", 1, "interface-hygiene");
      (src "bad_poly_compare", 6, "poly-compare");
      (src "bad_poly_compare", 7, "poly-compare");
      (src "bad_poly_compare", 8, "poly-compare");
      (src "bad_poly_compare", 9, "poly-compare");
      (src "bad_poly_compare", 10, "poly-compare");
      (src "bad_poly_compare", 11, "poly-compare");
      (src "bad_poly_compare", 12, "poly-compare");
      (src "bad_poly_lookup", 3, "poly-lookup");
      (src "bad_poly_lookup", 4, "poly-lookup");
      (src "bad_poly_lookup", 5, "poly-lookup");
      (src "bad_poly_lookup", 6, "poly-lookup");
      (src "bad_poly_lookup", 7, "poly-lookup");
      (src "bad_random", 2, "determinism");
      (src "bad_random", 3, "determinism");
      (src "bad_random", 4, "determinism");
      (src "suppressed_bare", 3, "bare-allow");
      (src "suppressed_typo", 4, "bare-allow");
      (src "za_alloc", 4, "zero-alloc");
      (src "za_cross", 9, "zero-alloc");
      (src "za_indirect", 7, "zero-alloc");
    ]
    (analyze all_fixtures)

let test_rule_id_roundtrip () =
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Lint.rule_id r ^ " roundtrips")
        true
        (Lint.rule_of_id (Lint.rule_id r) = Some r))
    [
      Lint.Determinism;
      Lint.Poly_compare;
      Lint.Poly_lookup;
      Lint.Exception_discipline;
      Lint.Interface_hygiene;
      Lint.Zero_alloc;
      Lint.Bare_allow;
    ];
  Alcotest.(check bool) "unknown id" true (Lint.rule_of_id "no-such-rule" = None)

let test_pp_finding () =
  let f =
    { Lint.file = "lib/core/x.ml"; line = 7; rule = Lint.Determinism;
      message = "msg" }
  in
  Alcotest.(check string) "editor-clickable format"
    "lib/core/x.ml:7: [determinism] msg"
    (Format.asprintf "%a" Lint.pp_finding f)

let tests =
  [
    Alcotest.test_case "determinism rule" `Quick test_determinism;
    Alcotest.test_case "determinism catches wall clock" `Quick
      test_determinism_wall_clock;
    Alcotest.test_case "poly-compare rule" `Quick test_poly_compare;
    Alcotest.test_case "exception-discipline rule" `Quick
      test_exception_discipline;
    Alcotest.test_case "zero-alloc without deps" `Quick
      test_zero_alloc_without_deps;
    Alcotest.test_case "zero-alloc across deps" `Quick
      test_zero_alloc_across_deps;
    Alcotest.test_case "deps are context only" `Quick test_deps_are_context_only;
    Alcotest.test_case "interface-hygiene rule" `Quick test_interface_hygiene;
    Alcotest.test_case "reasoned suppression" `Quick
      test_suppression_with_reason;
    Alcotest.test_case "bare suppression" `Quick
      test_suppression_without_reason;
    Alcotest.test_case "clean fixture" `Quick test_clean;
    Alcotest.test_case "zero-alloc direct allocation" `Quick
      test_zero_alloc_direct;
    Alcotest.test_case "zero-alloc via callee" `Quick
      test_zero_alloc_interprocedural;
    Alcotest.test_case "zero-alloc suppressed slow path" `Quick
      test_zero_alloc_suppressed;
    Alcotest.test_case "zero-alloc clean kernel" `Quick test_zero_alloc_clean;
    Alcotest.test_case "unknown rule-id in allow" `Quick
      test_unknown_rule_in_allow;
    Alcotest.test_case "aggregate ordering" `Quick test_aggregate;
    Alcotest.test_case "rule id roundtrip" `Quick test_rule_id_roundtrip;
    Alcotest.test_case "finding format" `Quick test_pp_finding;
    Alcotest.test_case "poly-lookup rule" `Quick test_poly_lookup;
  ]
