(* elmo-lint CLI: lints the typed ASTs (.cmt) of the modules it is given.

   Usage:
     elmo_lint [--all-scopes] [--source-root DIR]
       --targets a.cmt b.cmt ... [--deps c.cmt ...]

   --source-root points at the directory holding the workspace-relative
   sources (for suppression-comment scanning) when the linter is not run
   from the workspace root — dune lint rules pass %{workspace_root}.

   Targets are linted; deps only extend the zero-alloc summaries (so an
   annotated binding in a target is judged through the callees it reaches
   in a dependency). Exit status: 0 clean, 1 findings,
   2 usage or I/O error. Findings print as [path:line: [rule-id] message]
   with workspace-relative paths, so editors can jump straight to them. *)

type mode = Targets | Deps | Source_root

let () =
  let targets = ref [] and deps = ref [] in
  let all_scopes = ref false in
  let source_root = ref None in
  let mode = ref Targets in
  let usage () =
    prerr_endline
      "usage: elmo_lint [--all-scopes] [--source-root DIR] --targets CMT... \
       [--deps CMT...]";
    exit 2
  in
  Array.iteri
    (fun i arg ->
      if i > 0 then
        match arg with
        | "--targets" -> mode := Targets
        | "--deps" -> mode := Deps
        | "--source-root" -> mode := Source_root
        | "--all-scopes" -> all_scopes := true
        | "--help" | "-h" -> usage ()
        | _ when String.length arg > 0 && arg.[0] = '-' -> usage ()
        | path -> (
            match !mode with
            | Targets -> targets := path :: !targets
            | Deps -> deps := path :: !deps
            | Source_root ->
                source_root := Some path;
                mode := Targets))
    Sys.argv;
  if !targets = [] then usage ();
  let config = if !all_scopes then Lint.all_config else Lint.default_config in
  match
    Lint.analyze ~config ?source_root:!source_root
      ~targets:(List.rev !targets) ~deps:(List.rev !deps) ()
  with
  | [] -> ()
  | findings ->
      List.iter
        (fun f -> Format.printf "%a@." Lint.pp_finding f)
        findings;
      Format.printf "elmo-lint: %d finding(s)@." (List.length findings);
      exit 1
  | exception Failure msg ->
      prerr_endline msg;
      exit 2
