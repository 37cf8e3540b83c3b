type t = {
  git_rev : string;
  cores : int;
  domains : int;
  seed : int option;
  params : string option;
  clock : string;
}

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "unknown" in
    match Unix.close_process_in ic with Unix.WEXITED 0 -> line | _ -> "unknown"
  with Unix.Unix_error _ | Sys_error _ -> "unknown"

let capture ?seed ?params ?(domains = 1) () =
  {
    git_rev = git_rev ();
    cores = Domain.recommended_domain_count ();
    domains;
    seed;
    params;
    clock = Clock.kind_to_string (Clock.kind_of_env ());
  }

let to_json t =
  let opt f = Option.fold ~none:Jsonx.Null ~some:f in
  Jsonx.to_string
    (Obj
       [
         ("git_rev", Str t.git_rev);
         ("cores", Int t.cores);
         ("domains", Int t.domains);
         ("seed", opt (fun s -> Jsonx.Int s) t.seed);
         ("params", opt (fun p -> Jsonx.Str p) t.params);
         ("clock", Str t.clock);
       ])

let pp ppf t =
  Format.fprintf ppf "rev=%s cores=%d domains=%d%s%s clock=%s" t.git_rev
    t.cores t.domains
    (match t.seed with Some s -> Printf.sprintf " seed=%d" s | None -> "")
    (match t.params with Some p -> " params=[" ^ p ^ "]" | None -> "")
    t.clock
