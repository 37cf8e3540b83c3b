type op =
  | Add_group of { group : int; members : (int * Controller.role) list }
  | Remove_group of { group : int }
  | Join of { group : int; host : int; role : Controller.role }
  | Leave of { group : int; host : int }
  | Fail_spine of int
  | Recover_spine of int
  | Fail_core of int
  | Recover_core of int
  | Fail_link of { leaf : int; plane : int }
  | Recover_link of { leaf : int; plane : int }

let apply ctrl op =
  match op with
  | Add_group { group; members } ->
      ignore (Controller.add_group ctrl ~group members : Controller.updates)
  | Remove_group { group } ->
      ignore (Controller.remove_group ctrl ~group : Controller.updates)
  | Join { group; host; role } ->
      ignore (Controller.join ctrl ~group ~host ~role : Controller.updates)
  | Leave { group; host } ->
      ignore (Controller.leave ctrl ~group ~host : Controller.updates)
  | Fail_spine s ->
      ignore (Controller.fail_spine ctrl s : Controller.failure_report)
  | Recover_spine s ->
      ignore (Controller.recover_spine ctrl s : Controller.failure_report)
  | Fail_core c ->
      ignore (Controller.fail_core ctrl c : Controller.failure_report)
  | Recover_core c ->
      ignore (Controller.recover_core ctrl c : Controller.failure_report)
  | Fail_link { leaf; plane } ->
      ignore (Controller.fail_link ctrl ~leaf ~plane : Controller.failure_report)
  | Recover_link { leaf; plane } ->
      ignore
        (Controller.recover_link ctrl ~leaf ~plane : Controller.failure_report)

(* {1 Admission}

   The one id-range check. Both boundaries an op crosses call it: a
   decoded record (a flipped bit must surface as a corrupt record at load
   time, not an exception mid-replay) and a live op about to be logged
   (an op the controller refuses must never reach the log). *)

let valid_op ~topo op =
  let host h = 0 <= h && h < Topology.num_hosts topo in
  let spine s = 0 <= s && s < Topology.num_spines topo in
  let core c = 0 <= c && c < max 1 (Topology.num_cores topo) in
  match op with
  | Add_group { group; members } ->
      group >= 0 && List.for_all (fun (h, _) -> host h) members
  | Remove_group { group } -> group >= 0
  | Join { group; host = h; _ } | Leave { group; host = h } ->
      group >= 0 && host h
  | Fail_spine s | Recover_spine s -> spine s
  | Fail_core c | Recover_core c -> core c
  | Fail_link { leaf; plane } | Recover_link { leaf; plane } ->
      0 <= leaf
      && leaf < Topology.num_leaves topo
      && 0 <= plane
      && plane < topo.Topology.spines_per_pod

let admit ctrl op =
  (match op with
  | Add_group { group; members } -> Controller.check_add_group ctrl ~group members
  | Remove_group { group } -> Controller.check_remove_group ctrl ~group
  | Join { group; host; _ } -> Controller.check_join ctrl ~group ~host
  | Leave { group; host } -> Controller.check_leave ctrl ~group ~host
  | Fail_spine _ | Recover_spine _ | Fail_core _ | Recover_core _
  | Fail_link _ | Recover_link _ ->
      ());
  if not (valid_op ~topo:(Controller.topology ctrl) op) then
    invalid_arg "index out of bounds"

(* {1 Durable wire codec} *)

let write_role w = function
  | Controller.Sender -> Byteio.Writer.u8 w 0
  | Controller.Receiver -> Byteio.Writer.u8 w 1
  | Controller.Both -> Byteio.Writer.u8 w 2

let read_role r =
  match Byteio.Reader.u8 r with
  | 0 -> Controller.Sender
  | 1 -> Controller.Receiver
  | 2 -> Controller.Both
  | _ -> raise Byteio.Reader.Corrupt

let write_op w op =
  match op with
  | Add_group { group; members } ->
      Byteio.Writer.u8 w 0;
      Byteio.Writer.int w group;
      Byteio.Writer.list w
        (fun w (h, role) ->
          Byteio.Writer.int w h;
          write_role w role)
        members
  | Remove_group { group } ->
      Byteio.Writer.u8 w 1;
      Byteio.Writer.int w group
  | Join { group; host; role } ->
      Byteio.Writer.u8 w 2;
      Byteio.Writer.int w group;
      Byteio.Writer.int w host;
      write_role w role
  | Leave { group; host } ->
      Byteio.Writer.u8 w 3;
      Byteio.Writer.int w group;
      Byteio.Writer.int w host
  | Fail_spine s ->
      Byteio.Writer.u8 w 4;
      Byteio.Writer.int w s
  | Recover_spine s ->
      Byteio.Writer.u8 w 5;
      Byteio.Writer.int w s
  | Fail_core c ->
      Byteio.Writer.u8 w 6;
      Byteio.Writer.int w c
  | Recover_core c ->
      Byteio.Writer.u8 w 7;
      Byteio.Writer.int w c
  | Fail_link { leaf; plane } ->
      Byteio.Writer.u8 w 8;
      Byteio.Writer.int w leaf;
      Byteio.Writer.int w plane
  | Recover_link { leaf; plane } ->
      Byteio.Writer.u8 w 9;
      Byteio.Writer.int w leaf;
      Byteio.Writer.int w plane

let read_op ~topo r =
  let int = Byteio.Reader.int in
  let op =
    match Byteio.Reader.u8 r with
    | 0 ->
        let group = int r in
        let members =
          Byteio.Reader.list r (fun rd ->
              let h = int rd in
              let role = read_role rd in
              (h, role))
        in
        Add_group { group; members }
    | 1 -> Remove_group { group = int r }
    | 2 ->
        let group = int r in
        let host = int r in
        let role = read_role r in
        Join { group; host; role }
    | 3 ->
        let group = int r in
        let host = int r in
        Leave { group; host }
    | 4 -> Fail_spine (int r)
    | 5 -> Recover_spine (int r)
    | 6 -> Fail_core (int r)
    | 7 -> Recover_core (int r)
    | 8 ->
        let leaf = int r in
        let plane = int r in
        Fail_link { leaf; plane }
    | 9 ->
        let leaf = int r in
        let plane = int r in
        Recover_link { leaf; plane }
    | _ -> raise Byteio.Reader.Corrupt
  in
  Byteio.Reader.check (valid_op ~topo op);
  op

let pp_op ppf = function
  | Add_group { group; members } ->
      Format.fprintf ppf "add_group %d (%d members)" group (List.length members)
  | Remove_group { group } -> Format.fprintf ppf "remove_group %d" group
  | Join { group; host; _ } -> Format.fprintf ppf "join %d host %d" group host
  | Leave { group; host } -> Format.fprintf ppf "leave %d host %d" group host
  | Fail_spine s -> Format.fprintf ppf "fail_spine %d" s
  | Recover_spine s -> Format.fprintf ppf "recover_spine %d" s
  | Fail_core c -> Format.fprintf ppf "fail_core %d" c
  | Recover_core c -> Format.fprintf ppf "recover_core %d" c
  | Fail_link { leaf; plane } -> Format.fprintf ppf "fail_link %d.%d" leaf plane
  | Recover_link { leaf; plane } ->
      Format.fprintf ppf "recover_link %d.%d" leaf plane
