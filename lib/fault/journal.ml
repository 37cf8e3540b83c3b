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

(* {1 Durable wire codec}

   An op's tag is its constructor's position in [op]: Add_group is 0,
   Recover_link 9. *)

let op_shape =
  let open Byteio.Codec in
  let member = pair int Controller.role_codec in
  let one = case int and two = case (pair int int) in
  variant
    [
      case (pair int (list member))
        (fun (group, members) -> Add_group { group; members })
        (function
          | Add_group { group; members } -> Some (group, members) | _ -> None);
      one
        (fun group -> Remove_group { group })
        (function Remove_group { group } -> Some group | _ -> None);
      case (pair int member)
        (fun (group, (host, role)) -> Join { group; host; role })
        (function
          | Join { group; host; role } -> Some (group, (host, role))
          | _ -> None);
      two
        (fun (group, host) -> Leave { group; host })
        (function Leave { group; host } -> Some (group, host) | _ -> None);
      one (fun s -> Fail_spine s) (function Fail_spine s -> Some s | _ -> None);
      one
        (fun s -> Recover_spine s)
        (function Recover_spine s -> Some s | _ -> None);
      one (fun c -> Fail_core c) (function Fail_core c -> Some c | _ -> None);
      one
        (fun c -> Recover_core c)
        (function Recover_core c -> Some c | _ -> None);
      two
        (fun (leaf, plane) -> Fail_link { leaf; plane })
        (function Fail_link { leaf; plane } -> Some (leaf, plane) | _ -> None);
      two
        (fun (leaf, plane) -> Recover_link { leaf; plane })
        (function
          | Recover_link { leaf; plane } -> Some (leaf, plane) | _ -> None);
    ]

let op_codec ~topo = Byteio.Codec.where (valid_op ~topo) op_shape

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
