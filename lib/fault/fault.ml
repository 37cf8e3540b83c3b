type outcome = Applied | Timeout | Refused | Dropped

type schedule =
  | Reliable
  | Random of { rng : Rng.t; timeout : float; refuse : float; drop : float }
  | Scripted of outcome list

type stats = {
  attempts : int;
  applied : int;
  timeouts : int;
  refusals : int;
  drops : int;
}

type t = {
  fabric : Fabric.t;
  schedule : schedule;
  mutable script : outcome list;  (* Scripted consumption, in op order *)
  wedged_leaf : bool array;
  wedged_pod : bool array;
  mutable attempts : int;
  mutable applied : int;
  mutable timeouts : int;
  mutable refusals : int;
  mutable drops : int;
}

let create ?(schedule = Reliable) fabric =
  let topo = Fabric.topology fabric in
  {
    fabric;
    schedule;
    script = (match schedule with Scripted ops -> ops | Reliable | Random _ -> []);
    wedged_leaf = Array.make (Topology.num_leaves topo) false;
    wedged_pod = Array.make topo.Topology.pods false;
    attempts = 0;
    applied = 0;
    timeouts = 0;
    refusals = 0;
    drops = 0;
  }

let random rng ~rate =
  Random { rng; timeout = rate /. 2.0; refuse = rate /. 4.0; drop = rate /. 4.0 }

let stats t =
  {
    attempts = t.attempts;
    applied = t.applied;
    timeouts = t.timeouts;
    refusals = t.refusals;
    drops = t.drops;
  }

let wedge_leaf t l v = t.wedged_leaf.(l) <- v
let wedge_pod t p v = t.wedged_pod.(p) <- v

let next_outcome t =
  match t.schedule with
  | Reliable -> Applied
  | Random { rng; timeout; refuse; drop } ->
      let x = Rng.float rng 1.0 in
      if x < timeout then Timeout
      else if x < timeout +. refuse then Refused
      else if x < timeout +. refuse +. drop then Dropped
      else Applied
  | Scripted _ -> (
      match t.script with
      | [] -> Applied
      | o :: rest ->
          t.script <- rest;
          o)

(* One faulted mutation. A wedged switch refuses installs before the
   schedule is even consulted (and without consuming a scripted outcome);
   otherwise the schedule decides: [Applied] performs and acknowledges,
   [Timeout]/[Refused] fail without performing, and [Dropped] — the
   insidious one — acknowledges without performing, which only the
   controller's read-back verification can catch. *)
let mutate t ~wedged perform =
  t.attempts <- t.attempts + 1;
  match if wedged then Refused else next_outcome t with
  | Applied ->
      perform ();
      t.applied <- t.applied + 1;
      Ok ()
  | Timeout ->
      t.timeouts <- t.timeouts + 1;
      Error Controller.Timed_out
  | Refused ->
      t.refusals <- t.refusals + 1;
      Error Controller.Refused
  | Dropped ->
      t.drops <- t.drops + 1;
      Ok ()

let hooks t =
  {
    Controller.install_leaf =
      (fun ~leaf ~group bm ->
        mutate t ~wedged:t.wedged_leaf.(leaf) (fun () ->
            Fabric.install_leaf_srule t.fabric ~leaf ~group bm));
    remove_leaf =
      (fun ~leaf ~group ->
        mutate t ~wedged:false (fun () ->
            Fabric.remove_leaf_srule t.fabric ~leaf ~group));
    install_pod =
      (fun ~pod ~group bm ->
        mutate t ~wedged:t.wedged_pod.(pod) (fun () ->
            Fabric.install_pod_srule t.fabric ~pod ~group bm));
    remove_pod =
      (fun ~pod ~group ->
        mutate t ~wedged:false (fun () ->
            Fabric.remove_pod_srule t.fabric ~pod ~group));
    read_leaf = (fun ~leaf ~group -> Fabric.leaf_srule t.fabric ~leaf ~group);
    read_pod = (fun ~pod ~group -> Fabric.pod_srule t.fabric ~pod ~group);
  }
