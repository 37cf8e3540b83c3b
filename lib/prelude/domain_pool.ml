type task = Run of (unit -> unit) | Quit

type probe = {
  prb_now : unit -> float;
  prb_chunk : queue_us:float -> run_us:float -> items:int -> unit;
}

type t = {
  size : int;
  queue : task Queue.t;
  lock : Mutex.t;
  work : Condition.t;
  mutable workers : unit Domain.t list;
  mutable shut : bool;
}

let rec worker t =
  Mutex.lock t.lock;
  while Queue.is_empty t.queue do
    Condition.wait t.work t.lock
  done;
  let task = Queue.pop t.queue in
  Mutex.unlock t.lock;
  match task with
  | Quit -> ()
  | Run f ->
      f ();
      worker t

let create ?(worker_init = fun (_ : int) -> ()) ?(worker_exit = fun () -> ())
    n =
  if n < 1 then invalid_arg "Domain_pool.create: need at least one domain";
  let t =
    {
      size = n;
      queue = Queue.create ();
      lock = Mutex.create ();
      work = Condition.create ();
      workers = [];
      shut = false;
    }
  in
  t.workers <-
    List.init n (fun i ->
        Domain.spawn (fun () ->
            worker_init i;
            Fun.protect ~finally:worker_exit (fun () -> worker t)));
  t

let size t = t.size

let submit t f =
  Mutex.lock t.lock;
  if t.shut then begin
    Mutex.unlock t.lock;
    invalid_arg "Domain_pool: pool is shut down"
  end;
  Queue.push (Run f) t.queue;
  Condition.signal t.work;
  Mutex.unlock t.lock

let shutdown t =
  Mutex.lock t.lock;
  if t.shut then Mutex.unlock t.lock
  else begin
    t.shut <- true;
    List.iter (fun _ -> Queue.push Quit t.queue) t.workers;
    Condition.broadcast t.work;
    Mutex.unlock t.lock;
    List.iter Domain.join t.workers;
    t.workers <- []
  end

let map ?chunk ?probe t f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let chunk =
      match chunk with
      | Some c ->
          if c < 1 then invalid_arg "Domain_pool.map: chunk must be positive";
          c
      | None ->
          (* ~4 chunks per worker: enough slack to absorb uneven task costs
             without drowning in queue traffic. *)
          max 1 ((n + (4 * t.size) - 1) / (4 * t.size))
    in
    let nchunks = (n + chunk - 1) / chunk in
    let results = Array.make n None in
    let lock = Mutex.create () in
    let finished = Condition.create () in
    let remaining = ref nchunks in
    (* Keep the lowest-index failure so the raised exception is
       deterministic regardless of worker interleaving. *)
    let failure = ref None in
    for c = 0 to nchunks - 1 do
      let lo = c * chunk in
      let hi = min n (lo + chunk) - 1 in
      (* Enqueue timestamp is taken on the submitting domain, start/stop on
         the worker: the probe owner must use a clock both share. *)
      let enq = match probe with Some p -> p.prb_now () | None -> 0.0 in
      submit t (fun () ->
          let t0 = match probe with Some p -> p.prb_now () | None -> 0.0 in
          (try
             for i = lo to hi do
               results.(i) <- Some (f arr.(i))
             done
           with e ->
             Mutex.lock lock;
             (match !failure with
             | Some (c0, _) when c0 <= c -> ()
             | Some _ | None -> failure := Some (c, e));
             Mutex.unlock lock);
          (match probe with
          | Some p ->
              p.prb_chunk ~queue_us:(t0 -. enq)
                ~run_us:(p.prb_now () -. t0)
                ~items:(hi - lo + 1)
          | None -> ());
          Mutex.lock lock;
          decr remaining;
          if !remaining = 0 then Condition.signal finished;
          Mutex.unlock lock)
    done;
    Mutex.lock lock;
    while !remaining > 0 do
      Condition.wait finished lock
    done;
    Mutex.unlock lock;
    (match !failure with Some (_, e) -> raise e | None -> ());
    Array.map (function Some v -> v | None -> assert false) results
  end

let with_pool ?worker_init ?worker_exit n f =
  let t = create ?worker_init ?worker_exit n in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
