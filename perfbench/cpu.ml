(* Keeping the benchmark on the fastest processor it may use.

   On a shared host each virtual processor switches, for seconds at a time
   and independently of the others, between its usual speed and one about
   1.4x slower (a neighbour loading the physical core under it). A thread
   left where the scheduler put it runs at that processor's speed for as
   long as the spell lasts; sampled every 0.25 s over five minutes on a
   2-vCPU VM, one processor was slow 66% of the time and both at once 47%.
   [settle] times a short fixed probe on every processor the process may
   use, at most once per [interval], and pins the process to the fastest.
   The benchmark calls it between timed items, never inside one. *)

external allowed_cpus : unit -> int array = "perfbench_allowed_cpus"
external pin : int -> bool = "perfbench_pin"

let cpus = allowed_cpus ()
let interval = 0.1

(* A dependent walk over a 512 KB cycle (cache latency, what a neighbour on
   the same core competes for) with integer work on each step; about
   30 us. *)
let ring =
  let n = 1 lsl 16 in
  let a = Array.init n Fun.id in
  let st = Random.State.make [| 7 |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int st i in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let probe () =
  let at = ref 0 and x = ref 1 in
  for _ = 1 to 4_000 do
    at := ring.(!at);
    x := (!x * 1_103_515_245) + !at
  done;
  ignore (Sys.opaque_identity !x)

(* Fastest of three probes on [cpu], after one to warm the cache there. *)
let time_on now cpu =
  if not (pin cpu) then infinity
  else begin
    probe ();
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = now () in
      probe ();
      best := Float.min !best (now () -. t0)
    done;
    !best
  end

let last = ref neg_infinity
let current = ref (-1)
let switches = ref 0

let settle now =
  if Array.length cpus > 1 && now () -. !last >= interval then begin
    let best = ref (-1) and best_s = ref infinity in
    Array.iter
      (fun cpu ->
        let s = time_on now cpu in
        if s < !best_s then begin
          best := cpu;
          best_s := s
        end)
      cpus;
    if !best >= 0 && pin !best then begin
      if !best <> !current then incr switches;
      current := !best
    end;
    last := now ()
  end
