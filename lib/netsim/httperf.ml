type t = {
  engine : Simkit.Engine.t;
  gen_name : string;
  connections : int;
  retry_backoff_s : float;
  request : (bool -> unit) -> unit;
  mutable running : bool;
  mutable ok : int;
  mutable errors : int;
  events : Obs.Metric.Counter.t;
  latency : Obs.Metric.Histogram.t;
  completion_times : Simkit.Fvec.t; (* insertion order; O(1) append *)
}

let create engine ?(name = "httperf") ?(connections = 10)
    ?(retry_backoff_s = 0.5) ~request () =
  if connections <= 0 then invalid_arg "Httperf.create: connections <= 0";
  {
    engine;
    gen_name = name;
    connections;
    retry_backoff_s;
    request;
    running = false;
    ok = 0;
    errors = 0;
    events = Obs.Metric.Counter.create ();
    latency = Obs.Metric.Histogram.create ();
    completion_times = Simkit.Fvec.create ();
  }

let rec connection_loop t =
  if t.running then begin
    let issued_at = Simkit.Engine.now t.engine in
    t.request (fun success ->
        let now = Simkit.Engine.now t.engine in
        if success then begin
          t.ok <- t.ok + 1;
          Obs.Metric.Counter.record t.events ~time:now;
          (* Latency of the successful attempt only: a retried request
             restarts the clock after its backoff. *)
          Obs.Metric.Histogram.observe t.latency (now -. issued_at);
          Simkit.Fvec.push t.completion_times now;
          connection_loop t
        end
        else begin
          t.errors <- t.errors + 1;
          ignore
            (Simkit.Engine.schedule t.engine ~delay:t.retry_backoff_s
               (fun () -> connection_loop t))
        end)
  end

let start t =
  if not t.running then begin
    t.running <- true;
    for _ = 1 to t.connections do
      connection_loop t
    done
  end

let stop t = t.running <- false

let completed t = t.ok
let failed t = t.errors
let counter t = t.events

let observe ?(prefix = "netsim.httperf") reg t =
  let p = prefix ^ "." ^ t.gen_name in
  Obs.Registry.register reg (p ^ ".latency_s")
    (Obs.Registry.Histogram t.latency);
  Obs.Registry.gauge reg (p ^ ".completed") (fun () ->
      float_of_int t.ok);
  Obs.Registry.gauge reg (p ^ ".failed") (fun () -> float_of_int t.errors)

let completion_times t = t.completion_times

(* Completion timestamps are pushed in nondecreasing simulated-time
   order, so window endpoints are found by binary search: repeated
   windowed queries (bench fig8, fleet sampling) cost O(log n) each
   instead of a full pass over every completion. *)

(* Index of the first element >= [x] (n if none). *)
let lower_bound times n x =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Simkit.Fvec.get times mid < x then lo := mid + 1 else hi := mid
  done;
  !lo

(* Index of the first element > [x] (n if none). *)
let upper_bound times n x =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Simkit.Fvec.get times mid <= x then lo := mid + 1 else hi := mid
  done;
  !lo

let throughput_between t ~lo ~hi =
  (* Closed interval [lo <= time <= hi], [Invalid_argument] on an
     empty one. *)
  if hi <= lo then invalid_arg "Httperf.throughput_between: empty interval";
  let times = t.completion_times in
  let n = Simkit.Fvec.length times in
  let count = upper_bound times n hi - lower_bound times n lo in
  float_of_int count /. (hi -. lo)

let mean_window_throughput t ~every =
  if every <= 0 then invalid_arg "Httperf.mean_window_throughput: every <= 0";
  let times = t.completion_times in
  let n = Simkit.Fvec.length times in
  (* Edge cases are part of the contract (see the .mli): an empty
     generator yields [] — never a nan-carrying sample — and the
     trailing block is reported only when complete. *)
  if n = 0 then []
  else begin
    (* One pass over the vector — nothing is rebuilt per query. The
       first completion both opens the first block and counts into it,
       matching the historical list-based fold exactly. *)
    let acc = ref [] in
    let start_time = ref (Simkit.Fvec.get times 0) in
    let count = ref 0 in
    for i = 0 to n - 1 do
      let time = Simkit.Fvec.get times i in
      incr count;
      if !count = every then begin
        let rate = float_of_int every /. Float.max (time -. !start_time) 1e-9 in
        acc := (time, rate) :: !acc;
        start_time := time;
        count := 0
      end
    done;
    (* [!count] completions (0 <= count < every) remain in an open
       block here; dropping them is deliberate — a partial block's
       average would be biased low while requests are in flight. *)
    List.rev !acc
  end
