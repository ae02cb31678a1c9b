type job = { mutable remaining : float; weight : float; on_done : unit -> unit }

type t = {
  engine : Engine.t;
  mutable capacity : float;
  mutable jobs : job list;
  mutable last_settle : float;
  mutable next_completion : Engine.handle option;
  mutable work_done : float;
  mutable busy : float;
}

let completion_epsilon = 1e-9

let create engine ~capacity =
  if capacity <= 0.0 then invalid_arg "Resource.create: capacity must be > 0";
  {
    engine;
    capacity;
    jobs = [];
    last_settle = Engine.now engine;
    next_completion = None;
    work_done = 0.0;
    busy = 0.0;
  }

let capacity t = t.capacity
let active_jobs t = List.length t.jobs
let total_work_done t = t.work_done
let busy_time t = t.busy

let total_weight t = List.fold_left (fun acc j -> acc +. j.weight) 0.0 t.jobs

(* Account for work delivered since the last state change. Under
   processor sharing each active job progressed at
   [capacity * weight / total_weight]. *)
let settle t =
  let now = Engine.now t.engine in
  let elapsed = now -. t.last_settle in
  if elapsed > 0.0 && t.jobs <> [] then begin
    let tw = total_weight t in
    List.iter
      (fun j ->
        j.remaining <- j.remaining -. (elapsed *. t.capacity *. j.weight /. tw))
      t.jobs;
    t.work_done <- t.work_done +. (elapsed *. t.capacity);
    t.busy <- t.busy +. elapsed
  end;
  t.last_settle <- now

let cancel_pending t =
  match t.next_completion with
  | None -> ()
  | Some h ->
    Engine.cancel t.engine h;
    t.next_completion <- None

let rec reschedule t =
  cancel_pending t;
  match t.jobs with
  | [] -> ()
  | jobs ->
    let tw = total_weight t in
    let time_to_finish j = j.remaining *. tw /. (t.capacity *. j.weight) in
    let dt =
      List.fold_left (fun acc j -> Float.min acc (time_to_finish j))
        infinity jobs
    in
    let dt = Float.max dt 0.0 in
    let handle = Engine.schedule t.engine ~delay:dt (fun () -> on_tick t) in
    t.next_completion <- Some handle

and on_tick t =
  t.next_completion <- None;
  settle t;
  (* Complete every job whose residual *time* is below the scheduling
     granularity. Judging by remaining work alone can livelock: a
     residue slightly above the work epsilon whose finish delay rounds
     to zero would re-arm a same-instant event forever. *)
  let tw = total_weight t in
  let nearly_done j =
    j.remaining <= completion_epsilon
    || j.remaining *. tw /. (t.capacity *. j.weight) <= completion_epsilon
  in
  let finished, still_active = List.partition nearly_done t.jobs in
  t.jobs <- still_active;
  reschedule t;
  (* Continuations run after the resource state is consistent, so they
     may freely submit new jobs. *)
  List.iter (fun j -> j.on_done ()) finished

let submit t ~work ?(weight = 1.0) on_done =
  if weight <= 0.0 then invalid_arg "Resource.submit: weight must be > 0";
  let job = { remaining = Float.max work 0.0; weight; on_done } in
  if job.remaining <= 0.0 then
    ignore (Engine.schedule t.engine ~delay:0.0 on_done)
  else begin
    settle t;
    t.jobs <- job :: t.jobs;
    reschedule t
  end

let set_capacity t capacity =
  if capacity <= 0.0 then
    invalid_arg "Resource.set_capacity: capacity must be > 0";
  settle t;
  t.capacity <- capacity;
  reschedule t
