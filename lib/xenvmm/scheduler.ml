type params = { weight : int; cap_percent : int option }

let default_params = { weight = 256; cap_percent = None }

type job = {
  jdomid : Domain.id;
  mutable remaining : float;
  on_done : unit -> unit;
}

type t = {
  engine : Simkit.Engine.t;
  cpus : int;
  capacity : float; (* CPU-seconds per second *)
  table : (Domain.id, params) Hashtbl.t;
  mutable jobs : job list;
  mutable last_settle : float;
  mutable pending : Simkit.Engine.handle option;
  mutable delivered : float;
  mutable busy : float;
}

let completion_epsilon = 1e-9

let create engine ?(physical_cpus = 4) () =
  if physical_cpus <= 0 then invalid_arg "Scheduler.create: cpus <= 0";
  {
    engine;
    cpus = physical_cpus;
    capacity = float_of_int physical_cpus;
    table = Hashtbl.create 16;
    jobs = [];
    last_settle = Simkit.Engine.now engine;
    pending = None;
    delivered = 0.0;
    busy = 0.0;
  }

let physical_cpus t = t.cpus

let set_params t ~domid p =
  if p.weight <= 0 then invalid_arg "Scheduler.set_params: weight <= 0";
  (match p.cap_percent with
  | Some c when c <= 0 -> invalid_arg "Scheduler.set_params: cap <= 0"
  | _ -> ());
  Hashtbl.replace t.table domid p

let params_of t ~domid =
  Option.value (Hashtbl.find_opt t.table domid) ~default:default_params

let remove_domain t ~domid = Hashtbl.remove t.table domid

let cap_rate p =
  match p.cap_percent with
  | None -> infinity
  | Some c -> float_of_int c /. 100.0

(* Water-filling rate assignment: every active domain tentatively gets
   capacity proportional to its weight; domains whose cap is below their
   share are pinned at the cap and the surplus re-flows to the rest. *)
let domain_rates t =
  let active_domains =
    List.sort_uniq compare (List.map (fun j -> j.jdomid) t.jobs)
  in
  let rates = Hashtbl.create 8 in
  let rec fill pool capacity =
    if pool = [] then ()
    else begin
      let total_weight =
        List.fold_left
          (fun acc d -> acc + (params_of t ~domid:d).weight)
          0 pool
      in
      let capped, uncapped =
        List.partition
          (fun d ->
            let p = params_of t ~domid:d in
            let tentative =
              capacity *. float_of_int p.weight /. float_of_int total_weight
            in
            cap_rate p < tentative)
          pool
      in
      if capped = [] then
        List.iter
          (fun d ->
            let p = params_of t ~domid:d in
            Hashtbl.replace rates d
              (capacity *. float_of_int p.weight
              /. float_of_int total_weight))
          pool
      else begin
        let used =
          List.fold_left
            (fun acc d ->
              let r = cap_rate (params_of t ~domid:d) in
              Hashtbl.replace rates d r;
              acc +. r)
            0.0 capped
        in
        fill uncapped (Float.max 0.0 (capacity -. used))
      end
    end
  in
  fill active_domains t.capacity;
  rates

(* Rate of one job: its domain's rate split evenly over the domain's
   jobs. *)
let job_rates t =
  let per_domain = domain_rates t in
  let counts = Hashtbl.create 8 in
  List.iter
    (fun j ->
      let c = Option.value (Hashtbl.find_opt counts j.jdomid) ~default:0 in
      Hashtbl.replace counts j.jdomid (c + 1))
    t.jobs;
  fun j ->
    let domain_rate =
      Option.value (Hashtbl.find_opt per_domain j.jdomid) ~default:0.0
    in
    domain_rate /. float_of_int (Hashtbl.find counts j.jdomid)

let settle t =
  let now = Simkit.Engine.now t.engine in
  let elapsed = now -. t.last_settle in
  if elapsed > 0.0 && t.jobs <> [] then begin
    let rate_of = job_rates t in
    List.iter
      (fun j ->
        let progressed = elapsed *. rate_of j in
        j.remaining <- j.remaining -. progressed;
        t.delivered <- t.delivered +. progressed)
      t.jobs;
    t.busy <- t.busy +. elapsed
  end;
  t.last_settle <- now

let cancel_pending t =
  match t.pending with
  | None -> ()
  | Some h ->
    Simkit.Engine.cancel t.engine h;
    t.pending <- None

let rec reschedule t =
  cancel_pending t;
  match t.jobs with
  | [] -> ()
  | jobs ->
    let rate_of = job_rates t in
    let dt =
      List.fold_left
        (fun acc j ->
          let r = rate_of j in
          if r <= 0.0 then acc else Float.min acc (j.remaining /. r))
        infinity jobs
    in
    if dt < infinity then begin
      let handle =
        Simkit.Engine.schedule t.engine ~delay:(Float.max dt 0.0) (fun () ->
            on_tick t)
      in
      t.pending <- Some handle
    end

and on_tick t =
  t.pending <- None;
  settle t;
  let rate_of = job_rates t in
  let nearly_done j =
    j.remaining <= completion_epsilon
    ||
    let r = rate_of j in
    r > 0.0 && j.remaining /. r <= completion_epsilon
  in
  let finished, active = List.partition nearly_done t.jobs in
  t.jobs <- active;
  reschedule t;
  List.iter (fun j -> j.on_done ()) finished

let run_work t ~domid ~work on_done =
  if work < 0.0 then invalid_arg "Scheduler.run_work: negative work";
  if work <= 0.0 then
    ignore (Simkit.Engine.schedule t.engine ~delay:0.0 on_done)
  else begin
    settle t;
    t.jobs <- { jdomid = domid; remaining = work; on_done } :: t.jobs;
    reschedule t
  end

let utilization t =
  if t.busy <= 0.0 then 1.0 else t.delivered /. (t.capacity *. t.busy)
