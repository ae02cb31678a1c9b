type t = {
  engine : Simkit.Engine.t;
  probe_name : string;
  interval : float;
  is_up : unit -> bool;
  mutable running : bool;
  mutable down_since : float option;
  mutable completed : (float * float) list; (* newest first *)
}

let create engine ?(name = "prober") ?(interval_s = 0.1) ~is_up () =
  if interval_s <= 0.0 then invalid_arg "Prober.create: interval <= 0";
  {
    engine;
    probe_name = name;
    interval = interval_s;
    is_up;
    running = false;
    down_since = None;
    completed = [];
  }

let name t = t.probe_name

let probe t =
  let now = Simkit.Engine.now t.engine in
  let up = t.is_up () in
  match (t.down_since, up) with
  | None, false -> t.down_since <- Some now
  | Some since, true ->
    t.completed <- (since, now) :: t.completed;
    t.down_since <- None
  | None, true | Some _, false -> ()

let rec tick t =
  if t.running then begin
    probe t;
    ignore (Simkit.Engine.schedule t.engine ~delay:t.interval (fun () -> tick t))
  end

let start t =
  if not t.running then begin
    t.running <- true;
    tick t
  end

let stop t = t.running <- false

let outages t = List.rev t.completed

let downtimes t = List.map (fun (d, u) -> u -. d) (outages t)

let longest_outage t =
  match downtimes t with
  | [] -> None
  | x :: rest -> Some (List.fold_left Float.max x rest)
