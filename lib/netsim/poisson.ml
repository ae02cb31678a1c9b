type t = {
  engine : Simkit.Engine.t;
  gen_name : string;
  rate : float;
  rng : Simkit.Rng.t;
  request : (bool -> unit) -> unit;
  mutable running : bool;
  mutable sent : int;
  mutable ok : int;
  mutable failures : float list; (* issue timestamps, newest first *)
}

let create engine ?(name = "poisson") ~rate_per_s ~rng ~request () =
  if not (rate_per_s > 0.0) then invalid_arg "Poisson.create: rate <= 0 or NaN";
  {
    engine;
    gen_name = name;
    rate = rate_per_s;
    rng;
    request;
    running = false;
    sent = 0;
    ok = 0;
    failures = [];
  }

let rec arrival t =
  if t.running then begin
    let delay = Simkit.Rng.exponential t.rng ~mean:(1.0 /. t.rate) in
    ignore
      (Simkit.Engine.schedule t.engine ~delay (fun () ->
           if t.running then begin
             let issued_at = Simkit.Engine.now t.engine in
             t.sent <- t.sent + 1;
             t.request (fun success ->
                 if success then t.ok <- t.ok + 1
                 else t.failures <- issued_at :: t.failures);
             arrival t
           end))
  end

let start t =
  if not t.running then begin
    t.running <- true;
    arrival t
  end

let stop t = t.running <- false

let offered t = t.sent
let succeeded t = t.ok
let lost t = List.length t.failures

let loss_ratio t =
  if t.sent = 0 then 0.0 else float_of_int (lost t) /. float_of_int t.sent

let name t = t.gen_name

let lost_between t ~lo ~hi =
  List.length (List.filter (fun ts -> ts >= lo && ts <= hi) t.failures)
