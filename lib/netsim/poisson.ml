type t = {
  engine : Simkit.Engine.t;
  rate : float;
  rng : Simkit.Rng.t;
  request : (bool -> unit) -> unit;
  mutable running : bool;
  mutable sent : int;
  mutable failures : int;
}

let create engine ~rate_per_s ~rng ~request () =
  if not (rate_per_s > 0.0) then invalid_arg "Poisson.create: rate <= 0 or NaN";
  {
    engine;
    rate = rate_per_s;
    rng;
    request;
    running = false;
    sent = 0;
    failures = 0;
  }

let rec arrival t =
  if t.running then begin
    let delay = Simkit.Rng.exponential t.rng ~mean:(1.0 /. t.rate) in
    ignore
      (Simkit.Engine.schedule t.engine ~delay (fun () ->
           if t.running then begin
             t.sent <- t.sent + 1;
             t.request (fun success ->
                 if not success then t.failures <- t.failures + 1);
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
let lost t = t.failures
