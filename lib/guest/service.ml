type spec = {
  service_name : string;
  start_shared_work : float;
  start_private_s : float;
  stop_private_s : float;
}

type state = Down | Starting | Up | Stopping

type t = {
  engine : Simkit.Engine.t;
  cpu : Simkit.Resource.t;
  svc_spec : spec;
  mutable svc_state : state;
  mutable observers : (state -> unit) list;
}

let create engine ~cpu spec =
  {
    engine;
    cpu;
    svc_spec = spec;
    svc_state = Down;
    observers = [];
  }

let state t = t.svc_state
let is_up t = t.svc_state = Up

let set_state t s =
  if t.svc_state <> s then begin
    t.svc_state <- s;
    List.iter (fun f -> f s) (List.rev t.observers)
  end

let on_transition t f = t.observers <- f :: t.observers

let start t k =
  match t.svc_state with
  | Up | Starting -> k ()
  | Down | Stopping ->
    set_state t Starting;
    let finish () =
      Simkit.Process.delay t.engine t.svc_spec.start_private_s (fun () ->
          set_state t Up;
          k ())
    in
    if t.svc_spec.start_shared_work > 0.0 then
      Simkit.Resource.submit t.cpu ~work:t.svc_spec.start_shared_work finish
    else finish ()

let stop t k =
  match t.svc_state with
  | Down | Stopping -> k ()
  | Up | Starting ->
    set_state t Stopping;
    Simkit.Process.delay t.engine t.svc_spec.stop_private_s (fun () ->
        set_state t Down;
        k ())

let kill t = set_state t Down

let force_up t = set_state t Up
