type strategy = Reboot of Strategy.t | Migrate

let all_strategies =
  [ Reboot Strategy.Warm; Reboot Strategy.Saved; Reboot Strategy.Cold;
    Migrate ]

let strategy_enum =
  Simkit.Enum.make ~what:"wave strategy"
    ~aliases:[ ("migrate-then-reboot", Migrate) ]
    [
      ("warm", Reboot Strategy.Warm);
      ("saved", Reboot Strategy.Saved);
      ("cold", Reboot Strategy.Cold);
      ("migrate", Migrate);
    ]

let strategy_id = Simkit.Enum.name strategy_enum
let pp_strategy = Simkit.Enum.pp strategy_enum

type plan = { width : int; slo_floor : int; waves : int list list }

let plan ~hosts ~width ~slo =
  if hosts <= 0 then Error (`Msg "Wave.plan: hosts <= 0")
  else if width <= 0 then Error (`Msg "Wave.plan: width <= 0")
  else if not (slo >= 0.0 && slo <= 1.0) then
    Error (`Msg (Printf.sprintf "Wave.plan: SLO %g outside [0, 1]" slo))
  else
    let slo_floor = int_of_float (Float.ceil (slo *. float_of_int hosts)) in
    let slack = hosts - slo_floor in
    if slack <= 0 then
      Error
        (`Msg
           (Printf.sprintf
              "Wave.plan: SLO %g needs %d/%d hosts healthy — no slack for a \
               wave"
              slo slo_floor hosts))
    else
      let width = min width slack in
      let rec chunk i =
        if i >= hosts then []
        else
          let w = min width (hosts - i) in
          List.init w (fun j -> i + j) :: chunk (i + w)
      in
      Ok { width; slo_floor; waves = chunk 0 }

let plan_exn ~hosts ~width ~slo =
  match plan ~hosts ~width ~slo with
  | Ok p -> p
  | Error (`Msg m) -> invalid_arg m
