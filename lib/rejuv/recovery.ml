type policy = {
  max_retries : int;
  fallback : bool;
  abandon_failed_domains : bool;
}

let default = { max_retries = 1; fallback = true; abandon_failed_domains = true }

type outcome = {
  requested : Strategy.t;
  completed : Strategy.t;
  faults : (string * Simkit.Fault.t) list;
  retries : int;
  abandoned : string list;
  fatal : Simkit.Fault.t option;
}

let recovered o = o.fatal = None

(* --- mutable run context threaded through a strategy ------------------- *)

type run = {
  run_policy : policy;
  requested_strategy : Strategy.t;
  mutable run_completed : Strategy.t;
  mutable run_faults : (string * Simkit.Fault.t) list; (* newest first *)
  mutable run_retries : int;
  mutable run_abandoned : string list; (* oldest first *)
  mutable run_fatal : Simkit.Fault.t option;
}

let start ~policy strategy =
  {
    run_policy = policy;
    requested_strategy = strategy;
    run_completed = strategy;
    run_faults = [];
    run_retries = 0;
    run_abandoned = [];
    run_fatal = None;
  }

let note run ~step fault = run.run_faults <- (step, fault) :: run.run_faults

let abandon run name =
  if not (List.mem name run.run_abandoned) then
    run.run_abandoned <- run.run_abandoned @ [ name ]

let set_fatal run fault =
  if run.run_fatal = None then run.run_fatal <- Some fault

let fell_back run strategy = run.run_completed <- strategy

let finish run =
  {
    requested = run.requested_strategy;
    completed = run.run_completed;
    faults = List.rev run.run_faults;
    retries = run.run_retries;
    abandoned = run.run_abandoned;
    fatal = run.run_fatal;
  }

let with_retries run ~step attempt k =
  let rec go remaining =
    attempt (function
      | Ok () -> k `Ok
      | Error f ->
        note run ~step f;
        if remaining > 0 then begin
          run.run_retries <- run.run_retries + 1;
          go (remaining - 1)
        end
        else k (`Gave_up f))
  in
  go run.run_policy.max_retries

let pp ppf o =
  Format.fprintf ppf "%s" (Strategy.id o.requested);
  if o.completed <> o.requested then
    Format.fprintf ppf " (fell back to %s)" (Strategy.id o.completed);
  Format.fprintf ppf ": %d fault(s), %d retr%s, %d abandoned"
    (List.length o.faults) o.retries
    (if o.retries = 1 then "y" else "ies")
    (List.length o.abandoned);
  match o.fatal with
  | None -> ()
  | Some f -> Format.fprintf ppf ", FATAL: %a" Simkit.Fault.pp f
