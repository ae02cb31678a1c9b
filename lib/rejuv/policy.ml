type event =
  | Os_rejuvenation of { vm : int; at : float }
  | Vmm_rejuvenation of { at : float }

let event_time = function
  | Os_rejuvenation { at; _ } | Vmm_rejuvenation { at } -> at

let schedule ~strategy ~vm_count ~os_interval_s ~vmm_interval_s ~horizon_s =
  if os_interval_s <= 0.0 || vmm_interval_s <= 0.0 then
    invalid_arg "Policy.schedule: non-positive interval";
  if vm_count < 0 then invalid_arg "Policy.schedule: negative vm_count";
  let entangled = Strategy.restarts_services strategy in
  let events = ref [] in
  (* VMM rejuvenations at fixed multiples of the interval. *)
  let rec vmm_events at =
    if at < horizon_s then begin
      events := Vmm_rejuvenation { at } :: !events;
      vmm_events (at +. vmm_interval_s)
    end
  in
  vmm_events vmm_interval_s;
  let vmm_times =
    List.filter_map
      (function Vmm_rejuvenation { at } -> Some at | _ -> None)
      !events
    |> List.sort Float.compare
  in
  (* Each VM's OS clock: advances by the interval; a cold VMM
     rejuvenation reboots the OS too, restarting the clock from that
     point. *)
  for vm = 0 to vm_count - 1 do
    let rec os_events clock_start =
      let next = clock_start +. os_interval_s in
      if next < horizon_s then begin
        let reset_between =
          if entangled then
            List.find_opt
              (fun tv -> tv > clock_start && tv <= next)
              vmm_times
          else None
        in
        match reset_between with
        | Some tv ->
          (* The VMM rejuvenation rebooted this OS; clock restarts. *)
          os_events tv
        | None ->
          events := Os_rejuvenation { vm; at = next } :: !events;
          os_events next
      end
    in
    os_events 0.0
  done;
  List.sort
    (fun a b -> Float.compare (event_time a) (event_time b))
    !events

let os_rejuvenation_count events =
  List.length
    (List.filter (function Os_rejuvenation _ -> true | _ -> false) events)

let vmm_rejuvenation_count events =
  List.length
    (List.filter (function Vmm_rejuvenation _ -> true | _ -> false) events)

module Load = struct
  type profile = (float * float) list

  let level_at profile time =
    List.fold_left
      (fun acc (t, v) -> if t <= time then v else acc)
      0.0 profile

  let cost profile ~start ~duration =
    if duration < 0.0 then invalid_arg "Policy.Load.cost: negative duration";
    let stop = start +. duration in
    (* Sum over the piecewise-constant segments intersecting the
       window. *)
    let rec go acc = function
      | [] -> acc
      | (t, v) :: rest ->
        let seg_end =
          match rest with (t2, _) :: _ -> t2 | [] -> infinity
        in
        let lo = Float.max t start and hi = Float.min seg_end stop in
        let acc = if hi > lo then acc +. (v *. (hi -. lo)) else acc in
        go acc rest
    in
    go 0.0 profile

  let best_window profile ~duration ~horizon =
    if duration <= 0.0 then
      invalid_arg "Policy.Load.best_window: non-positive duration";
    if horizon < duration then
      invalid_arg "Policy.Load.best_window: horizon too short";
    (* For a piecewise-constant profile the optimum is attained with the
       window's start or end aligned to a breakpoint (or at the domain
       edges), so only those candidates need evaluating. *)
    let latest = horizon -. duration in
    let candidates =
      0.0 :: latest
      :: List.concat_map
           (fun (t, _) -> [ t; t -. duration ])
           profile
      |> List.filter (fun s -> s >= 0.0 && s <= latest)
      |> List.sort_uniq Float.compare
    in
    List.fold_left
      (fun (best_s, best_c) s ->
        let c = cost profile ~start:s ~duration in
        if c < best_c then (s, c) else (best_s, best_c))
      (0.0, cost profile ~start:0.0 ~duration)
      candidates
end

module Trigger = struct
  type decision = Rejuvenate_now | Rejuvenate_within of float | No_action

  let evaluate aging ~now ~lead_time_s =
    if lead_time_s < 0.0 then invalid_arg "Trigger.evaluate: negative lead";
    match Xenvmm.Aging.predict_exhaustion aging with
    | None -> No_action
    | Some at ->
      let remaining = at -. now in
      if remaining <= lead_time_s then Rejuvenate_now
      else Rejuvenate_within remaining
  end
