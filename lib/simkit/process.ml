type task = (unit -> unit) -> unit

let now k = k ()

let delay engine duration k =
  ignore (Engine.schedule engine ~delay:duration (fun () -> k ()))

let seq tasks k =
  let rec go = function
    | [] -> k ()
    | task :: rest -> task (fun () -> go rest)
  in
  go tasks

let par tasks k =
  match tasks with
  | [] -> k ()
  | _ ->
    let outstanding = ref (List.length tasks) in
    let one_done () =
      decr outstanding;
      if !outstanding = 0 then k ()
    in
    List.iter (fun task -> task one_done) tasks
