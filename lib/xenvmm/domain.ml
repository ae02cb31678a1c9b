type id = int

type kind = Dom0 | DomU

type state =
  | Created
  | Booting
  | Running
  | Suspending
  | Suspended
  | Saving
  | Saved_to_disk
  | Resuming
  | Shutting_down
  | Halted
  | Crashed

let state_name = function
  | Created -> "created"
  | Booting -> "booting"
  | Running -> "running"
  | Suspending -> "suspending"
  | Suspended -> "suspended"
  | Saving -> "saving"
  | Saved_to_disk -> "saved-to-disk"
  | Resuming -> "resuming"
  | Shutting_down -> "shutting-down"
  | Halted -> "halted"
  | Crashed -> "crashed"

type exec_state = {
  saved_at : float;
  channels : (Event_channel.port * Event_channel.status) list;
  devices : string list;
  state_bytes : int;
  state_frames : Hw.Frame.extent list;
}

type t = {
  dom_id : id;
  dom_name : string;
  dom_kind : kind;
  mutable dom_suspendable : bool;
  dom_mem_bytes : int;
  dom_p2m : P2m.t;
  mutable dom_p2m_frames : Hw.Frame.extent list;
  mutable dom_state : state;
  mutable dom_exec_state : exec_state option;
  mutable dom_devices : string list;
  mutable observers : (state -> unit) list;
  mutable on_suspend : Simkit.Process.task;
  mutable on_resume : Simkit.Process.task;
  mutable dom_suspend_port : Event_channel.port option;
  mutable dom_mem_tracker : Mem.Pagestate.t option;
  mutable dom_mem_stream : Mem.Stream.t option;
}

let create ~id ~name ~kind ~mem_bytes =
  if mem_bytes <= 0 then invalid_arg "Domain.create: mem_bytes <= 0";
  {
    dom_id = id;
    dom_name = name;
    dom_kind = kind;
    dom_suspendable = true;
    dom_mem_bytes = mem_bytes;
    dom_p2m = P2m.create ();
    dom_p2m_frames = [];
    dom_state = Created;
    dom_exec_state = None;
    dom_devices = [];
    observers = [];
    on_suspend = Simkit.Process.now;
    on_resume = Simkit.Process.now;
    dom_suspend_port = None;
    dom_mem_tracker = None;
    dom_mem_stream = None;
  }

let id t = t.dom_id
let name t = t.dom_name
let kind t = t.dom_kind
let suspendable t = t.dom_suspendable
let set_suspendable t v = t.dom_suspendable <- v
let mem_bytes t = t.dom_mem_bytes
let p2m t = t.dom_p2m
let p2m_frames t = t.dom_p2m_frames
let set_p2m_frames t extents = t.dom_p2m_frames <- extents
let state t = t.dom_state

let transition_allowed ~from ~to_ =
  match (from, to_) with
  | _, Crashed -> true
  | Created, (Booting | Resuming) -> true
  | Booting, Running -> true
  | Running, (Suspending | Saving | Shutting_down) -> true
  | Suspending, Suspended -> true
  | Saving, Saved_to_disk -> true
  (* An aborted save (e.g. disk full) resumes the domain in place. *)
  | Saving, Resuming -> true
  | Suspended, Resuming -> true
  | Saved_to_disk, Resuming -> true
  | Resuming, Running -> true
  | Shutting_down, Halted -> true
  | Halted, Booting -> true
  | Crashed, Booting -> true
  | _ -> false

let set_state t to_ =
  if not (transition_allowed ~from:t.dom_state ~to_) then
    invalid_arg
      (Printf.sprintf "Domain %s: illegal transition %s -> %s" t.dom_name
         (state_name t.dom_state) (state_name to_));
  t.dom_state <- to_;
  List.iter (fun f -> f to_) (List.rev t.observers)

let on_state_change t f = t.observers <- f :: t.observers

let exec_state t = t.dom_exec_state
let set_exec_state t e = t.dom_exec_state <- e

let devices t = t.dom_devices

let attach_device t d =
  if not (List.mem d t.dom_devices) then t.dom_devices <- d :: t.dom_devices

let detach_all_devices t =
  let had = t.dom_devices in
  t.dom_devices <- [];
  had

let suspend_port t = t.dom_suspend_port
let set_suspend_port t p = t.dom_suspend_port <- p

let set_suspend_handler t task = t.on_suspend <- task
let suspend_handler t = t.on_suspend
let set_resume_handler t task = t.on_resume <- task
let resume_handler t = t.on_resume

let mem_tracker t = t.dom_mem_tracker
let set_mem_tracker t v = t.dom_mem_tracker <- v
let mem_stream t = t.dom_mem_stream
let set_mem_stream t v = t.dom_mem_stream <- v

let is_domu t = match t.dom_kind with DomU -> true | Dom0 -> false

let pp ppf t =
  Format.fprintf ppf "domain %d (%s, %a, %s)" t.dom_id t.dom_name
    Simkit.Units.pp_bytes t.dom_mem_bytes
    (state_name t.dom_state)
