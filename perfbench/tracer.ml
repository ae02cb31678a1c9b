(* Host-time spans around the benchmark's own calls into the simulator
   libraries. Recording is off unless [on] is set; [span] then costs one
   branch and the simulation runs exactly as untraced. When on, every
   call keeps one span in memory — name, start, end, parent, op id and
   (for web requests) request id — in columnar growable arrays, so a
   span allocates no boxed float. Everything is aggregated and written
   out once, when the run ends.

   Spans are recorded on the main domain only. Work that runs on sweep
   worker domains is accounted from [Runner.Sweep]'s own per-task
   metrics instead, so no span buffer is ever shared between domains. *)

let now = Unix.gettimeofday
let on = ref false
let op = ref 0
let cur = ref (-1)

let names : (string, int) Hashtbl.t = Hashtbl.create 32
let name_tbl = ref [||]

let intern name =
  match Hashtbl.find_opt names name with
  | Some id -> id
  | None ->
    let id = Hashtbl.length names in
    Hashtbl.replace names name id;
    name_tbl := Array.append !name_tbl [| name |];
    id

type cols = {
  mutable n : int;
  mutable name : int array;
  mutable parent : int array;
  mutable op_id : int array;
  mutable req : int array;
  mutable start : float array;
  mutable stop : float array;
}

let c =
  {
    n = 0;
    name = [||];
    parent = [||];
    op_id = [||];
    req = [||];
    start = [||];
    stop = [||];
  }

let grow () =
  let cap = max 1024 (2 * Array.length c.name) in
  let ints a = Array.append a (Array.make (cap - Array.length a) 0) in
  let floats a = Array.append a (Array.make (cap - Array.length a) 0.0) in
  c.name <- ints c.name;
  c.parent <- ints c.parent;
  c.op_id <- ints c.op_id;
  c.req <- ints c.req;
  c.start <- floats c.start;
  c.stop <- floats c.stop

let span ?(req = -1) name f =
  if not !on then f ()
  else begin
    if c.n = Array.length c.name then grow ();
    let id = c.n in
    c.n <- id + 1;
    let parent = !cur in
    c.name.(id) <- intern name;
    c.parent.(id) <- parent;
    c.op_id.(id) <- !op;
    c.req.(id) <- req;
    cur := id;
    let finish () =
      c.stop.(id) <- now ();
      cur := parent
    in
    c.start.(id) <- now ();
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

type stats = {
  count : int;
  total_s : float;  (** summed span durations *)
  self_s : float;  (** summed durations minus their direct children *)
  durations : float array;
}

(* Self time: a span's duration minus the part its child spans cover.
   Children nest strictly inside their parent (they are synchronous
   calls made within it), so that part is the sum of their durations. *)
let summary () =
  let child = Array.make c.n 0.0 in
  for i = 0 to c.n - 1 do
    let p = c.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) +. (c.stop.(i) -. c.start.(i))
  done;
  let k = Array.length !name_tbl in
  let count = Array.make k 0 in
  let total = Array.make k 0.0 in
  let self = Array.make k 0.0 in
  for i = 0 to c.n - 1 do
    let nm = c.name.(i) in
    let d = c.stop.(i) -. c.start.(i) in
    count.(nm) <- count.(nm) + 1;
    total.(nm) <- total.(nm) +. d;
    self.(nm) <- self.(nm) +. (d -. child.(i))
  done;
  let durs = Array.init k (fun nm -> Array.make count.(nm) 0.0) in
  let fill = Array.make k 0 in
  for i = 0 to c.n - 1 do
    let nm = c.name.(i) in
    durs.(nm).(fill.(nm)) <- c.stop.(i) -. c.start.(i);
    fill.(nm) <- fill.(nm) + 1
  done;
  Array.to_list
    (Array.mapi
       (fun nm name ->
         ( name,
           {
             count = count.(nm);
             total_s = total.(nm);
             self_s = self.(nm);
             durations = durs.(nm);
           } ))
       !name_tbl)

let find summary name =
  match List.assoc_opt name summary with
  | Some s -> s
  | None -> { count = 0; total_s = 0.0; self_s = 0.0; durations = [||] }

(* One tab-separated line per span, times relative to the first span. *)
let write path =
  let oc = open_out path in
  output_string oc "id\tname\tparent\top\treq\tstart_s\tend_s\n";
  let t0 = if c.n = 0 then 0.0 else c.start.(0) in
  for i = 0 to c.n - 1 do
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%.9f\t%.9f\n" i
      !name_tbl.(c.name.(i))
      c.parent.(i) c.op_id.(i) c.req.(i)
      (c.start.(i) -. t0)
      (c.stop.(i) -. t0)
  done;
  close_out oc
