type span = {
  label : string;
  start : float;
  mutable stop : float option;
}

type t = {
  engine : Engine.t;
  mutable all_spans : span list; (* newest first *)
  mutable marks : (string * float) list; (* newest first *)
}

let create engine = { engine; all_spans = []; marks = [] }

let begin_span t label =
  let s = { label; start = Engine.now t.engine; stop = None } in
  t.all_spans <- s :: t.all_spans;
  s

let end_span t s =
  match s.stop with
  | Some _ -> ()
  | None -> s.stop <- Some (Engine.now t.engine)

let instant t label = t.marks <- (label, Engine.now t.engine) :: t.marks

let spans t =
  List.rev_map
    (fun s ->
      match s.stop with
      | Some stop -> Some (s.label, s.start, stop)
      | None -> None)
    t.all_spans
  |> List.filter_map Fun.id

let instants t = List.rev t.marks

let find_span t label =
  (* [all_spans] is newest-first; keep overwriting so the last match
     seen — the oldest, i.e. first in start order — wins. *)
  List.fold_left
    (fun acc s ->
      match s.stop with
      | Some stop when String.equal s.label label -> Some (s.start, stop)
      | _ -> acc)
    None t.all_spans

let pp ppf t =
  List.iter
    (fun (label, start, stop) ->
      Format.fprintf ppf "%8.2f .. %8.2f  (%6.2f s)  %s@." start stop
        (stop -. start) label)
    (spans t)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_chrome_json t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "[";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_string buf ",\n"
  in
  List.iter
    (fun (label, start, stop) ->
      sep ();
      Buffer.add_string buf
        (Printf.sprintf
           {|{"name":"%s","ph":"X","ts":%.0f,"dur":%.0f,"pid":1,"tid":1}|}
           (json_escape label) (start *. 1e6)
           ((stop -. start) *. 1e6)))
    (spans t);
  List.iter
    (fun (label, time) ->
      sep ();
      Buffer.add_string buf
        (Printf.sprintf
           {|{"name":"%s","ph":"i","ts":%.0f,"pid":1,"tid":1,"s":"g"}|}
           (json_escape label) (time *. 1e6)))
    (instants t);
  Buffer.add_string buf "]";
  Buffer.contents buf
