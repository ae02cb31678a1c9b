type t = { dir : string }

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ?dir () =
  let dir =
    match dir with
    | Some d -> d
    | None -> (
      match Sys.getenv_opt "ROOTHAMMER_CACHE" with
      | Some d when d <> "" -> d
      | _ -> "_cache")
  in
  mkdir_p dir;
  { dir }

(* A cached value is only as good as the code that computed it: another
   build may compute different bytes, or marshal a different layout
   that [Marshal] would misread. The running executable's digest names
   the build, and covers the calibration compiled into it. Read once,
   on the first key. *)
let build = (* simlint: allow D011 the executable's digest never changes while it runs *)
  lazy (Digest.to_hex (Digest.file Sys.executable_name))

let key ~id ~params ~seed =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [ id; params; string_of_int seed; Lazy.force build ]))

let path t key = Filename.concat t.dir (key ^ ".bin")

let find t k =
  let p = path t k in
  match open_in_bin p with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))

let store t k bytes =
  let final = path t k in
  let tmp =
    Printf.sprintf "%s.%d.%d.tmp" final (Unix.getpid ())
      (Domain.self () :> int)
  in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc bytes);
  Sys.rename tmp final
