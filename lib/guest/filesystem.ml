type file = { fid : int; fname : string; size : int }

type access = Sequential | Random

type t = {
  engine : Simkit.Engine.t;
  disk : Hw.Disk.t;
  page_cache : Page_cache.t;
  mem_bytes_per_s : float;
  mutable next_fid : int;
  mutable all_files : file list;
}

let create engine ~disk ~cache ?(mem_read_mib_per_s = 950.0) () =
  {
    engine;
    disk;
    page_cache = cache;
    mem_bytes_per_s = mem_read_mib_per_s *. 1048576.0;
    next_fid = 0;
    all_files = [];
  }

let create_file t ?name ~bytes () =
  if bytes <= 0 then invalid_arg "Filesystem.create_file: bytes <= 0";
  let fid = t.next_fid in
  t.next_fid <- fid + 1;
  let fname =
    match name with Some n -> n | None -> Printf.sprintf "file-%d" fid
  in
  let f = { fid; fname; size = bytes } in
  t.all_files <- f :: t.all_files;
  f

let file_name f = f.fname
let file_bytes f = f.size
let files t = List.rev t.all_files

let block_count t f =
  (f.size + Page_cache.block_bytes t.page_cache - 1)
  / Page_cache.block_bytes t.page_cache

let block_of_offset t off = off / Page_cache.block_bytes t.page_cache

let read_range t f ~offset ~bytes ?(access = Sequential) k =
  if offset < 0 || bytes < 0 || offset + bytes > f.size then
    invalid_arg "Filesystem.read_range: out of bounds";
  if bytes = 0 then k ()
  else begin
    let bs = Page_cache.block_bytes t.page_cache in
    let first = block_of_offset t offset in
    let last = block_of_offset t (offset + bytes - 1) in
    let missing = ref [] in
    let hit_blocks = ref 0 in
    for b = first to last do
      if Page_cache.touch t.page_cache ~file:f.fid ~block:b then
        incr hit_blocks
      else missing := b :: !missing
    done;
    let missing = List.rev !missing in
    let hit_bytes = !hit_blocks * bs in
    let miss_bytes = List.length missing * bs in
    let mem_time = float_of_int hit_bytes /. t.mem_bytes_per_s in
    let finish () =
      List.iter (fun b -> Page_cache.insert t.page_cache ~file:f.fid ~block:b)
        missing;
      k ()
    in
    let after_mem () =
      if miss_bytes = 0 then finish ()
      else
        let random = access = Random in
        (* One disk request per contiguous run of missing blocks. *)
        let runs =
          List.fold_left
            (fun (runs, prev) b ->
              match prev with
              | Some p when b = p + 1 -> (runs, Some b)
              | Some _ -> (runs + 1, Some b)
              | None -> (1, Some b))
            (0, None) missing
          |> fst
        in
        Hw.Disk.read t.disk ~bytes:miss_bytes ~random ~ops:(Stdlib.max runs 1)
          finish
    in
    if mem_time > 0.0 then
      Simkit.Process.delay t.engine mem_time after_mem
    else after_mem ()
  end

let read t f ?access k = read_range t f ~offset:0 ~bytes:f.size ?access k

let cached_fraction t f =
  let total = block_count t f in
  if total = 0 then 1.0
  else
    float_of_int (Page_cache.resident_blocks_of t.page_cache ~file:f.fid)
    /. float_of_int total

let warm_file t f =
  for b = 0 to block_count t f - 1 do
    Page_cache.insert t.page_cache ~file:f.fid ~block:b
  done

let uncached_read_time t f = Hw.Disk.sequential_read_time t.disk ~bytes:f.size

let cached_read_time t f = float_of_int f.size /. t.mem_bytes_per_s
