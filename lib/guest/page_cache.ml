(* LRU cache over (file, block) keys: a hash index into an intrusive
   doubly-linked list ordered most-recently-used first. *)

type key = { file : int; block : int }

type node = {
  nkey : key;
  mutable prev : node option;
  mutable next : node option;
}

type t = {
  capacity : int;
  block_size : int;
  index : (key, node) Hashtbl.t;
  mutable head : node option; (* most recently used *)
  mutable tail : node option; (* least recently used *)
  mutable count : int;
  mutable hit_count : int;
  mutable miss_count : int;
}

let create ~capacity_bytes ?(block_bytes = Simkit.Units.page_bytes) () =
  if capacity_bytes < 0 then invalid_arg "Page_cache.create: negative capacity";
  if block_bytes <= 0 then invalid_arg "Page_cache.create: block_bytes <= 0";
  {
    capacity = capacity_bytes / block_bytes;
    block_size = block_bytes;
    index = Hashtbl.create 1024;
    head = None;
    tail = None;
    count = 0;
    hit_count = 0;
    miss_count = 0;
  }

let block_bytes t = t.block_size
let used_bytes t = t.count * t.block_size
let resident_blocks t = t.count
let hits t = t.hit_count
let misses t = t.miss_count

let hit_ratio t =
  let lookups = t.hit_count + t.miss_count in
  if lookups = 0 then 1.0
  else float_of_int t.hit_count /. float_of_int lookups

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  node.prev <- None;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let mem t ~file ~block = Hashtbl.mem t.index { file; block }

let touch t ~file ~block =
  match Hashtbl.find_opt t.index { file; block } with
  | Some node ->
    t.hit_count <- t.hit_count + 1;
    unlink t node;
    push_front t node;
    true
  | None ->
    t.miss_count <- t.miss_count + 1;
    false

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some node ->
    unlink t node;
    Hashtbl.remove t.index node.nkey;
    t.count <- t.count - 1

let insert t ~file ~block =
  if t.capacity = 0 then ()
  else
    let k = { file; block } in
    match Hashtbl.find_opt t.index k with
    | Some node ->
      unlink t node;
      push_front t node
    | None ->
      if t.count >= t.capacity then evict_lru t;
      let node = { nkey = k; prev = None; next = None } in
      Hashtbl.replace t.index k node;
      push_front t node;
      t.count <- t.count + 1

let clear t =
  Hashtbl.reset t.index;
  t.head <- None;
  t.tail <- None;
  t.count <- 0;
  t.hit_count <- 0;
  t.miss_count <- 0

let resident_blocks_of t ~file =
  Hashtbl.fold (fun k _ acc -> if k.file = file then acc + 1 else acc) t.index 0

(* Getter-based for the same reason as [Vmm_heap.observe]: a cold
   reboot re-outfits the kernel with a fresh cache, and gauges should
   keep reading the live one. *)
let observe ?(prefix = "guest.page_cache") reg get =
  let g field read = Obs.Registry.gauge reg (prefix ^ "." ^ field) read in
  g "hits" (fun () -> float_of_int (hits (get ())));
  g "misses" (fun () -> float_of_int (misses (get ())));
  g "hit_ratio" (fun () -> hit_ratio (get ()));
  g "resident_bytes" (fun () -> float_of_int (used_bytes (get ())))

let check_invariants t =
  (* Walk the list forward, checking linkage and membership. *)
  let rec walk seen node =
    match node with
    | None -> Ok seen
    | Some n ->
      if not (Hashtbl.mem t.index n.nkey) then Error "list node not in index"
      else begin
        let back_link_ok =
          match n.next with
          | Some nx -> (match nx.prev with Some p -> p == n | None -> false)
          | None -> true
        in
        if not back_link_ok then Error "broken back-link"
        else walk (seen + 1) n.next
      end
  in
  match walk 0 t.head with
  | Error _ as e -> e
  | Ok seen ->
    if seen <> t.count then Error "list length <> count"
    else if Hashtbl.length t.index <> t.count then Error "index size <> count"
    else if t.count > t.capacity && t.capacity > 0 then Error "over capacity"
    else Ok ()
