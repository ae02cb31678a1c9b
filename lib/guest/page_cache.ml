(* LRU cache over (file, block) keys, kept in flat int arrays so that a
   lookup allocates nothing.

   Slots. A resident block lives in a slot [s]: [files.(s)] and
   [blocks.(s)] hold its key, and [prev.(s)] and [next.(s)] link the
   slots into a doubly-linked list, most recently used first, ended by
   [nil]. The [count] resident blocks always occupy slots [0 .. count-1]:
   a block leaves the cache only by eviction, which hands its slot
   straight to the incoming block, or by [clear]. The four slot arrays
   start at [min capacity 8] entries and double on demand up to the
   capacity.

   Index. [index] maps a key to its slot by open addressing: linear
   probing from the key's hash, [nil] for an empty entry, and
   backward-shift deletion, so no tombstones build up. It always has at
   least twice as many entries as there are slots, so its load never
   exceeds 1/2; it starts at 16 entries and is rehashed whenever the slot
   arrays grow.

   Per-file counts. [per_file.(f)] is file [f]'s resident block count,
   kept current by insert, evict and clear, so [resident_blocks_of] is
   O(1). It is indexed by file id and grows on demand.

   The probe and shift loops are top-level functions: as local closures
   they would allocate on every lookup. An empty cache is the record and
   five small arrays, about 70 words (540 bytes). *)

let nil = -1
let initial_slots = 8
let initial_index = 16

type t = {
  capacity : int;
  block_size : int;
  mutable files : int array;
  mutable blocks : int array;
  mutable prev : int array;
  mutable next : int array;
  mutable index : int array; (* power-of-two length *)
  mutable per_file : int array;
  mutable head : int; (* most recently used *)
  mutable tail : int; (* least recently used *)
  mutable count : int;
  mutable hit_count : int;
  mutable miss_count : int;
}

let create ~capacity_bytes ?(block_bytes = Simkit.Units.page_bytes) () =
  if capacity_bytes < 0 then invalid_arg "Page_cache.create: negative capacity";
  if block_bytes <= 0 then invalid_arg "Page_cache.create: block_bytes <= 0";
  let capacity = capacity_bytes / block_bytes in
  let slots = min capacity initial_slots in
  {
    capacity;
    block_size = block_bytes;
    files = Array.make slots nil;
    blocks = Array.make slots nil;
    prev = Array.make slots nil;
    next = Array.make slots nil;
    index = Array.make initial_index nil;
    per_file = [||];
    head = nil;
    tail = nil;
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

(* splitmix64's finalizer, its constants cut to OCaml's 63-bit ints, so
   that neighbouring blocks of one file spread over the index; callers
   mask it to the index length. *)
let hash file block =
  let h = (file * 0x9E3779B97F4A7C1) + block in
  let h = (h lxor (h lsr 30)) * 0x3F58476D1CE4E5B9 in
  let h = (h lxor (h lsr 27)) * 0x14D049BB133111EB in
  h lxor (h lsr 31)

let home t file block = hash file block land (Array.length t.index - 1)
let next_pos t i = (i + 1) land (Array.length t.index - 1)

(* Index position holding [(file, block)], or [nil]. *)
let rec probe t file block i =
  let s = t.index.(i) in
  if s = nil then nil
  else if t.files.(s) = file && t.blocks.(s) = block then i
  else probe t file block (next_pos t i)

let find t ~file ~block = probe t file block (home t file block)

let rec free_pos t i =
  if t.index.(i) = nil then i else free_pos t (next_pos t i)

let index_add t s =
  t.index.(free_pos t (home t t.files.(s) t.blocks.(s))) <- s

(* Backward-shift deletion: [hole] was just emptied; pull back every
   later entry of the probe run whose home does not lie cyclically in
   (hole, j], so each stays reachable from its home. *)
let rec shift t hole j =
  let s = t.index.(j) in
  if s = nil then t.index.(hole) <- nil
  else
    let mask = Array.length t.index - 1 in
    let h = home t t.files.(s) t.blocks.(s) in
    if (j - h) land mask >= (j - hole) land mask then begin
      t.index.(hole) <- s;
      shift t j (next_pos t j)
    end
    else shift t hole (next_pos t j)

let index_remove t pos = shift t pos (next_pos t pos)

let unlink t s =
  let p = t.prev.(s) and n = t.next.(s) in
  if p = nil then t.head <- n else t.next.(p) <- n;
  if n = nil then t.tail <- p else t.prev.(n) <- p

let push_front t s =
  t.prev.(s) <- nil;
  t.next.(s) <- t.head;
  if t.head = nil then t.tail <- s else t.prev.(t.head) <- s;
  t.head <- s

let promote t s =
  if s <> t.head then begin
    unlink t s;
    push_front t s
  end

let mem t ~file ~block = find t ~file ~block <> nil

let touch t ~file ~block =
  let pos = find t ~file ~block in
  if pos <> nil then begin
    t.hit_count <- t.hit_count + 1;
    promote t t.index.(pos);
    true
  end
  else begin
    t.miss_count <- t.miss_count + 1;
    false
  end

let extend a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Double the slot arrays (up to the capacity). The index already has at
   least twice as many entries as the old slot arrays, so doubling it
   once, and rehashing, keeps its load at most 1/2. *)
let grow_slots t =
  let n = min t.capacity (2 * Array.length t.files) in
  t.files <- extend t.files n nil;
  t.blocks <- extend t.blocks n nil;
  t.prev <- extend t.prev n nil;
  t.next <- extend t.next n nil;
  if Array.length t.index < 2 * n then begin
    t.index <- Array.make (2 * Array.length t.index) nil;
    for s = 0 to t.count - 1 do index_add t s done
  end

let count_file t file delta =
  let len = Array.length t.per_file in
  if file >= len then
    t.per_file <- extend t.per_file (max (file + 1) (2 * len)) 0;
  t.per_file.(file) <- t.per_file.(file) + delta

(* The slot the incoming block takes: the next unused one, or the least
   recently used block's, which is evicted. *)
let take_slot t =
  if t.count < t.capacity then begin
    if t.count = Array.length t.files then grow_slots t;
    let s = t.count in
    t.count <- s + 1;
    s
  end
  else begin
    let s = t.tail in
    let file = t.files.(s) in
    index_remove t (find t ~file ~block:t.blocks.(s));
    unlink t s;
    count_file t file (-1);
    s
  end

let insert t ~file ~block =
  if file < 0 then invalid_arg "Page_cache.insert: negative file id";
  if t.capacity > 0 then begin
    let pos = find t ~file ~block in
    if pos <> nil then promote t t.index.(pos)
    else begin
      let s = take_slot t in
      t.files.(s) <- file;
      t.blocks.(s) <- block;
      index_add t s;
      push_front t s;
      count_file t file 1
    end
  end

let clear t =
  Array.fill t.index 0 (Array.length t.index) nil;
  Array.fill t.per_file 0 (Array.length t.per_file) 0;
  t.head <- nil;
  t.tail <- nil;
  t.count <- 0;
  t.hit_count <- 0;
  t.miss_count <- 0

let resident_blocks_of t ~file =
  if file >= 0 && file < Array.length t.per_file then t.per_file.(file) else 0

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
  (* Walk the list forward, checking linkage and that the index finds
     each block at its own slot; [seen] bounds the walk on a cycle. *)
  let rec walk seen last s =
    if s = nil then if last = t.tail then Ok seen else Error "tail <> last node"
    else if seen >= t.count || s < 0 || s >= t.count then
      Error "list runs past count"
    else if t.prev.(s) <> last then Error "broken back-link"
    else
      let pos = find t ~file:t.files.(s) ~block:t.blocks.(s) in
      if pos = nil || t.index.(pos) <> s then Error "list node not in index"
      else walk (seen + 1) s t.next.(s)
  in
  let indexed =
    Array.fold_left (fun n s -> if s = nil then n else n + 1) 0 t.index
  in
  let recount = Array.make (Array.length t.per_file) 0 in
  let strays = ref 0 in
  for s = 0 to t.count - 1 do
    let f = t.files.(s) in
    if f >= 0 && f < Array.length recount then recount.(f) <- recount.(f) + 1
    else incr strays
  done;
  match walk 0 nil t.head with
  | Error _ as e -> e
  | Ok seen ->
    if seen <> t.count then Error "list length <> count"
    else if indexed <> t.count then Error "index size <> count"
    else if 2 * t.count > Array.length t.index then Error "index over half full"
    else if t.count > t.capacity then Error "over capacity"
    else if !strays > 0 || recount <> t.per_file then
      Error "per-file count <> resident blocks"
    else Ok ()
