type 'a entry = { key : float; seq : int; value : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
  dummy : 'a entry;  (* fills every slot at or past [size] *)
}

let initial_capacity = 16

let create ~dummy =
  {
    data = [||];
    size = 0;
    next_seq = 0;
    dummy = { key = Float.infinity; seq = -1; value = dummy };
  }

let length t = t.size

let is_empty t = t.size = 0

(* [e1] sorts before [e2] when its key is smaller, with the insertion
   sequence number breaking ties so that equal-key entries stay FIFO. *)
let before e1 e2 =
  e1.key < e2.key || (e1.key = e2.key && e1.seq < e2.seq)

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t.data.(i) t.data.(parent) then begin
      let tmp = t.data.(i) in
      t.data.(i) <- t.data.(parent);
      t.data.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < t.size && before t.data.(left) t.data.(!smallest) then
    smallest := left;
  if right < t.size && before t.data.(right) t.data.(!smallest) then
    smallest := right;
  if !smallest <> i then begin
    let tmp = t.data.(i) in
    t.data.(i) <- t.data.(!smallest);
    t.data.(!smallest) <- tmp;
    sift_down t !smallest
  end

let add t ~key value =
  let capacity = Array.length t.data in
  if t.size = capacity then begin
    let data =
      Array.make
        (if capacity = 0 then initial_capacity else 2 * capacity)
        t.dummy
    in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end;
  t.data.(t.size) <- { key; seq = t.next_seq; value };
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let min t =
  if t.size = 0 then None
  else
    let e = t.data.(0) in
    Some (e.key, e.value)

(* The vacated last slot gets the sentinel, so a popped value is
   unreachable from the heap as soon as the caller drops it. *)
let pop t =
  if t.size = 0 then None
  else begin
    let e = t.data.(0) in
    let last = t.size - 1 in
    t.data.(0) <- t.data.(last);
    t.data.(last) <- t.dummy;
    t.size <- last;
    sift_down t 0;
    Some (e.key, e.value)
  end

let filter_inplace t ~keep =
  let n = t.size in
  let kept = ref 0 in
  for i = 0 to n - 1 do
    let e = t.data.(i) in
    if keep e.value then begin
      t.data.(!kept) <- e;
      incr kept
    end
  done;
  t.size <- !kept;
  (* Release dropped values to the GC, then restore the heap shape.
     Entries keep their sequence numbers, so FIFO tie-breaking against
     both surviving and future entries is unchanged. *)
  Array.fill t.data t.size (n - t.size) t.dummy;
  for i = (t.size / 2) - 1 downto 0 do
    sift_down t i
  done;
  n - !kept
