type t = { mutable data : float array; mutable len : int }

let create ?(capacity = 16) () =
  { data = Array.make (Stdlib.max capacity 1) 0.0; len = 0 }

let length t = t.len

let push t v =
  if t.len = Array.length t.data then begin
    let data = Array.make (2 * t.len) 0.0 in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end;
  t.data.(t.len) <- v;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Fvec.get: index out of bounds";
  t.data.(i)

let to_list t = List.init t.len (fun i -> t.data.(i))
