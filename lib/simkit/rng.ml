type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

(* splitmix64 finalizer (Steele, Lea & Flood 2014). *)
let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let seed = bits64 t in
  { state = seed }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Mask to the native int's non-negative range before reducing. *)
  let r = Int64.to_int (bits64 t) land max_int in
  r mod bound

let uniform t =
  (* 53 high-quality bits mapped onto [0, 1). *)
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let float t x = uniform t *. x

let exponential t ~mean =
  let u = uniform t in
  (* [1 - u] avoids log 0. *)
  -.mean *. log (1.0 -. u)
