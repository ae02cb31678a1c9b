type t = {
  cfg : Memdyn.t;
  total_pages : int;
  base_ws_pages : int;
  rng : Simkit.Rng.t;
  anchor : float;
  mutable epoch : int;
  mutable ws_pages : int;
  mutable rate_factor : float;
  mutable ballooned : int;
}

(* Stable FNV-style string hash: the tracker seed must depend only on
   (memdyn seed, domain name), never on creation order or shard. *)
let hash_name s =
  let h = ref 0 in
  String.iter (fun c -> h := ((!h * 131) + Char.code c) land max_int) s;
  !h

let clamp lo hi x = if x < lo then lo else if x > hi then hi else x

let jittered rng ~base ~jitter =
  let u = Simkit.Rng.uniform rng in
  base *. (1.0 +. (jitter *. ((2.0 *. u) -. 1.0)))

let create ~memdyn ~name ~total_bytes ~now =
  let memdyn = Memdyn.validate memdyn in
  if total_bytes <= 0 then
    invalid_arg "Pagestate.create: total_bytes must be positive";
  let total_pages = Simkit.Units.pages_of_bytes total_bytes in
  let rng =
    Simkit.Rng.create ((memdyn.Memdyn.seed * 1_000_003) + hash_name name)
  in
  let base_fraction =
    clamp 0.01 0.99
      (jittered rng ~base:memdyn.Memdyn.working_set_fraction
         ~jitter:memdyn.Memdyn.working_set_jitter)
  in
  let base_ws_pages =
    clamp 1 total_pages
      (int_of_float (Float.round (base_fraction *. float_of_int total_pages)))
  in
  {
    cfg = memdyn;
    total_pages;
    base_ws_pages;
    rng;
    anchor = now;
    epoch = 0;
    ws_pages = base_ws_pages;
    rate_factor = 1.0;
    ballooned = 0;
  }

let cfg t = t.cfg
let total_pages t = t.total_pages
let resident_pages t = t.total_pages - t.ballooned
let resident_bytes t = resident_pages t * Simkit.Units.page_bytes
let ballooned_pages t = t.ballooned
let working_set_pages t = clamp 1 (resident_pages t) t.ws_pages
let working_set_bytes t = working_set_pages t * Simkit.Units.page_bytes
let dirty_rate_factor t = t.rate_factor

let dirty_rate_pages_per_s t =
  t.rate_factor
  *. float_of_int (working_set_pages t)
  /. t.cfg.Memdyn.sample_interval_s

(* One sampling epoch: re-jitter the working set around its base and
   draw the epoch's dirty-rate modulation. The third draw, an offset
   into the resident range, feeds nothing; it stays, with its bound,
   because every later epoch's draws sit behind it in the seeded
   stream. Exactly three draws per epoch keep the stream position a
   pure function of the epoch count. *)
let advance_epoch t =
  let resident = resident_pages t in
  let factor =
    jittered t.rng ~base:1.0 ~jitter:t.cfg.Memdyn.working_set_jitter
  in
  t.ws_pages <-
    clamp 1 resident
      (int_of_float (Float.round (factor *. float_of_int t.base_ws_pages)));
  t.rate_factor <- 0.75 +. (0.5 *. Simkit.Rng.uniform t.rng);
  ignore (Simkit.Rng.int t.rng (max 1 resident) : int);
  t.epoch <- t.epoch + 1

let refresh t ~now =
  let target =
    int_of_float ((now -. t.anchor) /. t.cfg.Memdyn.sample_interval_s)
  in
  while t.epoch < target do
    advance_epoch t
  done

let set_ballooned t ~pages =
  if pages < 0 || pages >= t.total_pages then
    invalid_arg "Pagestate.set_ballooned: pages outside [0, total)";
  t.ballooned <- pages

let pp ppf t =
  Format.fprintf ppf
    "pagestate(%d pages, %d resident, ws %d, %d ballooned)"
    t.total_pages (resident_pages t) (working_set_pages t) t.ballooned
