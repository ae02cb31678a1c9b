module Counter = struct
  type t = {
    window : float;
    mutable count : int;
    (* Streaming per-window tally: [cur_*] is the window the latest
       event fell into, [prev_*] the most recently closed one. Keeping
       both makes the last-completed-window rate an O(1) read, and no
       event is kept once it has been counted. *)
    mutable cur_idx : int;
    mutable cur_count : int;
    mutable prev_idx : int;
    mutable prev_count : int;
  }

  let create ?(window = 1.0) () =
    if window <= 0.0 then invalid_arg "Counter.create: window <= 0";
    {
      window;
      count = 0;
      cur_idx = 0;
      cur_count = 0;
      prev_idx = -1;
      prev_count = 0;
    }

  let record t ~time =
    t.count <- t.count + 1;
    let idx = int_of_float (time /. t.window) in
    if idx = t.cur_idx then t.cur_count <- t.cur_count + 1
    else begin
      t.prev_idx <- t.cur_idx;
      t.prev_count <- t.cur_count;
      t.cur_idx <- idx;
      t.cur_count <- 1
    end

  let total t = t.count

  let last_window_rate t ~now =
    let idx = int_of_float (now /. t.window) in
    let count =
      if idx = t.cur_idx then
        if t.prev_idx = idx - 1 then t.prev_count else 0
      else if t.cur_idx = idx - 1 then t.cur_count
      else 0
    in
    float_of_int count /. t.window
end

module Histogram = struct
  type t = {
    buckets_per_decade : int;
    counts : (int, int) Hashtbl.t; (* bucket index -> observation count *)
    mutable zero_count : int; (* observations <= 0 *)
    mutable total : int;
    mutable sum : float;
    mutable min_v : float;
    mutable max_v : float;
  }

  let create ?(buckets_per_decade = 20) () =
    if buckets_per_decade <= 0 then
      invalid_arg "Histogram.create: buckets_per_decade <= 0";
    {
      buckets_per_decade;
      counts = Hashtbl.create 32;
      zero_count = 0;
      total = 0;
      sum = 0.0;
      min_v = Float.infinity;
      max_v = Float.neg_infinity;
    }

  (* Bucket [i] covers [10^(i/bpd), 10^((i+1)/bpd)). The index is a
     pure function of the value, so same observations in any order
     always land in the same buckets. *)
  let bucket_index t v =
    int_of_float
      (Float.floor (Float.log10 v *. float_of_int t.buckets_per_decade))

  let bucket_lower t i =
    Float.pow 10.0 (float_of_int i /. float_of_int t.buckets_per_decade)

  let bucket_upper t i = bucket_lower t (i + 1)

  (* Geometric midpoint: the representative value reported for every
     observation that fell into bucket [i]. *)
  let bucket_mid t i =
    Float.pow 10.0
      ((float_of_int i +. 0.5) /. float_of_int t.buckets_per_decade)

  let observe t v =
    if Float.is_nan v then invalid_arg "Histogram.observe: NaN";
    t.total <- t.total + 1;
    t.sum <- t.sum +. v;
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v;
    if v > 0.0 then begin
      let i = bucket_index t v in
      let c = Option.value (Hashtbl.find_opt t.counts i) ~default:0 in
      Hashtbl.replace t.counts i (c + 1)
    end
    else t.zero_count <- t.zero_count + 1

  let count t = t.total
  let sum t = t.sum
  let min_value t = if t.total = 0 then None else Some t.min_v
  let max_value t = if t.total = 0 then None else Some t.max_v

  let mean t =
    if t.total = 0 then None else Some (t.sum /. float_of_int t.total)

  let buckets t =
    Hashtbl.fold (fun i c acc -> (i, c) :: acc) t.counts []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

  let quantile t ~p =
    if p < 0.0 || p > 100.0 then
      invalid_arg "Histogram.quantile: p outside [0, 100]";
    if t.total = 0 then None
    else begin
      let rank =
        Stdlib.max 1
          (int_of_float
             (Float.ceil (p /. 100.0 *. float_of_int t.total)))
      in
      let result =
        if rank <= t.zero_count then 0.0
        else begin
          let remaining = ref (rank - t.zero_count) in
          let answer = ref t.max_v in
          (try
             List.iter
               (fun (i, c) ->
                 remaining := !remaining - c;
                 if !remaining <= 0 then begin
                   answer := bucket_mid t i;
                   raise Exit
                 end)
               (buckets t)
           with Exit -> ());
          !answer
        end
      in
      (* Bucket midpoints can overshoot the true extremes; the exact
         min/max are tracked, so clamp to them. *)
      Some (Float.min t.max_v (Float.max t.min_v result))
    end

  let p50 t = quantile t ~p:50.0
  let p95 t = quantile t ~p:95.0
  let p99 t = quantile t ~p:99.0
end

type gauge = { mutable read : unit -> float }

let gauge_make read = { read }
let gauge_const v = { read = (fun () -> v) }
let gauge_value g = g.read ()
let gauge_set g v = g.read <- (fun () -> v)
