type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
}

let mean xs =
  match xs with
  | [] -> invalid_arg "Stat.mean: empty sample"
  | _ ->
    let total = List.fold_left ( +. ) 0.0 xs in
    total /. float_of_int (List.length xs)

let variance xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
    let m = mean xs in
    let sq = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
    sq /. float_of_int (List.length xs - 1)

let stddev xs = sqrt (variance xs)

let summarize_opt xs =
  match xs with
  | [] -> None
  | x :: rest ->
    let min_v = List.fold_left Float.min x rest in
    let max_v = List.fold_left Float.max x rest in
    Some
      {
        count = List.length xs;
        mean = mean xs;
        stddev = stddev xs;
        min = min_v;
        max = max_v;
      }

let summarize xs =
  match summarize_opt xs with
  | Some s -> s
  | None -> invalid_arg "Stat.summarize: empty sample"

type linear = { slope : float; intercept : float; r2 : float }

let linear_fit points =
  let n = List.length points in
  if n < 2 then invalid_arg "Stat.linear_fit: need at least two points";
  let fn = float_of_int n in
  let sum_x = List.fold_left (fun a (x, _) -> a +. x) 0.0 points in
  let sum_y = List.fold_left (fun a (_, y) -> a +. y) 0.0 points in
  let mean_x = sum_x /. fn and mean_y = sum_y /. fn in
  let sxx =
    List.fold_left (fun a (x, _) -> a +. ((x -. mean_x) ** 2.0)) 0.0 points
  in
  let sxy =
    List.fold_left
      (fun a (x, y) -> a +. ((x -. mean_x) *. (y -. mean_y)))
      0.0 points
  in
  if sxx = 0.0 then invalid_arg "Stat.linear_fit: all x values identical";
  let slope = sxy /. sxx in
  let intercept = mean_y -. (slope *. mean_x) in
  let ss_tot =
    List.fold_left (fun a (_, y) -> a +. ((y -. mean_y) ** 2.0)) 0.0 points
  in
  let ss_res =
    List.fold_left
      (fun a (x, y) ->
        let fitted = (slope *. x) +. intercept in
        a +. ((y -. fitted) ** 2.0))
      0.0 points
  in
  let r2 = if ss_tot = 0.0 then 1.0 else 1.0 -. (ss_res /. ss_tot) in
  { slope; intercept; r2 }

let eval_linear { slope; intercept; _ } x = (slope *. x) +. intercept

let pp_linear ?(var = "n") ppf { slope; intercept; _ } =
  if intercept >= 0.0 then
    Format.fprintf ppf "%.2f%s + %.1f" slope var intercept
  else Format.fprintf ppf "%.2f%s - %.1f" slope var (Float.abs intercept)
