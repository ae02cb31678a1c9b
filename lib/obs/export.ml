module Jsonx = Simkit.Jsonx

type format = Json | Csv | Prom

let format_enum =
  Simkit.Enum.make ~what:"metrics format"
    ~aliases:[ ("prometheus", Prom) ]
    [ ("json", Json); ("csv", Csv); ("prom", Prom) ]

let opt_float = function None -> Jsonx.Null | Some v -> Jsonx.Float v

let histogram_json h =
  let module H = Metric.Histogram in
  Jsonx.Obj
    [
      ("type", Str "histogram");
      ("count", Int (H.count h));
      ("sum", Float (H.sum h));
      ("min", opt_float (H.min_value h));
      ("max", opt_float (H.max_value h));
      ("mean", opt_float (H.mean h));
      ("p50", opt_float (H.p50 h));
      ("p95", opt_float (H.p95 h));
      ("p99", opt_float (H.p99 h));
      ( "buckets",
        Arr
          (List.map
             (fun (i, c) ->
               Jsonx.Obj
                 [
                   ("le", Float (H.bucket_upper h i)); ("count", Int c);
                 ])
             (H.buckets h)) );
    ]

let metric_json ~now = function
  | Registry.Counter c ->
    Jsonx.Obj
      [
        ("type", Str "counter");
        ("total", Int (Metric.Counter.total c));
        ("rate", Float (Metric.Counter.last_window_rate c ~now));
      ]
  | Registry.Gauge g ->
    Jsonx.Obj [ ("type", Str "gauge"); ("value", Float (Metric.gauge_value g)) ]
  | Registry.Histogram h -> histogram_json h

let to_json ~now registry =
  let metrics =
    Jsonx.Obj
      (List.map
         (fun (name, m) -> (name, metric_json ~now m))
         (Registry.metrics registry))
  in
  Jsonx.to_string
    (Jsonx.Obj
       [ ("schema", Jsonx.Str "roothammer-obs/1"); ("now", Jsonx.Float now);
         ("metrics", metrics) ])

(* CSV is the flat instrument view: one row per field. *)
let to_csv ~now registry =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "metric,type,field,value\n";
  let num v = Jsonx.to_string (Jsonx.Float v) in
  let row name kind field value =
    Buffer.add_string buf
      (Printf.sprintf "%s,%s,%s,%s\n" name kind field value)
  in
  List.iter
    (fun (name, m) ->
      match m with
      | Registry.Counter c ->
        row name "counter" "total" (string_of_int (Metric.Counter.total c));
        row name "counter" "rate"
          (num (Metric.Counter.last_window_rate c ~now))
      | Registry.Gauge g -> row name "gauge" "value" (num (Metric.gauge_value g))
      | Registry.Histogram h ->
        let module H = Metric.Histogram in
        let opt = function None -> "" | Some v -> num v in
        row name "histogram" "count" (string_of_int (H.count h));
        row name "histogram" "sum" (num (H.sum h));
        row name "histogram" "min" (opt (H.min_value h));
        row name "histogram" "max" (opt (H.max_value h));
        row name "histogram" "mean" (opt (H.mean h));
        row name "histogram" "p50" (opt (H.p50 h));
        row name "histogram" "p95" (opt (H.p95 h));
        row name "histogram" "p99" (opt (H.p99 h)))
    (Registry.metrics registry);
  Buffer.contents buf

let prom_name name =
  let b = Buffer.create (String.length name + 11) in
  Buffer.add_string b "roothammer_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

let to_prometheus ~now registry =
  let buf = Buffer.create 512 in
  let num v =
    if Float.is_finite v then Jsonx.to_string (Jsonx.Float v) else "NaN"
  in
  List.iter
    (fun (name, m) ->
      let p = prom_name name in
      match m with
      | Registry.Counter c ->
        Buffer.add_string buf (Printf.sprintf "# TYPE %s_total counter\n" p);
        Buffer.add_string buf
          (Printf.sprintf "%s_total %d\n" p (Metric.Counter.total c));
        Buffer.add_string buf (Printf.sprintf "# TYPE %s_rate gauge\n" p);
        Buffer.add_string buf
          (Printf.sprintf "%s_rate %s\n" p
             (num (Metric.Counter.last_window_rate c ~now)))
      | Registry.Gauge g ->
        Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n" p);
        Buffer.add_string buf
          (Printf.sprintf "%s %s\n" p (num (Metric.gauge_value g)))
      | Registry.Histogram h ->
        let module H = Metric.Histogram in
        Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" p);
        let cumulative = ref 0 in
        List.iter
          (fun (i, c) ->
            cumulative := !cumulative + c;
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" p
                 (num (H.bucket_upper h i))
                 !cumulative))
          (H.buckets h);
        Buffer.add_string buf
          (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" p (H.count h));
        Buffer.add_string buf
          (Printf.sprintf "%s_sum %s\n" p (num (H.sum h)));
        Buffer.add_string buf (Printf.sprintf "%s_count %d\n" p (H.count h)))
    (Registry.metrics registry);
  Buffer.contents buf

let render fmt ~now registry =
  match fmt with
  | Json -> to_json ~now registry
  | Csv -> to_csv ~now registry
  | Prom -> to_prometheus ~now registry
