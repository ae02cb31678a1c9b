type metric =
  | Counter of Metric.Counter.t
  | Gauge of Metric.gauge
  | Histogram of Metric.Histogram.t

type t = { metrics : (string, metric) Hashtbl.t }

let create () = { metrics = Hashtbl.create 64 }

let kind = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let find t name = Hashtbl.find_opt t.metrics name

let mismatch name ~want got =
  invalid_arg
    (Printf.sprintf "Obs.Registry: %S already registered as a %s, not a %s"
       name (kind got) want)

let counter t ?window name =
  match find t name with
  | Some (Counter c) -> c
  | Some other -> mismatch name ~want:"counter" other
  | None ->
    let c = Metric.Counter.create ?window () in
    Hashtbl.replace t.metrics name (Counter c);
    c

let histogram t ?buckets_per_decade name =
  match find t name with
  | Some (Histogram h) -> h
  | Some other -> mismatch name ~want:"histogram" other
  | None ->
    let h = Metric.Histogram.create ?buckets_per_decade () in
    Hashtbl.replace t.metrics name (Histogram h);
    h

(* Gauges read live component state, so re-registering after a reboot
   replaces the previous component's read-out: last registration wins. *)
let gauge t name read =
  Hashtbl.replace t.metrics name (Gauge (Metric.gauge_make read))

let set_gauge t name v =
  match find t name with
  | Some (Gauge g) -> Metric.gauge_set g v
  | Some other -> mismatch name ~want:"gauge" other
  | None -> Hashtbl.replace t.metrics name (Gauge (Metric.gauge_const v))

let register t name metric = Hashtbl.replace t.metrics name metric

let metrics t =
  Hashtbl.fold (fun name m acc -> (name, m) :: acc) t.metrics []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let cardinality t = Hashtbl.length t.metrics
