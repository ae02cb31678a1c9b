(* D010 capture cases. Only [bad_tbl] and [bad_transitive] hand
   unsynchronized mutable state across the domain boundary. *)

let bad_tbl () =
  let tbl = Hashtbl.create 8 in
  let d = Domain.spawn (fun () -> Hashtbl.replace tbl 1 1) in
  Domain.join d;
  Hashtbl.length tbl

let good_atomic () =
  let hits = Atomic.make 0 in
  let d = Domain.spawn (fun () -> Atomic.incr hits) in
  Domain.join d;
  Atomic.get hits

let good_fresh () =
  let d =
    Domain.spawn (fun () ->
        let tbl = Hashtbl.create 8 in
        Hashtbl.replace tbl 1 1;
        Hashtbl.length tbl)
  in
  Domain.join d

let good_locked () =
  let total = ref 0 in
  let lock = Mutex.create () in
  let d =
    Domain.spawn (fun () ->
        Mutex.lock lock;
        incr total;
        Mutex.unlock lock)
  in
  Domain.join d;
  !total

let bad_transitive () =
  let buf = Buffer.create 8 in
  let bump () = Buffer.add_char buf 'x' in
  let d = Domain.spawn (fun () -> bump ()) in
  Domain.join d;
  Buffer.length buf

let () =
  let tbl = Hashtbl.create 8 in
  Domain.join (Domain.spawn (fun () -> Hashtbl.replace tbl 1 1))

let _ =
  let tbl = Hashtbl.create 8 in
  Domain.join (Domain.spawn (fun () -> Hashtbl.replace tbl 1 1))
