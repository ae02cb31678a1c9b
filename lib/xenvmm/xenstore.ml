type t = {
  store : (string, string) Hashtbl.t;
  leak_per_transaction : int;
  mutable txn_count : int;
  mutable leaked : int;
}

let create ?(leak_per_transaction_bytes = 0) () =
  if leak_per_transaction_bytes < 0 then
    invalid_arg "Xenstore.create: negative leak";
  {
    store = Hashtbl.create 64;
    leak_per_transaction = leak_per_transaction_bytes;
    txn_count = 0;
    leaked = 0;
  }

let is_prefix ~prefix path =
  String.length path >= String.length prefix
  && String.sub path 0 (String.length prefix) = prefix

let transaction t =
  t.txn_count <- t.txn_count + 1;
  t.leaked <- t.leaked + t.leak_per_transaction

let write t ~path value =
  transaction t;
  Hashtbl.replace t.store path value

let read t ~path =
  transaction t;
  Hashtbl.find_opt t.store path

let rm t ~path =
  transaction t;
  let doomed =
    Hashtbl.fold (* simlint: allow D003 removing a key set commutes *)
      (fun k _ acc -> if is_prefix ~prefix:path k then k :: acc else acc)
      t.store []
  in
  List.iter (Hashtbl.remove t.store) doomed

let directory t ~path =
  transaction t;
  let prefix = if path = "" || path = "/" then "/" else path ^ "/" in
  Hashtbl.fold
    (fun k _ acc ->
      if is_prefix ~prefix k then begin
        let rest =
          String.sub k (String.length prefix)
            (String.length k - String.length prefix)
        in
        match String.index_opt rest '/' with
        | Some i -> String.sub rest 0 i :: acc
        | None -> rest :: acc
      end
      else acc)
    t.store []
  |> List.sort_uniq String.compare

let transactions t = t.txn_count
let entries t = Hashtbl.length t.store

let memory_bytes t =
  let contents =
    Hashtbl.fold
      (fun k v acc -> acc + String.length k + String.length v + 64)
      t.store 0
  in
  contents + t.leaked
