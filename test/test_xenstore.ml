open Helpers
module Xenstore = Xenvmm.Xenstore

let test_read_write () =
  let s = Xenstore.create () in
  check_true "missing" (Xenstore.read s ~path:"/vm/1/name" = None);
  Xenstore.write s ~path:"/vm/1/name" "vm01";
  check_true "present" (Xenstore.read s ~path:"/vm/1/name" = Some "vm01");
  Xenstore.write s ~path:"/vm/1/name" "vm01b";
  check_true "overwritten" (Xenstore.read s ~path:"/vm/1/name" = Some "vm01b");
  check_int "one entry" 1 (Xenstore.entries s)

let test_rm_subtree () =
  let s = Xenstore.create () in
  Xenstore.write s ~path:"/vm/1/name" "a";
  Xenstore.write s ~path:"/vm/1/memory" "b";
  Xenstore.write s ~path:"/vm/2/name" "c";
  Xenstore.rm s ~path:"/vm/1";
  check_true "gone" (Xenstore.read s ~path:"/vm/1/name" = None);
  check_true "sibling kept" (Xenstore.read s ~path:"/vm/2/name" = Some "c")

let test_directory () =
  let s = Xenstore.create () in
  Xenstore.write s ~path:"/vm/1/name" "a";
  Xenstore.write s ~path:"/vm/2/name" "b";
  Xenstore.write s ~path:"/vm/2/memory" "c";
  Alcotest.(check (list string)) "children" [ "1"; "2" ]
    (Xenstore.directory s ~path:"/vm");
  Alcotest.(check (list string)) "leaves" [ "memory"; "name" ]
    (Xenstore.directory s ~path:"/vm/2")

let test_transactions_counted () =
  let s = Xenstore.create () in
  Xenstore.write s ~path:"/a" "1";
  ignore (Xenstore.read s ~path:"/a");
  Xenstore.rm s ~path:"/a";
  ignore (Xenstore.directory s ~path:"/");
  check_int "four transactions" 4 (Xenstore.transactions s)

let test_leak_per_transaction () =
  (* The changeset-8640 bug: memory grows with every transaction. *)
  let s = Xenstore.create ~leak_per_transaction_bytes:4096 () in
  let before = Xenstore.memory_bytes s in
  for i = 1 to 100 do
    Xenstore.write s ~path:"/spam" (string_of_int i)
  done;
  let grown = Xenstore.memory_bytes s - before in
  check_true "leaked at least 400 KiB" (grown >= 100 * 4096)

let suite =
  ( "xenstore",
    [
      Alcotest.test_case "read/write" `Quick test_read_write;
      Alcotest.test_case "rm subtree" `Quick test_rm_subtree;
      Alcotest.test_case "directory" `Quick test_directory;
      Alcotest.test_case "transactions counted" `Quick test_transactions_counted;
      Alcotest.test_case "leak per transaction" `Quick test_leak_per_transaction;
    ] )
