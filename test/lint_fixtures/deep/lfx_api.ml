let direct x = x + 1

module Inner = struct
  let via_alias x = x + 2
  let via_let_module x = x + 3
end

let from_init () = 4
let from_lib_init () = 5
let test_only x = x + 6
let unused x = x + 7
let pp ppf x = Format.fprintf ppf "%d" x

let () = ignore (from_lib_init ())
