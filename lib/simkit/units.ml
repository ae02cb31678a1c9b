let page_bytes = 4096

let kib n = n * 1024
let mib n = n * 1024 * 1024
let gib n = n * 1024 * 1024 * 1024

let bytes_to_gib b = float_of_int b /. 1073741824.0
let bytes_to_mib b = float_of_int b /. 1048576.0

let pages_of_bytes bytes = (bytes + page_bytes - 1) / page_bytes

let pp_bytes ppf b =
  let fb = float_of_int b in
  if fb >= 1073741824.0 then Format.fprintf ppf "%.1f GiB" (fb /. 1073741824.0)
  else if fb >= 1048576.0 then Format.fprintf ppf "%.1f MiB" (fb /. 1048576.0)
  else if fb >= 1024.0 then Format.fprintf ppf "%.1f KiB" (fb /. 1024.0)
  else Format.fprintf ppf "%d B" b

let pp_seconds ppf s =
  if Float.abs s >= 1.0 then Format.fprintf ppf "%.1f s" s
  else Format.fprintf ppf "%.0f ms" (s *. 1000.0)

let hours h = h *. 3600.0
let days d = d *. 86400.0
let weeks w = w *. 604800.0
