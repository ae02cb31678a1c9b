open Helpers
module Units = Simkit.Units

let test_sizes () =
  check_int "kib" 2048 (Units.kib 2);
  check_int "mib" 1048576 (Units.mib 1);
  check_int "gib" 1073741824 (Units.gib 1);
  check_int "page" 4096 Units.page_bytes

let test_conversions () =
  check_float "bytes_to_gib" 1.0 (Units.bytes_to_gib (Units.gib 1));
  check_float "bytes_to_mib" 512.0 (Units.bytes_to_mib (Units.mib 512));
  check_float "fractional gib" 0.5 (Units.bytes_to_gib (Units.mib 512))

let test_pages () =
  check_int "exact" 256 (Units.pages_of_bytes (Units.mib 1));
  check_int "rounds up" 1 (Units.pages_of_bytes 1);
  check_int "rounds up partial" 2 (Units.pages_of_bytes 4097);
  check_int "zero" 0 (Units.pages_of_bytes 0)

let test_pp () =
  let s v = Format.asprintf "%a" Units.pp_bytes v in
  check_true "GiB" (s (Units.gib 2) = "2.0 GiB");
  check_true "MiB" (s (Units.mib 3) = "3.0 MiB");
  check_true "KiB" (s (Units.kib 4) = "4.0 KiB");
  check_true "B" (s 123 = "123 B");
  let d v = Format.asprintf "%a" Units.pp_seconds v in
  check_true "seconds" (d 42.04 = "42.0 s");
  check_true "millis" (d 0.083 = "83 ms")

let test_time_helpers () =
  check_float "hours" 7200.0 (Units.hours 2.0);
  check_float "days" 86400.0 (Units.days 1.0);
  check_float "weeks" 604800.0 (Units.weeks 1.0)

let suite =
  ( "units",
    [
      Alcotest.test_case "sizes" `Quick test_sizes;
      Alcotest.test_case "conversions" `Quick test_conversions;
      Alcotest.test_case "page rounding" `Quick test_pages;
      Alcotest.test_case "pretty printing" `Quick test_pp;
      Alcotest.test_case "time helpers" `Quick test_time_helpers;
    ] )
