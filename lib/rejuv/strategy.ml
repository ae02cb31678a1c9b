type t = Warm | Saved | Cold

let all = [ Warm; Saved; Cold ]

let name = function
  | Warm -> "warm-VM reboot"
  | Saved -> "saved-VM reboot"
  | Cold -> "cold-VM reboot"

let enum =
  Simkit.Enum.make ~what:"strategy"
    ~aliases:
      [
        ("warm-vm", Warm); ("warm-vm reboot", Warm);
        ("saved-vm", Saved); ("saved-vm reboot", Saved);
        ("cold-vm", Cold); ("cold-vm reboot", Cold);
      ]
    [ ("warm", Warm); ("saved", Saved); ("cold", Cold) ]

let id = Simkit.Enum.name enum
let of_string = Simkit.Enum.of_string_opt enum

let pp ppf t = Format.pp_print_string ppf (name t)

let restarts_services = function Cold -> true | Warm | Saved -> false
