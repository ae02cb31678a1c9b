type t = {
  cold : int;
  batch : int;
  tax_full_s : float;
  mutable remaining : int;
}

let create ~memdyn ~cold_bytes =
  let memdyn = Memdyn.validate memdyn in
  if cold_bytes < 0 then invalid_arg "Stream.create: cold_bytes must be >= 0";
  {
    cold = cold_bytes;
    batch = memdyn.Memdyn.stream_batch_bytes;
    tax_full_s = memdyn.Memdyn.fault_tax_s;
    remaining = cold_bytes;
  }

let cold_bytes t = t.cold
let next_batch_bytes t = min t.batch t.remaining

let note_paged_in t ~bytes_ =
  if bytes_ < 0 then invalid_arg "Stream.note_paged_in: bytes must be >= 0";
  t.remaining <- max 0 (t.remaining - bytes_)

let batches_outstanding t = (t.remaining + t.batch - 1) / t.batch
let complete t = t.remaining = 0

let fault_tax_s t =
  if t.cold = 0 || t.remaining = 0 then 0.0
  else t.tax_full_s *. float_of_int t.remaining /. float_of_int t.cold

let pp ppf t =
  Format.fprintf ppf "stream(%a of %a cold remaining, tax %a)"
    Simkit.Units.pp_bytes t.remaining Simkit.Units.pp_bytes t.cold
    Simkit.Units.pp_seconds (fault_tax_s t)
