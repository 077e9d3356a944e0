type ps = int

type t = { period : ps; clock_unit : ps }

let max_ps = 1_000_000_000_000_000

(* A rounded picosecond count into the integer domain; NaN fails the
   comparison too. *)
let ps_of_float what x =
  let r = Float.round x in
  if not (Float.abs r <= float_of_int max_ps) then
    invalid_arg
      (Printf.sprintf "Timebase.%s: %g ps is outside the domain of +/-%d ps" what r max_ps);
  int_of_float r

let ps_of_ns ns = ps_of_float "ps_of_ns" (ns *. 1000.)

let ns_of_ps ps = float_of_int ps /. 1000.

let of_period_ps ~period ~clock_unit =
  if period <= 0 then invalid_arg "Timebase: period must be positive";
  if clock_unit <= 0 then invalid_arg "Timebase: clock unit must be positive";
  { period; clock_unit }

let make ~period_ns ~clock_unit_ns =
  of_period_ps ~period:(ps_of_ns period_ns) ~clock_unit:(ps_of_ns clock_unit_ns)

let period tb = tb.period

let clock_unit tb = tb.clock_unit

let units_per_period tb = float_of_int tb.period /. float_of_int tb.clock_unit

let ps_of_units tb u = ps_of_float "ps_of_units" (u *. float_of_int tb.clock_unit)

let units_of_ps tb ps = float_of_int ps /. float_of_int tb.clock_unit

let wrap tb x =
  let r = x mod tb.period in
  if r < 0 then r + tb.period else r

let pp_ns ppf ps = Format.fprintf ppf "%.1f" (ns_of_ps ps)
