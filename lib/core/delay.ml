type t = {
  dmin : Timebase.ps;
  dmax : Timebase.ps;
  rise_fall : ((Timebase.ps * Timebase.ps) * (Timebase.ps * Timebase.ps)) option;
}

let make dmin dmax =
  if dmin < 0 || dmax < dmin then invalid_arg "Delay.make: need 0 <= dmin <= dmax";
  { dmin; dmax; rise_fall = None }

let of_ns min_ns max_ns = make (Timebase.ps_of_ns min_ns) (Timebase.ps_of_ns max_ns)

let make_rise_fall ~rise:(rmin, rmax) ~fall:(fmin, fmax) =
  if rmin < 0 || rmax < rmin then invalid_arg "Delay.make_rise_fall: bad rise range";
  if fmin < 0 || fmax < fmin then invalid_arg "Delay.make_rise_fall: bad fall range";
  {
    dmin = min rmin fmin;
    dmax = max rmax fmax;
    rise_fall = Some ((rmin, rmax), (fmin, fmax));
  }

let of_rise_fall_ns ~rise:(ra, rb) ~fall:(fa, fb) =
  make_rise_fall
    ~rise:(Timebase.ps_of_ns ra, Timebase.ps_of_ns rb)
    ~fall:(Timebase.ps_of_ns fa, Timebase.ps_of_ns fb)

let rise_fall d = d.rise_fall

let zero = { dmin = 0; dmax = 0; rise_fall = None }

let add a b =
  let rise_fall =
    match a.rise_fall, b.rise_fall with
    | Some ((ra1, ra2), (fa1, fa2)), Some ((rb1, rb2), (fb1, fb2)) ->
      Some ((ra1 + rb1, ra2 + rb2), (fa1 + fb1, fa2 + fb2))
    | Some ((r1, r2), (f1, f2)), None -> Some ((r1 + b.dmin, r2 + b.dmax), (f1 + b.dmin, f2 + b.dmax))
    | None, Some ((r1, r2), (f1, f2)) -> Some ((r1 + a.dmin, r2 + a.dmax), (f1 + a.dmin, f2 + a.dmax))
    | None, None -> None
  in
  { dmin = a.dmin + b.dmin; dmax = a.dmax + b.dmax; rise_fall }

let scale f d =
  if not (f > 0.0 && Float.is_finite f) then
    invalid_arg "Delay.scale: factor must be positive and finite";
  if f = 1.0 then d
  else
    (* round the minimum down and the maximum up so the scaled range
       still covers every physical delay the factor could produce; the
       product of a positive factor and a delay is never negative *)
    let to_ps x =
      if not (x <= float_of_int Timebase.max_ps) then
        invalid_arg
          (Printf.sprintf "Delay.scale: x%g puts a delay outside the %d ps domain" f
             Timebase.max_ps);
      int_of_float x
    in
    let lo p = to_ps (floor (f *. float_of_int p)) in
    let hi p = to_ps (ceil (f *. float_of_int p)) in
    let rise_fall =
      match d.rise_fall with
      | None -> None
      | Some ((r1, r2), (f1, f2)) -> Some ((lo r1, hi r2), (lo f1, hi f2))
    in
    { dmin = lo d.dmin; dmax = hi d.dmax; rise_fall }

let spread d = d.dmax - d.dmin

let equal a b = a.dmin = b.dmin && a.dmax = b.dmax && a.rise_fall = b.rise_fall

let pp ppf d =
  match d.rise_fall with
  | None -> Format.fprintf ppf "%a/%a" Timebase.pp_ns d.dmin Timebase.pp_ns d.dmax
  | Some ((r1, r2), (f1, f2)) ->
    Format.fprintf ppf "R%a/%a F%a/%a" Timebase.pp_ns r1 Timebase.pp_ns r2 Timebase.pp_ns
      f1 Timebase.pp_ns f2
