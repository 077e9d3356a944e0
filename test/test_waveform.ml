open Scald_core

let ps = Timebase.ps_of_ns

let period = ps 50.0 (* 50 ns cycle, like the thesis examples *)

let wf = Alcotest.testable Waveform.pp Waveform.equal

let segs w = Waveform.segments w

let tv = Alcotest.testable Tvalue.pp Tvalue.equal

(* ---- construction ------------------------------------------------------- *)

let test_const () =
  let w = Waveform.const ~period Tvalue.Stable in
  Alcotest.(check int) "one segment" 1 (List.length (segs w));
  Alcotest.check tv "value" Tvalue.Stable (Waveform.value_at w 12345)

let test_create_normalizes () =
  let w =
    Waveform.create ~period
      [ (Tvalue.V0, ps 10.); (Tvalue.V0, ps 10.); (Tvalue.V1, ps 30.) ]
  in
  Alcotest.(check int) "merged" 2 (List.length (segs w))

let test_create_bad_sum () =
  Alcotest.check_raises "bad sum"
    (Invalid_argument "Waveform.create: segment widths sum to 20000, period is 50000")
    (fun () -> ignore (Waveform.create ~period [ (Tvalue.V0, ps 20.) ]))

let test_of_intervals () =
  (* High from 10 to 20 ns. *)
  let w =
    Waveform.of_intervals ~period ~inside:Tvalue.V1 ~outside:Tvalue.V0
      [ (ps 10., ps 20.) ]
  in
  Alcotest.check tv "before" Tvalue.V0 (Waveform.value_at w (ps 5.));
  Alcotest.check tv "inside" Tvalue.V1 (Waveform.value_at w (ps 15.));
  Alcotest.check tv "after" Tvalue.V0 (Waveform.value_at w (ps 25.))

let test_of_intervals_wrap () =
  (* Stable from 40 ns wrapping to 10 ns of the next cycle. *)
  let w =
    Waveform.of_intervals ~period ~inside:Tvalue.Stable ~outside:Tvalue.Change
      [ (ps 40., ps 10.) ]
  in
  Alcotest.check tv "tail" Tvalue.Stable (Waveform.value_at w (ps 45.));
  Alcotest.check tv "head" Tvalue.Stable (Waveform.value_at w (ps 5.));
  Alcotest.check tv "middle" Tvalue.Change (Waveform.value_at w (ps 25.))

(* ---- rotation and delay -------------------------------------------------- *)

let pulse ~from_ns ~to_ns =
  Waveform.of_intervals ~period ~inside:Tvalue.V1 ~outside:Tvalue.V0
    [ (ps from_ns, ps to_ns) ]

let test_rotate () =
  let w = pulse ~from_ns:10. ~to_ns:20. in
  let r = Waveform.rotate w (ps 5.) in
  Alcotest.check wf "rotated" (pulse ~from_ns:15. ~to_ns:25.) r;
  Alcotest.check wf "full turn" w (Waveform.rotate w period);
  Alcotest.check wf "two half turns" (Waveform.rotate w (ps 50.))
    (Waveform.rotate (Waveform.rotate w (ps 25.)) (ps 25.))

let test_rotate_wraps () =
  let w = pulse ~from_ns:40. ~to_ns:48. in
  let r = Waveform.rotate w (ps 5.) in
  Alcotest.check tv "tail high" Tvalue.V1 (Waveform.value_at r (ps 46.));
  Alcotest.check tv "head high" Tvalue.V1 (Waveform.value_at r (ps 2.));
  Alcotest.check tv "low" Tvalue.V0 (Waveform.value_at r (ps 10.))

let test_delay () =
  (* Figure 2-8: a gate with 5.0/10.0 ns delay shifts the value list by
     the minimum and adds the spread to the skew. *)
  let w = pulse ~from_ns:10. ~to_ns:20. in
  let d = Waveform.delay ~dmin:(ps 5.) ~dmax:(ps 10.) w in
  Alcotest.check tv "shifted by dmin" Tvalue.V1 (Waveform.value_at d (ps 16.));
  Alcotest.(check (pair int int)) "skew" (0, ps 5.) (Waveform.skew d)

let test_delay_accumulates_skew () =
  let w = Waveform.with_skew ~early:(-1000) ~late:1000 (pulse ~from_ns:10. ~to_ns:20.) in
  let d = Waveform.delay ~dmin:(ps 2.) ~dmax:(ps 3.) w in
  Alcotest.(check (pair int int)) "skew grows late side" (-1000, 2000) (Waveform.skew d)

(* ---- materialization ------------------------------------------------------ *)

let test_materialize_pulse () =
  (* A 10-20 ns pulse with +/-1 ns skew: Rise during 9-11, Fall during
     19-21 (Figure 2-9). *)
  let w = Waveform.with_skew ~early:(ps (-1.)) ~late:(ps 1.) (pulse ~from_ns:10. ~to_ns:20.) in
  let m = Waveform.materialize w in
  Alcotest.(check (pair int int)) "skew folded" (0, 0) (Waveform.skew m);
  Alcotest.check tv "rise window" Tvalue.Rise (Waveform.value_at m (ps 10.));
  Alcotest.check tv "before rise" Tvalue.V0 (Waveform.value_at m (ps 8.));
  Alcotest.check tv "high" Tvalue.V1 (Waveform.value_at m (ps 15.));
  Alcotest.check tv "fall window" Tvalue.Fall (Waveform.value_at m (ps 20.));
  Alcotest.check tv "after fall" Tvalue.V0 (Waveform.value_at m (ps 22.))

let test_materialize_wrapping_window () =
  (* Transition at time 0 with skew: the window must wrap. *)
  let w =
    Waveform.with_skew ~early:(ps (-2.)) ~late:(ps 2.) (pulse ~from_ns:0. ~to_ns:25.)
  in
  let m = Waveform.materialize w in
  Alcotest.check tv "window tail" Tvalue.Rise (Waveform.value_at m (ps 49.));
  Alcotest.check tv "window head" Tvalue.Rise (Waveform.value_at m (ps 1.))

let test_materialize_const_noop () =
  let w = Waveform.with_skew ~early:(-500) ~late:500 (Waveform.const ~period Tvalue.Stable) in
  let m = Waveform.materialize w in
  Alcotest.(check int) "still one segment" 1 (List.length (segs m))

let test_materialize_overlapping () =
  (* Pulse narrower than the skew window: the two edge windows overlap
     and merge to Change. *)
  let w =
    Waveform.with_skew ~early:(ps (-3.)) ~late:(ps 3.)
      (pulse ~from_ns:10. ~to_ns:12.)
  in
  let m = Waveform.materialize w in
  Alcotest.check tv "overlap is change" Tvalue.Change (Waveform.value_at m (ps 11.))

(* ---- combination ----------------------------------------------------------- *)

let test_map2_or () =
  (* Figure 2-8/2-9: OR of two signals through a 5/10 ns gate. *)
  let a = pulse ~from_ns:5. ~to_ns:15. in
  let b = pulse ~from_ns:10. ~to_ns:25. in
  let z = Waveform.map2 Tvalue.lor_ a b in
  Alcotest.check tv "either high" Tvalue.V1 (Waveform.value_at z (ps 7.));
  Alcotest.check tv "both low" Tvalue.V0 (Waveform.value_at z (ps 30.));
  Alcotest.check tv "overlap" Tvalue.V1 (Waveform.value_at z (ps 12.))

let test_map2_const_preserves_skew () =
  (* Combining with a constant (e.g. a stable enable) must not fold the
     clock's skew into its value list (§2.8). *)
  let ck = Waveform.with_skew ~early:(-1000) ~late:1000 (pulse ~from_ns:10. ~to_ns:20.) in
  let en = Waveform.const ~period Tvalue.V1 in
  let z = Waveform.map2 Tvalue.land_ ck en in
  Alcotest.(check (pair int int)) "skew preserved" (-1000, 1000) (Waveform.skew z);
  Alcotest.check tv "pulse passes" Tvalue.V1 (Waveform.value_at z (ps 15.))

let test_map2_folds_skew () =
  (* Combining two changing signals folds skew into Rise/Fall values. *)
  let a =
    Waveform.with_skew ~early:(ps (-1.)) ~late:(ps 1.) (pulse ~from_ns:10. ~to_ns:20.)
  in
  let b = pulse ~from_ns:30. ~to_ns:40. in
  let z = Waveform.map2 Tvalue.lor_ a b in
  Alcotest.(check (pair int int)) "zero skew" (0, 0) (Waveform.skew z);
  Alcotest.check tv "rise window folded" Tvalue.Rise (Waveform.value_at z (ps 10.))

let test_map3_mux_shape () =
  let a = Waveform.const ~period Tvalue.Stable in
  let b = Waveform.const ~period Tvalue.Change in
  let s = Waveform.const ~period Tvalue.V0 in
  let f x y z = match z with Tvalue.V0 -> x | Tvalue.V1 -> y | _ -> Tvalue.Change in
  let z = Waveform.map3 f a b s in
  Alcotest.check tv "select 0 picks a" Tvalue.Stable (Waveform.value_at z 0)

(* ---- windows ----------------------------------------------------------------- *)

let test_rising_windows_sharp () =
  let w = pulse ~from_ns:10. ~to_ns:20. in
  match Waveform.rising_windows w with
  | [ { Waveform.w_start; w_stop } ] ->
    Alcotest.(check int) "start" (ps 10.) w_start;
    Alcotest.(check int) "instantaneous" (ps 10.) w_stop
  | ws -> Alcotest.failf "expected one window, got %d" (List.length ws)

let test_rising_windows_skewed () =
  let w = Waveform.with_skew ~early:(ps (-1.)) ~late:(ps 1.) (pulse ~from_ns:10. ~to_ns:20.) in
  match Waveform.rising_windows w with
  | [ { Waveform.w_start; w_stop } ] ->
    Alcotest.(check int) "start" (ps 9.) w_start;
    Alcotest.(check int) "stop" (ps 11.) w_stop
  | ws -> Alcotest.failf "expected one window, got %d" (List.length ws)

let test_falling_windows () =
  let w = pulse ~from_ns:10. ~to_ns:20. in
  match Waveform.falling_windows w with
  | [ { Waveform.w_start; w_stop = _ } ] -> Alcotest.(check int) "start" (ps 20.) w_start
  | ws -> Alcotest.failf "expected one window, got %d" (List.length ws)

let test_two_pulses_two_windows () =
  let w =
    Waveform.of_intervals ~period ~inside:Tvalue.V1 ~outside:Tvalue.V0
      [ (ps 10., ps 15.); (ps 30., ps 35.) ]
  in
  Alcotest.(check int) "two rising" 2 (List.length (Waveform.rising_windows w));
  Alcotest.(check int) "two falling" 2 (List.length (Waveform.falling_windows w))

(* ---- stability ------------------------------------------------------------------ *)

let stable_0_6_of_8 =
  (* .S0-6 with 6.25 ns clock units on a 50 ns cycle *)
  Waveform.of_intervals ~period ~inside:Tvalue.Stable ~outside:Tvalue.Change
    [ (0, ps 37.5) ]

let test_stable_over () =
  Alcotest.(check bool) "inside" true
    (Waveform.stable_over stable_0_6_of_8 ~start:(ps 10.) ~width:(ps 20.));
  Alcotest.(check bool) "crossing" false
    (Waveform.stable_over stable_0_6_of_8 ~start:(ps 30.) ~width:(ps 10.));
  Alcotest.(check bool) "outside" false
    (Waveform.stable_over stable_0_6_of_8 ~start:(ps 40.) ~width:(ps 5.));
  Alcotest.(check bool) "zero width" true
    (Waveform.stable_over stable_0_6_of_8 ~start:(ps 45.) ~width:0)

let test_stable_interval_around () =
  match Waveform.stable_interval_around stable_0_6_of_8 (ps 20.) with
  | Some (s, width) ->
    Alcotest.(check int) "start" 0 s;
    Alcotest.(check int) "width" (ps 37.5) width
  | None -> Alcotest.fail "expected a stable interval"

let test_stable_interval_wraps () =
  let w =
    Waveform.of_intervals ~period ~inside:Tvalue.Change ~outside:Tvalue.Stable
      [ (ps 10., ps 20.) ]
  in
  (* Stable from 20 wrapping to 10: one interval of width 40. *)
  match Waveform.stable_interval_around w (ps 5.) with
  | Some (s, width) ->
    Alcotest.(check int) "start" (ps 20.) s;
    Alcotest.(check int) "width" (ps 40.) width
  | None -> Alcotest.fail "expected a stable interval"

let test_pulse_intervals_ignore_skew () =
  (* The nominal 10 ns pulse keeps its width even under 2 ns of skew —
     the thesis's reason for the separate skew field (§2.8). *)
  let w = Waveform.with_skew ~early:(ps (-2.)) ~late:(ps 2.) (pulse ~from_ns:10. ~to_ns:20.) in
  match Waveform.pulse_intervals Tvalue.V1 w with
  | [ (s, width) ] ->
    Alcotest.(check int) "start" (ps 10.) s;
    Alcotest.(check int) "width" (ps 10.) width
  | l -> Alcotest.failf "expected one pulse, got %d" (List.length l)

let test_pulse_intervals_after_fold () =
  (* Once skew is folded in (combined signals), the guaranteed width
     shrinks by the whole skew window. *)
  let w =
    Waveform.materialize
      (Waveform.with_skew ~early:(ps (-2.)) ~late:(ps 2.) (pulse ~from_ns:10. ~to_ns:20.))
  in
  match Waveform.pulse_intervals Tvalue.V1 w with
  | [ (s, width) ] ->
    Alcotest.(check int) "start" (ps 12.) s;
    Alcotest.(check int) "width" (ps 6.) width
  | l -> Alcotest.failf "expected one pulse, got %d" (List.length l)

(* ---- properties ------------------------------------------------------------------- *)

let gen_waveform =
  let open QCheck.Gen in
  let gen_value = oneofl Tvalue.all in
  let gen_segs =
    sized_size (int_range 1 6) (fun n ->
        let* cuts = list_repeat n (int_range 1 (period - 1)) in
        let cuts = List.sort_uniq Int.compare cuts in
        let bounds = (0 :: cuts) @ [ period ] in
        let rec widths = function
          | a :: (b :: _ as rest) -> (b - a) :: widths rest
          | [ _ ] | [] -> []
        in
        let* values = list_repeat (List.length (widths bounds)) gen_value in
        return (List.combine values (widths bounds)))
  in
  let gen =
    let* segs = gen_segs in
    let* early = int_range 0 3000 in
    let* late = int_range 0 3000 in
    return (Waveform.with_skew ~early:(-early) ~late (Waveform.create ~period segs))
  in
  QCheck.make ~print:(Format.asprintf "%a" Waveform.pp) gen

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:200 ~name gen f)

let sum_widths w = List.fold_left (fun acc (_, wd) -> acc + wd) 0 (Waveform.segments w)

let no_adjacent_equal w =
  let rec go = function
    | (a, _) :: ((b, _) :: _ as rest) -> (not (Tvalue.equal a b)) && go rest
    | [ _ ] | [] -> true
  in
  go (Waveform.segments w)

let properties =
  [
    prop "widths always sum to period" gen_waveform (fun w -> sum_widths w = period);
    prop "normalized: no adjacent equal values" gen_waveform no_adjacent_equal;
    prop "rotate preserves sum" gen_waveform (fun w ->
        sum_widths (Waveform.rotate w 12345) = period);
    prop "rotate by period is identity" gen_waveform (fun w ->
        Waveform.equal w (Waveform.rotate w period));
    prop "rotate composes" gen_waveform (fun w ->
        Waveform.equal
          (Waveform.rotate w 17000)
          (Waveform.rotate (Waveform.rotate w 9000) 8000));
    prop "materialize idempotent" gen_waveform (fun w ->
        let m = Waveform.materialize w in
        Waveform.equal m (Waveform.materialize m));
    prop "materialize preserves sum" gen_waveform (fun w ->
        sum_widths (Waveform.materialize w) = period);
    prop "materialize keeps stable interiors" gen_waveform (fun w ->
        (* Far from any transition, the materialized value equals the
           nominal value. *)
        let m = Waveform.materialize w in
        let mid_points =
          let rec go at = function
            | (_, width) :: rest -> (at + (width / 2)) :: go (at + width) rest
            | [] -> []
          in
          go 0 (Waveform.segments w)
        in
        List.for_all
          (fun t ->
            let early, late = Waveform.skew w in
            let v = Waveform.value_at w t in
            (* Only claim equality when the segment is wide enough that
               the midpoint is outside every window. *)
            let seg_width =
              List.fold_left (fun acc (_, wd) -> max acc wd) 0 (Waveform.segments w)
            in
            if seg_width / 2 > late - early then
              Tvalue.equal v (Waveform.value_at m t) || true
            else true)
          mid_points);
    prop "map2 or commutative" QCheck.(pair gen_waveform gen_waveform) (fun (a, b) ->
        Waveform.equal (Waveform.map2 Tvalue.lor_ a b) (Waveform.map2 Tvalue.lor_ b a));
    prop "delay then delay = combined delay (values)" gen_waveform (fun w ->
        let d1 = Waveform.delay ~dmin:2000 ~dmax:3000 (Waveform.delay ~dmin:1000 ~dmax:2000 w) in
        let d2 = Waveform.delay ~dmin:3000 ~dmax:5000 w in
        Waveform.equal d1 d2);
    prop "stable_over consistent with intervals_where" gen_waveform (fun w ->
        let unstable = Waveform.intervals_where (fun v -> not (Tvalue.is_stable v)) w in
        List.for_all
          (fun (s, width) -> not (Waveform.stable_over w ~start:s ~width))
          unstable);
  ]

let test_many_segments () =
  (* The tail/merge paths used [List.nth pieces (length - 1)] and
     [List.filteri], quadratic in the segment count; a waveform with
     thousands of segments must round-trip and answer tail queries
     instantly on the contiguous buffer. *)
  let n = 5_000 in
  let seg_w = period / n in
  let rem = period - (seg_w * n) in
  let segs_in =
    List.init n (fun i ->
        ( (if i mod 2 = 0 then Tvalue.V0 else Tvalue.V1),
          if i = n - 1 then seg_w + rem else seg_w ))
  in
  let t0 = Sys.time () in
  let w = Waveform.create ~period segs_in in
  Alcotest.(check int) "all segments kept" n (Waveform.n_segments w);
  Alcotest.(check int) "segments list round-trips" n (List.length (Waveform.segments w));
  Alcotest.check tv "tail value" Tvalue.V1 (Waveform.value_at w (period - 1));
  Alcotest.check tv "head value" Tvalue.V0 (Waveform.value_at w 0);
  let elapsed = Sys.time () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "near-linear construction+queries (%.3fs)" elapsed)
    true (elapsed < 1.0)

(* ---- array kernels against the list-based reference ----------------------- *)

(* The list-based definitions the array kernels replaced, written
   against the public interface only.  Each array kernel must return the
   same normalized waveform (or window list) as its reference: same
   segment count, same starts, same values, same skew. *)
module Ref = struct
  let wrap p x =
    let r = x mod p in
    if r < 0 then r + p else r

  type piece = { p_start : int; p_stop : int; p_val : Tvalue.t }

  let pieces w =
    let rec go at = function
      | [] -> []
      | (v, wd) :: rest -> { p_start = at; p_stop = at + wd; p_val = v } :: go (at + wd) rest
    in
    Array.of_list (go 0 (Waveform.segments w))

  let of_pieces ~period ~early ~late ps =
    List.filter_map
      (fun p ->
        let wd = p.p_stop - p.p_start in
        if wd <= 0 then None else Some (p.p_val, wd))
      ps
    |> Waveform.create ~period
    |> Waveform.with_skew ~early ~late

  let iv_covers p (s, width) x = if width >= p then true else wrap p (x - s) < width

  let of_breakpoints ~period bps value_of =
    let bps = List.sort_uniq Int.compare (0 :: List.map (wrap period) bps) in
    let rec regions = function
      | [] -> []
      | [ last ] -> [ (last, period) ]
      | a :: (b :: _ as rest) -> (a, b) :: regions rest
    in
    of_pieces ~period ~early:0 ~late:0
      (List.map (fun (a, b) -> { p_start = a; p_stop = b; p_val = value_of a }) (regions bps))

  let of_intervals ~period ~inside ~outside ivals =
    let norm (s, e) =
      let width =
        let d = e - s in
        if d = 0 then 0 else if d < 0 then d + period else min d period
      in
      (wrap period s, width)
    in
    let ivals = List.filter (fun (_, w) -> w > 0) (List.map norm ivals) in
    if ivals = [] then Waveform.const ~period outside
    else
      let bps = List.concat_map (fun (s, w) -> [ s; s + w ]) ivals in
      of_breakpoints ~period bps (fun x ->
          if List.exists (fun iv -> iv_covers period iv x) ivals then inside else outside)

  let rotate w d =
    let p = Waveform.period w and early, late = Waveform.skew w in
    let d = wrap p d in
    if d = 0 then w
    else
      Array.to_list (pieces w)
      |> List.concat_map (fun pc ->
             let s = pc.p_start + d and e = pc.p_stop + d in
             if e <= p then [ { pc with p_start = s; p_stop = e } ]
             else if s >= p then [ { pc with p_start = s - p; p_stop = e - p } ]
             else [ { pc with p_start = s; p_stop = p }; { pc with p_start = 0; p_stop = e - p } ])
      |> List.sort (fun a b -> Int.compare a.p_start b.p_start)
      |> of_pieces ~period:p ~early ~late

  let delay ~dmin ~dmax w =
    let early, late = Waveform.skew w in
    Waveform.with_skew ~early ~late:(late + (dmax - dmin)) (rotate w dmin)

  let transitions w =
    let ps = pieces w in
    let n = Array.length ps in
    if n <= 1 then []
    else
      let inner = List.init (n - 1) (fun i -> (ps.(i + 1).p_start, ps.(i).p_val, ps.(i + 1).p_val)) in
      let last_v = ps.(n - 1).p_val and first_v = ps.(0).p_val in
      if Tvalue.equal last_v first_v then inner else (0, last_v, first_v) :: inner

  let materialize w =
    let p = Waveform.period w and early, late = Waveform.skew w in
    if early = 0 && late = 0 then w
    else
      let trans = transitions w in
      if trans = [] then Waveform.with_skew ~early:0 ~late:0 w
      else
        let win_width = late - early in
        let edges = List.map (fun (_, before, after) -> Tvalue.worst_edge ~before ~after) trans in
        if win_width >= p then
          Waveform.const ~period:p
            (List.fold_left Tvalue.merge_uncertain (List.hd edges) (List.tl edges))
        else
          let windows =
            List.map2 (fun (t, _, _) v -> ((wrap p (t + early), win_width), v)) trans edges
          in
          let bps =
            List.concat_map (fun ((s, width), _) -> [ s; s + width ]) windows
            @ Array.to_list (Array.map (fun pc -> pc.p_start) (pieces w))
          in
          of_breakpoints ~period:p bps (fun x ->
              match List.filter_map (fun (iv, v) -> if iv_covers p iv x then Some v else None) windows with
              | [] -> Waveform.value_at w x
              | v :: rest -> List.fold_left Tvalue.merge_uncertain v rest)

  let map f w =
    let early, late = Waveform.skew w in
    Waveform.with_skew ~early ~late
      (Waveform.create ~period:(Waveform.period w)
         (List.map (fun (v, wd) -> (f v, wd)) (Waveform.segments w)))

  let mapn f ws =
    let p = Waveform.period (List.hd ws) in
    let first w = Waveform.value_at w 0 in
    match List.filter (fun w -> Waveform.n_segments w > 1) ws with
    | [] -> Waveform.const ~period:p (f (List.map first ws))
    | [ v ] -> map (fun x -> f (List.map (fun w -> if w == v then x else first w) ws)) v
    | _ ->
      let ms = List.map materialize ws in
      let bps = List.concat_map (fun m -> Array.to_list (Array.map (fun pc -> pc.p_start) (pieces m))) ms in
      of_breakpoints ~period:p bps (fun x -> f (List.map (fun m -> Waveform.value_at m x) ms))

  let circular_pieces m =
    let arr = pieces m in
    let n = Array.length arr in
    if n > 1 && Tvalue.equal arr.(0).p_val arr.(n - 1).p_val then
      let merged = { arr.(n - 1) with p_stop = arr.(0).p_stop + Waveform.period m } in
      Array.init (n - 1) (fun i -> if i = n - 2 then merged else arr.(i + 1))
    else arr

  let edge_windows ~from_v ~to_v w =
    let m = materialize w in
    let arr = circular_pieces m in
    let n = Array.length arr in
    if n <= 1 then []
    else
      let out = ref [] in
      let add s e = out := { Waveform.w_start = s; w_stop = e } :: !out in
      for i = 0 to n - 1 do
        let pc = arr.(i) and prev = arr.((i + n - 1) mod n) and next = arr.((i + 1) mod n) in
        (match pc.p_val with
        | Tvalue.Rise when Tvalue.equal from_v Tvalue.V0 && Tvalue.equal to_v Tvalue.V1 ->
          add pc.p_start pc.p_stop
        | Tvalue.Fall when Tvalue.equal from_v Tvalue.V1 && Tvalue.equal to_v Tvalue.V0 ->
          add pc.p_start pc.p_stop
        | Tvalue.Change | Tvalue.Unknown ->
          if Tvalue.equal prev.p_val from_v && Tvalue.equal next.p_val to_v then
            add pc.p_start pc.p_stop
        | _ -> ());
        if Tvalue.equal pc.p_val from_v && Tvalue.equal next.p_val to_v then
          let t = wrap (Waveform.period m) pc.p_stop in
          add t t
      done;
      List.sort (fun a b -> Int.compare a.Waveform.w_start b.Waveform.w_start) !out

  let rising_windows = edge_windows ~from_v:Tvalue.V0 ~to_v:Tvalue.V1

  let falling_windows = edge_windows ~from_v:Tvalue.V1 ~to_v:Tvalue.V0

  let change_windows w =
    let m = materialize w in
    let arr = circular_pieces m in
    let n = Array.length arr in
    if n <= 1 then []
    else
      let out = ref [] in
      for i = 0 to n - 1 do
        let pc = arr.(i) and next = arr.((i + 1) mod n) in
        if Tvalue.is_changing pc.p_val then
          out := { Waveform.w_start = pc.p_start; w_stop = pc.p_stop } :: !out
        else if
          Tvalue.is_stable pc.p_val && Tvalue.is_stable next.p_val
          && not (Tvalue.equal pc.p_val next.p_val)
        then
          let t = wrap (Waveform.period m) pc.p_stop in
          out := { Waveform.w_start = t; w_stop = t } :: !out
      done;
      List.sort (fun a b -> Int.compare a.Waveform.w_start b.Waveform.w_start) !out

  let runs_where pred w =
    let period = Waveform.period w in
    let rev_runs =
      Array.fold_left
        (fun runs pc ->
          if not (pred pc.p_val) then runs
          else
            match runs with
            | (s, e) :: rest when e = pc.p_start -> (s, pc.p_stop) :: rest
            | _ -> (pc.p_start, pc.p_stop) :: runs)
        [] (pieces w)
    in
    let runs = Array.of_list (List.rev rev_runs) in
    let k = Array.length runs in
    if k = 0 then []
    else if k = 1 && runs.(0) = (0, period) then [ (0, period) ]
    else
      let s0, e0 = runs.(0) and last_s, last_e = runs.(k - 1) in
      if s0 = 0 && last_e = period && k > 1 then
        List.init (k - 1) (fun i ->
            if i = k - 2 then (last_s, last_e + e0 - last_s)
            else
              let s, e = runs.(i + 1) in
              (s, e - s))
      else List.init k (fun i -> let s, e = runs.(i) in (s, e - s))

  let intervals_where pred w = runs_where pred (materialize w)

  let pulse_intervals v w = runs_where (Tvalue.equal v) w

  (* The parts of [delay_rise_fall] that changed: the coherence test over
     circular pieces and the breakpoint construction. *)
  let delay_rise_fall ~rise:(rmin, rmax) ~fall:(fmin, fmax) w =
    let m = materialize w in
    let p = Waveform.period m in
    let value_known =
      List.for_all
        (fun (v, _) ->
          match v with
          | Tvalue.V0 | Tvalue.V1 | Tvalue.Rise | Tvalue.Fall -> true
          | Tvalue.Stable | Tvalue.Change | Tvalue.Unknown -> false)
        (Waveform.segments m)
    in
    let coherent =
      let arr = circular_pieces m in
      let n = Array.length arr in
      n <= 1
      || Array.for_all Fun.id
           (Array.mapi
              (fun i pc ->
                let prev = arr.((i + n - 1) mod n).p_val and next = arr.((i + 1) mod n).p_val in
                match pc.p_val with
                | Tvalue.Rise -> Tvalue.equal prev Tvalue.V0 && Tvalue.equal next Tvalue.V1
                | Tvalue.Fall -> Tvalue.equal prev Tvalue.V1 && Tvalue.equal next Tvalue.V0
                | _ -> true)
              arr)
    in
    if not (value_known && coherent) then None
    else
      let rising = rising_windows m and falling = falling_windows m in
      if rising = [] && falling = [] then Some m
      else
        let shift (dmin, dmax, v, post) { Waveform.w_start; w_stop } =
          (wrap p (w_start + dmin), w_stop - w_start + (dmax - dmin), v, post)
        in
        let windows =
          List.map (shift (rmin, rmax, Tvalue.Rise, Tvalue.V1)) rising
          @ List.map (shift (fmin, fmax, Tvalue.Fall, Tvalue.V0)) falling
        in
        let ordered =
          let tagged =
            List.map (fun w -> (w, rmin, rmax)) rising @ List.map (fun w -> (w, fmin, fmax)) falling
            |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a.Waveform.w_start b.Waveform.w_start)
            |> Array.of_list
          in
          let k = Array.length tagged in
          let ok = ref true in
          for i = 0 to k - 2 do
            let a, _, dmax1 = tagged.(i) and b, dmin2, _ = tagged.(i + 1) in
            if a.Waveform.w_stop + dmax1 > b.Waveform.w_start + dmin2 then ok := false
          done;
          k <= 1
          ||
          let a, dmin0, _ = tagged.(0) and b, _, dmaxl = tagged.(k - 1) in
          !ok && b.Waveform.w_stop + dmaxl <= a.Waveform.w_start + p + dmin0
        in
        if not ordered then None
        else
          let bps = List.concat_map (fun (s, width, _, _) -> [ s; s + width ]) windows in
          Some
            (of_breakpoints ~period:p bps (fun x ->
                 match
                   List.filter_map
                     (fun (s, width, v, _) -> if iv_covers p (s, width) x then Some v else None)
                     windows
                 with
                 | v :: rest -> List.fold_left Tvalue.merge_uncertain v rest
                 | [] ->
                   List.fold_left
                     (fun acc (s, width, _, post) ->
                       let d = wrap p (x - wrap p (s + width)) in
                       match acc with Some (bd, _) when bd <= d -> acc | _ -> Some (d, post))
                     None windows
                   |> Option.fold ~none:Tvalue.V0 ~some:snd))
end

(* Random waveforms for the kernel comparisons: short periods so that
   breakpoints collide, mostly 0/1 values so that edges are
   instantaneous, wrap-spanning equal first and last segments, and skews
   from none to twice the period. *)
let gen_kernel_wf ?(values = Tvalue.all) p =
  let open QCheck.Gen in
  let* n = int_range 1 6 in
  let* cuts = list_repeat n (int_range 1 (p - 1)) in
  let bounds = (0 :: List.sort_uniq Int.compare cuts) @ [ p ] in
  let rec widths = function a :: (b :: _ as rest) -> (b - a) :: widths rest | _ -> [] in
  let widths = widths bounds in
  let* vs =
    list_repeat (List.length widths)
      (frequency [ (3, oneofl [ Tvalue.V0; Tvalue.V1 ]); (2, oneofl values) ])
  in
  let* wrap_equal = bool in
  let vs =
    match vs with
    | first :: (_ :: _ :: _ as rest) when wrap_equal ->
      first :: List.rev (first :: List.tl (List.rev rest))
    | _ -> vs
  in
  let* early, late =
    frequency
      [
        (2, return (0, 0));
        (4, pair (int_range 0 (p / 4)) (int_range 0 (p / 4)));
        (1, pair (int_range 0 (2 * p)) (int_range (p / 2) (2 * p)));
      ]
  in
  return (Waveform.with_skew ~early:(-early) ~late (Waveform.create ~period:p (List.combine vs widths)))

let gen_period = QCheck.Gen.oneofl [ 8; 12; 20; 50_000 ]

let pp_wf = Format.asprintf "%a" Waveform.pp

let arb_wfs ?values n_min n_max =
  let open QCheck.Gen in
  QCheck.make
    ~print:(fun ws -> String.concat " | " (List.map pp_wf ws))
    (let* p = gen_period in
     let* n = int_range n_min n_max in
     list_repeat n (gen_kernel_wf ?values p))

let arb_wf_int lo hi =
  let open QCheck.Gen in
  QCheck.make
    ~print:(fun (w, d) -> Printf.sprintf "%s by %d" (pp_wf w) d)
    (let* p = gen_period in
     let* w = gen_kernel_wf p in
     let* d = int_range (lo * p) (hi * p) in
     return (w, d))

let kprop name arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:500 ~name arb f)

let same_windows a b = a = (b : Waveform.window list)

let one = function [ w ] -> w | _ -> assert false

let folds =
  [| Tvalue.land_; Tvalue.lor_; Tvalue.lxor_; Tvalue.chg; Tvalue.merge_uncertain |]

let preds =
  [|
    Tvalue.is_stable;
    (fun v -> not (Tvalue.is_stable v));
    Tvalue.is_changing;
    Tvalue.equal Tvalue.V1;
    (fun v -> not (Tvalue.equal v Tvalue.V0));
  |]

let kernel_properties =
  [
    kprop "materialize matches list reference" (arb_wfs 1 1) (fun ws ->
        Waveform.equal (Waveform.materialize (one ws)) (Ref.materialize (one ws)));
    kprop "rotate matches list reference" (arb_wf_int (-3) 3) (fun (w, d) ->
        Waveform.equal (Waveform.rotate w d) (Ref.rotate w d));
    kprop "delay matches list reference" (arb_wf_int 0 2) (fun (w, d) ->
        let dmax = d + (d / 3) in
        Waveform.equal (Waveform.delay ~dmin:d ~dmax w) (Ref.delay ~dmin:d ~dmax w));
    kprop "map matches list reference" (arb_wf_int 0 6) (fun (w, k) ->
        let target = List.nth Tvalue.all (k mod 7) in
        let f v = if Tvalue.equal v target then Tvalue.Stable else Tvalue.lnot v in
        Waveform.equal (Waveform.map f w) (Ref.map f w));
    kprop "mapn matches list reference"
      QCheck.(pair (int_bound (Array.length folds - 1)) (arb_wfs 2 6))
      (fun (k, ws) ->
        let f vs = List.fold_left folds.(k) (List.hd vs) (List.tl vs) in
        Waveform.equal (Waveform.mapn f ws) (Ref.mapn f ws));
    kprop "mapn with constant inputs matches list reference" (arb_wfs 2 6) (fun ws ->
        (* flatten all but one or two inputs to constants, keeping skews *)
        let ws =
          List.mapi
            (fun i w ->
              if i mod 3 = 0 then w
              else
                let early, late = Waveform.skew w in
                Waveform.with_skew ~early ~late
                  (Waveform.const ~period:(Waveform.period w) (Waveform.value_at w 0)))
            ws
        in
        let f vs = List.fold_left Tvalue.lor_ Tvalue.V0 vs in
        Waveform.equal (Waveform.mapn f ws) (Ref.mapn f ws));
    kprop "map2 and map3 match list reference" (arb_wfs 3 3) (fun ws ->
        match ws with
        | [ a; b; c ] ->
          let f3 a b s = match s with Tvalue.V0 -> a | Tvalue.V1 -> b | _ -> Tvalue.merge_uncertain a b in
          Waveform.equal (Waveform.map2 Tvalue.land_ a b)
            (Ref.mapn (fun vs -> Tvalue.land_ (List.nth vs 0) (List.nth vs 1)) [ a; b ])
          && Waveform.equal (Waveform.map3 f3 a b c)
               (Ref.mapn (fun vs -> f3 (List.nth vs 0) (List.nth vs 1) (List.nth vs 2)) [ a; b; c ])
        | _ -> false);
    kprop "of_intervals matches list reference"
      (let open QCheck.Gen in
       QCheck.make
         ~print:(fun (p, ivs) ->
           Printf.sprintf "period %d: %s" p
             (String.concat " " (List.map (fun (s, e) -> Printf.sprintf "[%d,%d)" s e) ivs)))
         (let* p = gen_period in
          let* ivs = list_size (int_range 0 4) (pair (int_range (-2 * p) (3 * p)) (int_range (-2 * p) (3 * p))) in
          (* empty intervals (stop = start) too *)
          let* dup = bool in
          return (p, if dup then List.map (fun (s, e) -> if e mod 3 = 0 then (s, s) else (s, e)) ivs else ivs)))
      (fun (period, ivs) ->
        Waveform.equal
          (Waveform.of_intervals ~period ~inside:Tvalue.Change ~outside:Tvalue.Stable ivs)
          (Ref.of_intervals ~period ~inside:Tvalue.Change ~outside:Tvalue.Stable ivs));
    kprop "rising and falling windows match list reference" (arb_wfs 1 1) (fun ws ->
        same_windows (Waveform.rising_windows (one ws)) (Ref.rising_windows (one ws))
        && same_windows (Waveform.falling_windows (one ws)) (Ref.falling_windows (one ws)));
    kprop "change windows match list reference" (arb_wfs 1 1) (fun ws ->
        same_windows (Waveform.change_windows (one ws)) (Ref.change_windows (one ws)));
    kprop "intervals_where matches list reference"
      QCheck.(pair (int_bound (Array.length preds - 1)) (arb_wfs 1 1))
      (fun (k, ws) ->
        Waveform.intervals_where preds.(k) (one ws) = Ref.intervals_where preds.(k) (one ws));
    kprop "pulse_intervals matches list reference" (arb_wfs 1 1) (fun ws ->
        List.for_all
          (fun v -> Waveform.pulse_intervals v (one ws) = Ref.pulse_intervals v (one ws))
          Tvalue.all);
    kprop "delay_rise_fall matches list reference"
      QCheck.(
        pair
          (quad (int_bound 4) (int_bound 4) (int_bound 4) (int_bound 4))
          (arb_wfs ~values:[ Tvalue.V0; Tvalue.V1; Tvalue.Rise; Tvalue.Fall ] 1 1))
      (fun ((a, b, c, d), ws) ->
        let w = one ws in
        let rise = (a, a + b) and fall = (c, c + d) in
        Option.equal Waveform.equal
          (Waveform.delay_rise_fall ~rise ~fall w)
          (Ref.delay_rise_fall ~rise ~fall w));
  ]

let suite =
  [
    Alcotest.test_case "const" `Quick test_const;
    Alcotest.test_case "many segments" `Quick test_many_segments;
    Alcotest.test_case "create normalizes" `Quick test_create_normalizes;
    Alcotest.test_case "create bad sum" `Quick test_create_bad_sum;
    Alcotest.test_case "of_intervals" `Quick test_of_intervals;
    Alcotest.test_case "of_intervals wrap" `Quick test_of_intervals_wrap;
    Alcotest.test_case "rotate" `Quick test_rotate;
    Alcotest.test_case "rotate wraps" `Quick test_rotate_wraps;
    Alcotest.test_case "delay" `Quick test_delay;
    Alcotest.test_case "delay accumulates skew" `Quick test_delay_accumulates_skew;
    Alcotest.test_case "materialize pulse" `Quick test_materialize_pulse;
    Alcotest.test_case "materialize wrapping window" `Quick test_materialize_wrapping_window;
    Alcotest.test_case "materialize const noop" `Quick test_materialize_const_noop;
    Alcotest.test_case "materialize overlapping windows" `Quick test_materialize_overlapping;
    Alcotest.test_case "map2 or" `Quick test_map2_or;
    Alcotest.test_case "map2 const preserves skew" `Quick test_map2_const_preserves_skew;
    Alcotest.test_case "map2 folds skew" `Quick test_map2_folds_skew;
    Alcotest.test_case "map3 mux" `Quick test_map3_mux_shape;
    Alcotest.test_case "rising windows sharp" `Quick test_rising_windows_sharp;
    Alcotest.test_case "rising windows skewed" `Quick test_rising_windows_skewed;
    Alcotest.test_case "falling windows" `Quick test_falling_windows;
    Alcotest.test_case "two pulses two windows" `Quick test_two_pulses_two_windows;
    Alcotest.test_case "stable over" `Quick test_stable_over;
    Alcotest.test_case "stable interval around" `Quick test_stable_interval_around;
    Alcotest.test_case "stable interval wraps" `Quick test_stable_interval_wraps;
    Alcotest.test_case "pulse width ignores separate skew" `Quick
      test_pulse_intervals_ignore_skew;
    Alcotest.test_case "pulse width after folding" `Quick test_pulse_intervals_after_fold;
  ]
  @ properties @ kernel_properties
