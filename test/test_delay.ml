open Scald_core

let test_make () =
  let d = Delay.of_ns 1.0 3.8 in
  Alcotest.(check int) "dmin" 1000 d.Delay.dmin;
  Alcotest.(check int) "dmax" 3800 d.Delay.dmax;
  Alcotest.(check int) "spread" 2800 (Delay.spread d)

let test_invalid () =
  Alcotest.check_raises "negative" (Invalid_argument "Delay.make: need 0 <= dmin <= dmax")
    (fun () -> ignore (Delay.make (-1) 0));
  Alcotest.check_raises "inverted" (Invalid_argument "Delay.make: need 0 <= dmin <= dmax")
    (fun () -> ignore (Delay.make 5 3))

let test_add () =
  let d = Delay.add (Delay.of_ns 1.0 2.0) (Delay.of_ns 0.5 1.5) in
  Alcotest.(check bool) "series" true (Delay.equal d (Delay.of_ns 1.5 3.5))

let test_zero () =
  Alcotest.(check bool) "zero" true (Delay.equal Delay.zero (Delay.make 0 0));
  Alcotest.(check int) "zero spread" 0 (Delay.spread Delay.zero)

(* A corner factor whose product leaves the picosecond domain used to
   wrap through int_of_float and clamp to zero: register_file.sdl then
   reported its 2 typ errors under x1e30, where x1e6 finds 3. *)
let test_scale_domain () =
  let d = Delay.of_ns 1.0 4.5 in
  Alcotest.(check int) "x1e6 in range" 4_500_000_000 (Delay.scale 1e6 d).Delay.dmax;
  let rejects what f =
    match Delay.scale f d with
    | s -> Alcotest.failf "%s: scaled to %a" what Delay.pp s
    | exception Invalid_argument _ -> ()
  in
  rejects "x1e30" 1e30;
  rejects "x inf" Float.infinity;
  rejects "x nan" Float.nan;
  (match Corner.of_spec "typ,inf=inf" with
  | _ -> Alcotest.fail "inf corner factor accepted"
  | exception Invalid_argument _ -> ());
  (match Corner.of_spec "typ,w=1.0/inf" with
  | _ -> Alcotest.fail "inf wire factor accepted"
  | exception Invalid_argument _ -> ());
  let ic = open_in_bin "../examples/register_file.sdl" in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let nl =
    match Scald_sdl.Expander.load src with
    | Ok e -> e.Scald_sdl.Expander.e_netlist
    | Error m -> Alcotest.fail m
  in
  match Verifier.verify ~corners:(Corner.of_spec "typ,huge=1e30") nl with
  | r ->
    Alcotest.failf "x1e30 corner verified with %d errors"
      (List.length (List.nth r.Verifier.r_corners 1).Verifier.co_violations)
  | exception Invalid_argument _ -> ()

let test_pp () =
  Alcotest.(check string) "format" "1.0/3.8" (Format.asprintf "%a" Delay.pp (Delay.of_ns 1.0 3.8))

let suite =
  [
    Alcotest.test_case "make" `Quick test_make;
    Alcotest.test_case "invalid" `Quick test_invalid;
    Alcotest.test_case "add" `Quick test_add;
    Alcotest.test_case "zero" `Quick test_zero;
    Alcotest.test_case "scale stays in the ps domain" `Quick test_scale_domain;
    Alcotest.test_case "pp" `Quick test_pp;
  ]
