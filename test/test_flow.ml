(* Signal-class dataflow analysis (doc/FLOW.md): class inference on
   small designs, and Netlist.copy preserving the inferred classes. *)

open Scald_core

let load src =
  match Scald_sdl.Expander.load src with
  | Ok e -> e.Scald_sdl.Expander.e_netlist
  | Error msg -> Alcotest.failf "expander: %s" msg

let preamble = "PERIOD 50.0;\nCLOCK UNIT 6.25;\nDEFAULT WIRE DELAY 0.0/2.0;\n"

let flow_of src =
  let nl = load (preamble ^ src) in
  (nl, Flow.analyse nl)

let net_id nl name =
  match Netlist.find nl name with
  | Some id -> id
  | None -> Alcotest.failf "no net %s" name

let cls (nl, f) name = Flow.cls f (net_id nl name)

(* ---- class inference --------------------------------------------------------- *)

let test_clock_classes () =
  let d =
    flow_of
      "2 AND (DELAY=1.0/2.0) (CK .P2-3 &H, EN .S0-8) -> G;\n\
       2 AND (DELAY=1.0/2.0) (G &H, EN .S0-8) -> G2;\n\
       SETUP HOLD CHK (SETUP=2.5, HOLD=1.5) (G2, CK .P2-3);\n"
  in
  let nl, f = d in
  let ck = net_id nl "CK .P2-3" in
  (match cls d "CK .P2-3" with
  | Flow.Clock { domains; gated } ->
    Alcotest.(check bool) "root is ungated" false gated;
    Alcotest.(check (list int)) "root is its own domain" [ ck ] domains
  | _ -> Alcotest.fail "CK not a clock");
  (match cls d "G" with
  | Flow.Clock { domains; gated } ->
    Alcotest.(check bool) "derived clock is gated" true gated;
    Alcotest.(check (list int)) "domain survives gating" [ ck ] domains
  | _ -> Alcotest.fail "G not a clock");
  (match cls d "G2" with
  | Flow.Clock { gated = true; _ } -> ()
  | _ -> Alcotest.fail "G2 not a gated clock");
  Alcotest.(check bool) "clock cone reaches the checker input" true
    (Flow.reaches_clock f (net_id nl "G2"))

let test_data_and_stable_classes () =
  let d =
    flow_of
      "REG (DELAY=1.5/4.5) (D .S0-4, CK .P2-3) -> Q;\n\
       SETUP HOLD CHK (SETUP=2.5, HOLD=1.5) (D .S0-4, CK .P2-3);\n\
       1 CHG (DELAY=1.0/2.0) (EN .S0-8) -> X;\n\
       SETUP HOLD CHK (SETUP=2.5, HOLD=1.5) (X, CK .P2-3);\n\
       SETUP HOLD CHK (SETUP=2.5, HOLD=1.5) (Q, CK .P2-3);\n"
  in
  let nl, _ = d in
  let ck = net_id nl "CK .P2-3" in
  (match cls d "Q" with
  | Flow.Data domains ->
    Alcotest.(check (list int)) "register output tagged with its clock" [ ck ]
      domains
  | _ -> Alcotest.fail "Q not data");
  (* a full-period .S assertion is stable; a partial window is data *)
  Alcotest.(check bool) "EN .S0-8 is stable" true (cls d "EN .S0-8" = Flow.Stable);
  Alcotest.(check bool) "D .S0-4 changes inside the period" true
    (cls d "D .S0-4" = Flow.Data []);
  (* logic computed only from stable signals stays stable *)
  Alcotest.(check bool) "gate of stable inputs is stable" true
    (cls d "X" = Flow.Stable)

let test_cyclic_not_stable () =
  let d =
    flow_of
      "2 OR (DELAY=1.0/2.0) (LOOP, D .S0-4) -> LOOP;\n\
       SETUP HOLD CHK (SETUP=2.5, HOLD=1.5) (LOOP, CK .P2-3);\n"
  in
  (* the feedback component settles to a non-stable class *)
  match cls d "LOOP" with
  | Flow.Const _ | Flow.Stable -> Alcotest.fail "cycle classified stable"
  | Flow.Data _ | Flow.Unknown | Flow.Clock _ -> ()

let test_copy_preserves_classes () =
  let nl =
    (Netgen.to_netlist (Netgen.generate (Netgen.scaled ~chips:120 ())))
      .Scald_sdl.Expander.e_netlist
  in
  let f = Flow.analyse nl in
  let f2 = Flow.analyse (Netlist.copy nl) in
  Netlist.iter_nets nl (fun n ->
      let id = n.Netlist.n_id in
      if Flow.cls f id <> Flow.cls f2 id then
        Alcotest.failf "class of %s differs on the copy" n.Netlist.n_name)

let suite =
  [
    Alcotest.test_case "clock classes and gating" `Quick test_clock_classes;
    Alcotest.test_case "data and stable classes" `Quick test_data_and_stable_classes;
    Alcotest.test_case "feedback cycle never stable" `Quick test_cyclic_not_stable;
    Alcotest.test_case "Netlist.copy preserves classes" `Quick
      test_copy_preserves_classes;
  ]
