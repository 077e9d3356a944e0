(* Companion executable of perfbench/run.py.

   tvbench gen WORKLOAD DESIGN_SEED EDITS DIR
     Writes the inputs of one workload into DIR: design.sdl (netgen,
     seeded by DESIGN_SEED), cases.txt (sweep-256 only) and edits.tsv,
     a pool of EDITS wire-delay edits (signal TAB max_ns) on driven nets
     with fanout, drawn from the same seed: the pool belongs to the
     design, so every run of a workload measures the same edits.

   The other subcommands are the traced in-process run, one process per
   measurement so each starts from a fresh heap as the binary does.
   Spans are recorded by this file only: each public call is wrapped in
   a span, and a probe passed through the existing Verifier.verify and
   Session.load hooks collects the library's own phase spans.  Spans
   stay in memory and are written to DIR/spans-*.tsv at the end; the
   summary is printed as one JSON object on stdout.

   tvbench verdict WORKLOAD DIR traced|untraced
     One verdict by the calls bin/scald_tv.ml makes: read,
     Parser.parse, Expander.expand, Verifier.verify,
     Report.pp_violations.

   tvbench session WORKLOAD DIR EDITS
     Session.load, then EDITS edits by the calls lib/incr/serve.ml makes
     per delta and verify request: stage, digest, reverify, digest; the
     final Session.listing is written to DIR/session_listing.txt.

   tvbench serve WORKLOAD DIR EDITS
     The same requests through Serve.handle_line. *)

open Scald_core
module Json = Scald_incr.Json
module Session = Scald_incr.Session
module Serve = Scald_incr.Serve

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* ---- inputs ----------------------------------------------------------- *)

let config workload seed =
  match workload with
  | "cli-20k" -> Netgen.scaled ~seed ~broken_registers:4 ~chips:20000 ()
  | "sweep-256" -> Netgen.scaled ~seed ~broken_registers:4 ~chips:8000 ()
  | "serve-edit" -> { Netgen.default_config with seed; broken_registers = 4 }
  | w -> failwith ("unknown workload " ^ w)

let gen workload design_seed n_edits dir =
  let d = Netgen.generate (config workload design_seed) in
  write_file (Filename.concat dir "design.sdl") (Netgen.to_sdl d);
  let nl = (Netgen.to_netlist d).Scald_sdl.Expander.e_netlist in
  let ins = ref [] and driven = ref [] in
  Netlist.iter_nets nl (fun n ->
      let name = n.Netlist.n_name in
      if List.length !ins < 8 && String.length name >= 3 && String.sub name 0 3 = "IN "
      then ins := name :: !ins;
      if n.Netlist.n_driver <> None && Netlist.fanout_count n > 0 then
        driven := name :: !driven);
  (* the case sweep picks its controls the way the window-prune bench
     does: the first eight IN nets in netlist order, all 256 values *)
  if workload = "sweep-256" then
    write_file (Filename.concat dir "cases.txt")
      (String.concat ""
         (List.map
            (fun c -> Format.asprintf "%a;\n" Case_analysis.pp c)
            (Case_analysis.complete_exn (List.rev !ins))));
  let pool = Array.of_list (List.rev !driven) in
  let rng = Netgen.Rng.create ((design_seed * 7919) + 17) in
  let b = Buffer.create 8192 in
  for _ = 1 to n_edits do
    let name = Netgen.Rng.choose rng pool in
    (* max delay uniform over [1, 12] ns in 0.1 ns steps *)
    let max_ns = float_of_int (10 + Netgen.Rng.int rng 111) /. 10. in
    Buffer.add_string b (Printf.sprintf "%s\t%.1f\n" name max_ns)
  done;
  write_file (Filename.concat dir "edits.tsv") (Buffer.contents b)

(* The pool in the run's order: run.py permutes edits.tsv by the run's
   seed into order.tsv. *)
let edits_of dir =
  read_file (Filename.concat dir "order.tsv")
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l ->
         match String.split_on_char '\t' l with
         | [ s; d ] -> (s, float_of_string d)
         | _ -> failwith ("bad edit line " ^ l))
  |> Array.of_list

(* Edit [i] of the stream: even edits set a pool entry's wire delay, odd
   edits revert the previous one.  The same objects go to the daemon. *)
let edit_json pool i =
  let s, d = pool.(i / 2 mod Array.length pool) in
  let fields =
    if i mod 2 = 0 then [ ("min_ns", Json.Num 0.0); ("max_ns", Json.Num d) ]
    else [ ("delay", Json.Null) ]
  in
  Json.Obj ([ ("edit", Json.Str "wire_delay"); ("signal", Json.Str s) ] @ fields)

(* ---- the recorder ------------------------------------------------------- *)

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 at top level *)
  root : int;  (* the top-level span this one belongs to *)
  t0 : float;
  t1 : float;
  alloc : float;  (* bytes allocated inside the span *)
}

let recorded : span list ref = ref []
let next_id = ref 0
let stack = ref []

let span : 'a. string -> (unit -> 'a) -> 'a =
 fun name f ->
  let id = !next_id in
  incr next_id;
  let parent, root =
    match !stack with [] -> (-1, id) | p :: _ -> (p, List.nth !stack (List.length !stack - 1))
  in
  stack := id :: !stack;
  let a0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = Unix.gettimeofday () in
      stack := List.tl !stack;
      recorded :=
        { id; name; parent; root; t0; t1; alloc = Gc.allocated_bytes () -. a0 }
        :: !recorded)
    f

let probe = { Verifier.pr_span = (fun name f -> span name f); pr_event = None }
let dur s = s.t1 -. s.t0

(* Self time: the span minus the part its children cover (children of
   one span never overlap: the program is single-threaded at -j 1). *)
let self_times spans =
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      let c = Option.value ~default:0. (Hashtbl.find_opt covered s.parent) in
      Hashtbl.replace covered s.parent (c +. dur s))
    spans;
  fun s -> dur s -. Option.value ~default:0. (Hashtbl.find_opt covered s.id)

let starts_with p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let sum_spans f = List.fold_left (fun acc s -> acc +. f s) 0. !recorded
let time_of pred = sum_spans (fun s -> if pred s.name then dur s else 0.)

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%s\t%.6f\t%.6f\t%.0f\n" s.id s.parent s.name s.t0 s.t1
        s.alloc)
    (List.rev !recorded);
  close_out oc

let ok_exn = function Ok v -> v | Error m -> failwith m
let ms x = Json.Num (x *. 1000.)
let ratio a b = Json.Num (float_of_int a /. float_of_int (max 1 b))
let print_json fields = print_endline (Json.to_string (Json.Obj fields))

type inputs = { design : string; cases_file : string option }

let inputs workload dir =
  {
    design = Filename.concat dir "design.sdl";
    cases_file =
      (if workload = "sweep-256" then Some (Filename.concat dir "cases.txt") else None);
  }

let cases_of inp =
  match inp.cases_file with
  | None -> []
  | Some cf -> Case_analysis.parse_exn (read_file cf)

(* ---- one verdict, the calls bin/scald_tv.ml makes ------------------------ *)

let verdict_run inp dir traced =
  let sp name f = if traced then span name f else f () in
  let t0 = Unix.gettimeofday () in
  let r, listing, nl =
    sp "verdict" (fun () ->
        let src = sp "read" (fun () -> read_file inp.design) in
        let ast = sp "parse" (fun () -> ok_exn (Scald_sdl.Parser.parse src)) in
        let e = sp "expand" (fun () -> ok_exn (Scald_sdl.Expander.expand ast)) in
        let nl = e.Scald_sdl.Expander.e_netlist in
        let cases = sp "read" (fun () -> cases_of inp) in
        let probe = if traced then Some probe else None in
        let r = sp "verify" (fun () -> Verifier.verify ?probe ~cases ~jobs:1 nl) in
        let listing =
          sp "report" (fun () ->
              Format.asprintf "@.%a@." Report.pp_violations r.Verifier.r_violations)
        in
        (r, listing, nl))
  in
  let total = Unix.gettimeofday () -. t0 in
  write_file (Filename.concat dir "inproc_listing.txt") listing;
  if not traced then print_json [ ("total_ms", ms total) ]
  else begin
    write_spans (Filename.concat dir "spans-verdict.tsv");
    let self = self_times !recorded in
    let self_of name = sum_spans (fun s -> if s.name = name then self s else 0.) in
    let n_checkers = ref 0 in
    Netlist.iter_insts nl (fun i ->
        if Primitive.is_checker i.Netlist.i_prim then incr n_checkers);
    let o = r.Verifier.r_obs in
    print_json
      [
        ("total_ms", ms total);
        ("self_sum_ms", ms (sum_spans (fun s -> if s.name = "verdict" then 0. else self s)));
        ("read.ms", ms (self_of "read"));
        ("parser.ms", ms (time_of (( = ) "parse")));
        ("expander.ms", ms (time_of (( = ) "expand")));
        ( "expander.alloc_mb",
          Json.Num (sum_spans (fun s -> if s.name = "expand" then s.alloc else 0.) /. 1048576.) );
        ("flow.ms", ms (time_of (( = ) "flow")));
        ("window.ms", ms (time_of (( = ) "window")));
        ("window.proven_ratio", ratio o.Verifier.os_window_insts !n_checkers);
        ("check.static_verdicts", Json.of_int o.Verifier.os_window_checks);
        ("eval.ms", ms (time_of (starts_with "evaluate:")));
        ("eval.evaluations", Json.of_int r.Verifier.r_evaluations);
        ("eval.events", Json.of_int r.Verifier.r_events);
        ( "eval.cache_hit_ratio",
          ratio o.Verifier.os_cache_hits (o.Verifier.os_cache_hits + o.Verifier.os_cache_misses) );
        ("check.ms", ms (time_of (starts_with "check:")));
        ("verifier.self_ms", ms (self_of "verify"));
        ("report.ms", ms (time_of (( = ) "report")));
      ]
  end

(* ---- the edit stream through Session, the calls serve makes ------------- *)

let session_run inp dir n_edits =
  let pool = edits_of dir in
  let nl =
    (ok_exn (Scald_sdl.Parser.parse (read_file inp.design))
    |> Scald_sdl.Expander.expand |> ok_exn)
      .Scald_sdl.Expander.e_netlist
  in
  let cases = cases_of inp in
  let s = span "session.load" (fun () -> Session.load ~cases ~probe nl) in
  let load = List.hd !recorded in
  let base = List.length (Session.report s).Verifier.r_violations in
  let failed = ref 0 and dirtied = ref 0 and nets = ref 0 in
  let evals = ref 0 and warm = ref 0 in
  let edits = ref [] in
  for i = 0 to n_edits - 1 do
    let e = ok_exn (Scald_incr.Edit.of_json (edit_json pool i)) in
    (* delta: check, stage, respond with the digest; verify: reverify,
       respond with the digest *)
    span "edit" (fun () ->
        if Scald_incr.Edit.check (Session.netlist s) e <> Ok () then incr failed;
        span "session.stage" (fun () -> Session.stage s e);
        ignore (span "fingerprint.digest" (fun () -> Session.digest s));
        let r, st = span "session.reverify" (fun () -> Session.reverify s) in
        ignore (span "fingerprint.digest" (fun () -> Session.digest s));
        if i mod 2 = 1 && List.length r.Verifier.r_violations <> base then incr failed;
        dirtied := !dirtied + st.Session.st_dirtied_nets;
        nets := !nets + st.Session.st_dirtied_nets + st.Session.st_reused_nets;
        evals := !evals + st.Session.st_evaluations;
        warm := !warm + st.Session.st_warm_hits);
    edits := List.hd !recorded :: !edits
  done;
  write_file (Filename.concat dir "session_listing.txt") (Session.listing s);
  write_spans (Filename.concat dir "spans-session.tsv");
  let self = self_times !recorded in
  let under_edit s = s.root <> load.id in
  let n = float_of_int (max 1 n_edits) in
  let per_edit f = sum_spans (fun s -> if under_edit s then f s else 0.) /. n in
  let phase pred = per_edit (fun s -> if pred s.name then dur s else 0.) in
  print_json
    [
      ("attempted", Json.of_int (2 * n_edits));
      ("failed", Json.of_int !failed);
      ("base_violations", Json.of_int base);
      ("session.load_ms", ms (dur load));
      ("edit_mean_ms", ms (List.fold_left (fun a s -> a +. dur s) 0. !edits /. n));
      ("session.stage_ms", ms (phase (( = ) "session.stage")));
      ("session.reverify_ms", ms (phase (( = ) "session.reverify")));
      ("reverify.apply_ms", ms (phase (( = ) "apply")));
      ("reverify.cone_ms", ms (phase (( = ) "cone")));
      ("reverify.evaluate_ms", ms (phase (starts_with "evaluate:")));
      ("reverify.check_ms", ms (phase (starts_with "check:")));
      ("reverify.fingerprint_ms", ms (phase (( = ) "fingerprint")));
      ( "reverify.self_ms",
        ms (per_edit (fun s -> if s.name = "session.reverify" then self s else 0.)) );
      ("fingerprint.digest_ms", ms (phase (( = ) "fingerprint.digest")));
      ("session.dirtied_ratio", ratio !dirtied !nets);
      ("session.evaluations_per_edit", Json.Num (float_of_int !evals /. n));
      ("session.warm_hits_per_edit", Json.Num (float_of_int !warm /. n));
    ]

(* ---- the same stream through Serve.handle_line --------------------------- *)

(* The service's own req:* spans cover the session calls of a request;
   handle_line minus them is the protocol: JSON in and out, telemetry. *)
let serve_run inp dir n_edits =
  let pool = edits_of dir in
  let obs = Scald_obs.Obs.create () in
  let sv = Serve.create ~obs () in
  let failed = ref 0 in
  let request j =
    let resp, _ = span "serve.handle_line" (fun () -> Serve.handle_line sv (Json.to_string j)) in
    match Json.parse resp with
    | Ok r when Json.member "ok" r = Some (Json.Bool true) -> ()
    | _ -> incr failed
  in
  request
    (Json.Obj
       ([ ("op", Json.Str "load"); ("file", Json.Str inp.design) ]
       @
       match inp.cases_file with
       | Some cf -> [ ("cases_file", Json.Str cf) ]
       | None -> []));
  let load = List.hd !recorded in
  let prof = Scald_obs.Obs.profiler obs in
  let before = Scald_obs.Span.n_completed prof in
  for i = 0 to n_edits - 1 do
    request (Json.Obj [ ("op", Json.Str "delta"); ("edits", Json.List [ edit_json pool i ]) ]);
    request (Json.Obj [ ("op", Json.Str "verify") ])
  done;
  let req_s =
    List.fold_left
      (fun acc (x : Scald_obs.Span.span) ->
        if starts_with "req:" x.Scald_obs.Span.s_name then acc +. (x.Scald_obs.Span.s_dur_us /. 1e6)
        else acc)
      0.
      (Scald_obs.Span.recent prof (Scald_obs.Span.n_completed prof - before))
  in
  let n = float_of_int (max 1 n_edits) in
  let handled = time_of (( = ) "serve.handle_line") -. dur load in
  write_spans (Filename.concat dir "spans-serve.tsv");
  print_json
    [
      ("attempted", Json.of_int (1 + (2 * n_edits)));
      ("failed", Json.of_int !failed);
      ("serve.protocol_ms", ms ((handled -. req_s) /. n));
    ]

let () =
  match Array.to_list Sys.argv with
  | [ _; "gen"; w; dseed; n; dir ] -> gen w (int_of_string dseed) (int_of_string n) dir
  | [ _; "verdict"; w; dir; mode ] -> verdict_run (inputs w dir) dir (mode = "traced")
  | [ _; "session"; w; dir; n ] -> session_run (inputs w dir) dir (int_of_string n)
  | [ _; "serve"; w; dir; n ] -> serve_run (inputs w dir) dir (int_of_string n)
  | _ ->
    prerr_endline
      "usage: tvbench gen WORKLOAD DESIGN_SEED EDITS DIR\n\
      \       tvbench verdict WORKLOAD DIR traced|untraced\n\
      \       tvbench session WORKLOAD DIR EDITS\n\
      \       tvbench serve WORKLOAD DIR EDITS";
    exit 64
