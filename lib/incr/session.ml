open Scald_core

type stats = {
  st_requests : int;
  st_reused_nets : int;
  st_dirtied_nets : int;
  st_warm_hits : int;
  st_fp_changed : int;
  st_events : int;
  st_evaluations : int;
}

type t = {
  s_nl : Netlist.t;
  s_id : string;
  (* content digest of the netlist as currently edited; [None] after a
     re-verify, recomputed on demand — off the re-verify hot path *)
  mutable s_digest : string option;
  s_skeleton : string;
  s_sched : Sched.t;
  s_mode : Eval.mode;
  (* mutable: kept current across edits with [Window.update]; rebuilt
     wholesale on a [Cases] or [Corners] edit, which change the
     volatile-net set resp. the lane count baked into the table *)
  mutable s_window : Window.t;
  (* mutable: a [Corners] edit changes the lane count, which is fixed at
     [Eval.create] time, so [reverify] swaps in a fresh evaluator *)
  mutable s_ev : Eval.t;
  (* observation hook shared by every request of the session: spans
     emitted here inherit whatever lane the serve loop set, so traces
     attribute each phase to its request *)
  s_probe : Verifier.probe option;
  mutable s_fp : int64 array;
  mutable s_cases : Case_analysis.case list;
  mutable s_case_nets : int list;
  mutable s_pending : Edit.t list;  (* reversed: newest first *)
  mutable s_report : Verifier.report;
  mutable s_cum : Eval.counters;
  mutable s_requests : int;
  mutable s_last : stats;
  (* Cross-run violation caches: without them a re-verify would still
     pay a full check pass over every instance, capping the win well
     below the evaluation savings.  Entries are keyed on the generation
     stamps of the instance's input nets (resp. the net's own stamp) at
     the time the verdict was computed — any evaluation or edit that
     could change the verdict bumps a stamp and misses the cache.
     Instance-parameter edits don't move any stamp, so those entries are
     invalidated explicitly in [reverify]. *)
  v_inst : (Check.t list * int array) option array;
  v_net : (Check.t list * int) option array;
}

let resolved_case_nets nl cases =
  List.sort_uniq compare
    (List.concat_map (fun c -> List.map fst (Case_analysis.resolve nl c)) cases)

let input_gens nl (i : Netlist.inst) =
  Array.map (fun (c : Netlist.conn) -> (Netlist.net nl c.c_net).n_gen) i.i_inputs

(* allocation-free equality against the live stamps, for the hit path *)
let gens_current nl (i : Netlist.inst) g =
  let n = Array.length i.i_inputs in
  Array.length g = n
  &&
  let rec go k =
    k = n
    || (Netlist.net nl i.i_inputs.(k).c_net).n_gen = g.(k) && go (k + 1)
  in
  go 0

(* One checking pass with the exact shape of [Eval.check] — per-instance
   lists in id order, then per-net lists in id order, divergence report
   in front — so the concatenation is bit-identical to a cold run's. *)
let cached_check t =
  let nl = t.s_nl and ev = t.s_ev in
  let hits = ref 0 in
  let acc = ref [] in
  for id = 0 to Netlist.n_insts nl - 1 do
    let i = Netlist.inst nl id in
    let vs =
      match t.v_inst.(id) with
      | Some (vs, g) when gens_current nl i g ->
        incr hits;
        vs
      | _ ->
        let vs = Eval.check_one ev id in
        t.v_inst.(id) <- Some (vs, input_gens nl i);
        vs
    in
    acc := vs :: !acc
  done;
  for id = 0 to Netlist.n_nets nl - 1 do
    let n = Netlist.net nl id in
    let vs =
      match t.v_net.(id) with
      | Some (vs, g) when g = n.n_gen ->
        incr hits;
        vs
      | _ ->
        let vs = Eval.check_net ev id in
        t.v_net.(id) <- Some (vs, n.n_gen);
        vs
    in
    acc := vs :: !acc
  done;
  let base = List.concat (List.rev !acc) in
  (Eval.divergence ev @ base, !hits)

let load ?(mode = Eval.Level) ?(cases = []) ?probe nl =
  let sched = Sched.compute nl in
  let case_nets = resolved_case_nets nl cases in
  let window = Window.analyse ~sched ~case_nets nl in
  let report = Verifier.verify ~cases ~jobs:1 ?probe ~sched:mode ~window nl in
  let ev = report.Verifier.r_eval in
  let t =
    {
      s_nl = nl;
      s_id = Fingerprint.digest nl;
      s_digest = None;
      s_skeleton = Fingerprint.skeleton nl;
      s_sched = sched;
      s_mode = mode;
      s_window = window;
      s_ev = ev;
      s_probe = probe;
      s_fp = Fingerprint.cones ~sched nl;
      s_cases = cases;
      s_case_nets = case_nets;
      s_pending = [];
      s_report = report;
      s_cum = Eval.zero_counters;
      s_requests = 1;
      s_last =
        {
          st_requests = 1;
          st_reused_nets = 0;
          st_dirtied_nets = Netlist.n_nets nl;
          st_warm_hits = 0;
          st_fp_changed = Netlist.n_nets nl;
          st_events = report.Verifier.r_events;
          st_evaluations = report.Verifier.r_evaluations;
        };
      v_inst = Array.make (max 1 (Netlist.n_insts nl)) None;
      v_net = Array.make (max 1 (Netlist.n_nets nl)) None;
    }
  in
  t.s_digest <- Some t.s_id;
  (* Prime the violation caches against the final cold-run state so the
     first re-verify reuses every verdict outside its dirty cone.  This
     replays one check pass; its waveform-cache traffic lands in the
     cumulative counters sampled next. *)
  ignore (cached_check t);
  Eval.count_request ev;
  t.s_cum <- Eval.counters ev;
  t

let id t = t.s_id

let digest t =
  match t.s_digest with
  | Some d -> d
  | None ->
    let d = Fingerprint.digest t.s_nl in
    t.s_digest <- Some d;
    d
let skeleton t = t.s_skeleton
let netlist t = t.s_nl
let mode t = t.s_mode
let report t = t.s_report
let cases t = t.s_cases
let stats t = t.s_last
let cumulative t = t.s_cum
let fingerprints t = t.s_fp
let stage t e = t.s_pending <- e :: t.s_pending
let pending t = List.length t.s_pending

let listing_string (r : Verifier.report) =
  Format.asprintf "@.%a@." Report.pp_violations r.Verifier.r_violations

let listing t = listing_string t.s_report

(* Forward closure over the instance graph: an instance is dirty when a
   seed net reaches one of its inputs (transitively).  This is the
   output cone of the edit over the same structure [Sched] condensed —
   feedback components are handled naturally, since their members reach
   each other through their output nets. *)
let dirty_cone nl ~seed_nets ~seed_insts =
  let n_insts = Netlist.n_insts nl and n_nets = Netlist.n_nets nl in
  let inst_dirty = Array.make (max 1 n_insts) false in
  let net_dirty = Array.make (max 1 n_nets) false in
  let q = Queue.create () in
  let add id =
    if not inst_dirty.(id) then begin
      inst_dirty.(id) <- true;
      Queue.add id q
    end
  in
  List.iter
    (fun nid ->
      net_dirty.(nid) <- true;
      Netlist.iter_fanout (Netlist.net nl nid) add)
    seed_nets;
  List.iter add seed_insts;
  while not (Queue.is_empty q) do
    let id = Queue.take q in
    match (Netlist.inst nl id).i_output with
    | None -> ()
    | Some o ->
      if not net_dirty.(o) then begin
        net_dirty.(o) <- true;
        Netlist.iter_fanout (Netlist.net nl o) add
      end
  done;
  (inst_dirty, net_dirty)

let reverify ?(carry_counters = true) t =
  let nl = t.s_nl in
  (* [span] stays let-bound polymorphic, like the wrapper in
     [Verifier.verify]: it wraps unit-, pair- and list-returning
     phases below. *)
  let span : 'a. string -> (unit -> 'a) -> 'a =
   fun name f ->
    match t.s_probe with None -> f () | Some p -> p.Verifier.pr_span name f
  in
  t.s_requests <- t.s_requests + 1;
  let edits = List.rev t.s_pending in
  t.s_pending <- [];
  (* 1. apply the staged edits, collecting cone seeds *)
  let touched_nets = ref [] and reinit_nets = ref [] and touched_insts = ref [] in
  let new_cases = ref None in
  span "apply" (fun () ->
      List.iter
        (fun e ->
          let a = Edit.apply nl e in
          touched_nets := a.Edit.a_touched_nets @ !touched_nets;
          reinit_nets := a.Edit.a_reinit_nets @ !reinit_nets;
          touched_insts := a.Edit.a_touched_insts @ !touched_insts;
          match a.Edit.a_cases with Some cs -> new_cases := Some cs | None -> ())
        edits);
  let old_case_nets = t.s_case_nets in
  (match !new_cases with
  | Some cs ->
    t.s_cases <- cs;
    t.s_case_nets <- resolved_case_nets nl cs
  | None -> ());
  (* A corners edit changed the lane count, which is fixed at
     [Eval.create] time: swap in a fresh evaluator (cold — its first run
     below re-initializes every net, bumping every generation stamp) and
     drop the cached verdicts wholesale.  The cumulative counters keep
     accumulating across the swap. *)
  let window_rebuilt = ref false in
  let reanalyse_window () =
    t.s_window <- Window.analyse ~sched:t.s_sched ~case_nets:t.s_case_nets nl;
    window_rebuilt := true
  in
  if not (Corner.table_equal (Eval.corners t.s_ev) (Netlist.corners nl)) then begin
    (* the lane count is baked into the window table too *)
    reanalyse_window ();
    let fresh =
      Eval.create ~mode:t.s_mode ~sched:t.s_sched ~window:t.s_window nl
    in
    Eval.set_event_hook fresh (Eval.event_hook t.s_ev);
    t.s_ev <- fresh;
    Array.fill t.v_inst 0 (Array.length t.v_inst) None;
    Array.fill t.v_net 0 (Array.length t.v_net) None
  end
  else if !new_cases <> None then begin
    (* the volatile-net set is baked into the window table *)
    reanalyse_window ();
    Eval.set_window t.s_ev (Some t.s_window)
  end;
  let ev = t.s_ev in
  Eval.reset_counters ev;
  Eval.count_request ev;
  let touched_nets = List.sort_uniq compare !touched_nets in
  let reinit_nets = List.sort_uniq compare !reinit_nets in
  let touched_insts = List.sort_uniq compare !touched_insts in
  (* The case sweep below replays every case group, so the cones of all
     case-mapped nets — old and new — must stay live alongside the
     cones of the edits. *)
  let seed_nets =
    List.sort_uniq compare
      (touched_nets @ reinit_nets @ old_case_nets @ t.s_case_nets)
  in
  (* A re-asserted or case-mapped net that is driven is recomputed by
     re-running its driver ([Eval.reassert_net], the §2.7 path in
     [Eval.run]) — the driver must therefore be live even though it sits
     upstream of the seed, not in its fanout. *)
  let seed_insts =
    List.sort_uniq compare
      (touched_insts
      @ List.filter_map
          (fun nid -> (Netlist.net nl nid).n_driver)
          (reinit_nets @ old_case_nets @ t.s_case_nets))
  in
  (* Absorb parameter edits into the window table (a [Cases]/[Corners]
     edit already rebuilt it above).  An edited instance contributes its
     own nets: the output so a delay edit re-dilates the cone, the
     inputs so [Window.update] re-proves the instance itself (a checker
     whose margins changed has no output net to dirty). *)
  if not !window_rebuilt then begin
    let inst_nets =
      List.concat_map
        (fun id ->
          let i = Netlist.inst nl id in
          let ins =
            Array.to_list
              (Array.map (fun (c : Netlist.conn) -> c.Netlist.c_net) i.i_inputs)
          in
          match i.i_output with Some o -> o :: ins | None -> ins)
        touched_insts
    in
    match touched_nets @ reinit_nets @ inst_nets with
    | [] -> ()
    | ds -> ignore (Window.update t.s_window ~dirty_nets:(List.sort_uniq compare ds))
  end;
  (* 2. thaw exactly the dirty cone, freeze everything else; then
     re-apply the window freeze from the just-updated proofs — checkers
     still proven stay statically served even inside the thawed cone,
     checkers no longer proven thaw and re-check *)
  let net_dirty =
    span "cone" (fun () ->
        let inst_dirty, net_dirty = dirty_cone nl ~seed_nets ~seed_insts in
        Eval.refreeze ev ~active:(fun id -> inst_dirty.(id));
        Eval.rewindow ev;
        net_dirty)
  in
  (* 3. inject the edits into the evaluator: bump stamps, wake cones *)
  List.iter (Eval.touch_net ev) touched_nets;
  List.iter (Eval.reassert_net ev) reinit_nets;
  List.iter (Eval.enqueue_inst ev) touched_insts;
  (* an instance-parameter edit moves no stamp; drop its cached verdict *)
  List.iter (fun id -> t.v_inst.(id) <- None) touched_insts;
  (* 4. replay the case sweep, checking each case through the caches *)
  let warm = ref 0 in
  let case_list = match t.s_cases with [] -> [ [] ] | cs -> cs in
  let run_case i case =
    let before_events = Eval.events ev and before_evals = Eval.evaluations ev in
    span
      (Printf.sprintf "evaluate:case%d" (i + 1))
      (fun () -> Eval.run ~case:(Case_analysis.resolve nl case) ev);
    let violations, hits =
      span (Printf.sprintf "check:case%d" (i + 1)) (fun () -> cached_check t)
    in
    warm := !warm + hits;
    (* the extra corners are checked uncached: the verdict caches key on
       lane-0 stamps only, and lane stamps share them *)
    let corner_violations =
      if Eval.n_corners ev = 1 then []
      else List.init (Eval.n_corners ev - 1) (fun l -> Eval.check_lane ev (l + 1))
    in
    ( {
        Verifier.cr_case = case;
        cr_violations = violations;
        cr_events = Eval.events ev - before_events;
        cr_evaluations = Eval.evaluations ev - before_evals;
        cr_converged = Eval.converged ev;
      },
      corner_violations )
  in
  let paired = List.mapi run_case case_list in
  let results = List.map fst paired in
  (* 5. merge counters and rebuild the report in Verifier.verify's shape *)
  let c = Eval.counters ev in
  t.s_cum <- Eval.merge_counters t.s_cum c;
  let all = List.concat_map (fun r -> r.Verifier.cr_violations) results in
  let r_violations = Verifier.dedup_violations all in
  let corner_tbl = Eval.corners ev in
  let r_corners =
    List.init (Array.length corner_tbl) (fun cidx ->
        let viols =
          if cidx = 0 then r_violations
          else
            Verifier.dedup_violations
              (List.concat_map (fun (_, lanes) -> List.nth lanes (cidx - 1)) paired)
        in
        { Verifier.co_corner = corner_tbl.(cidx); co_violations = viols })
  in
  let report =
    {
      Verifier.r_cases = results;
      r_events = c.Eval.c_events;
      r_evaluations = c.Eval.c_evaluations;
      r_violations;
      r_corners;
      r_converged = List.for_all (fun r -> r.Verifier.cr_converged) results;
      r_unasserted =
        List.map (fun (n : Netlist.net) -> n.n_name) (Netlist.undriven_unasserted nl);
      r_lint = None;
      r_obs = Verifier.obs_of_counters (if carry_counters then t.s_cum else c);
      r_eval = ev;
      r_jobs = 1;
    }
  in
  t.s_report <- report;
  (* 6. invalidate the content address (recomputed on demand, off this
     hot path) and refresh the cone fingerprints incrementally: the
     dirty cone is forward-closed around everything that changed, which
     is exactly what the incremental mode needs *)
  t.s_digest <- None;
  let fp =
    span "fingerprint" (fun () ->
        Fingerprint.cones ~sched:t.s_sched ~prev:t.s_fp
          ~dirty:(fun nid -> net_dirty.(nid))
          nl)
  in
  let fp_changed = Fingerprint.diff_count t.s_fp fp in
  t.s_fp <- fp;
  let dirtied = Array.fold_left (fun a d -> if d then a + 1 else a) 0 net_dirty in
  let st =
    {
      st_requests = t.s_requests;
      st_reused_nets = Netlist.n_nets nl - dirtied;
      st_dirtied_nets = dirtied;
      st_warm_hits = !warm;
      st_fp_changed = fp_changed;
      st_events = c.Eval.c_events;
      st_evaluations = c.Eval.c_evaluations;
    }
  in
  t.s_last <- st;
  (report, st)
