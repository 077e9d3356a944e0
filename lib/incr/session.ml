open Scald_core

type stats = {
  st_requests : int;
  st_reused_nets : int;
  st_dirtied_nets : int;
  st_warm_hits : int;
  st_events : int;
  st_evaluations : int;
}

type t = {
  s_nl : Netlist.t;
  s_id : string;
  (* per-record hashes of the netlist as currently edited, re-hashed
     record by record in [reverify] *)
  s_table : Fingerprint.table;
  (* content digest of the netlist as currently edited; [None] after a
     re-verify, recomputed from [s_table] on demand *)
  mutable s_digest : string option;
  (* edits never change structure, so the skeleton is computed at most
     once, when a store lookup first asks for it *)
  s_skeleton : string Lazy.t;
  s_sched : Sched.t;
  s_mode : Eval.mode;
  (* mutable: kept current across edits with [Window.update]; rebuilt
     wholesale on a [Cases] or [Corners] edit, which change the
     volatile-net set resp. the corner table its proofs quantify over.
     One table serves every corner's evaluator. *)
  mutable s_window : Window.t;
  (* mutable: a [Corners] edit that moves the reference corner rescales
     every delay, so [reverify] swaps in a fresh evaluator *)
  mutable s_ev : Eval.t;
  (* one evaluator per further corner of the table, in table order, each
     on its own [Netlist.copy] restricted to that corner; every staged
     edit is replayed into each *)
  mutable s_others : Eval.t list;
  (* observation hook shared by every request of the session: spans
     emitted here inherit whatever lane the serve loop set, so traces
     attribute each phase to its request *)
  s_probe : Verifier.probe option;
  mutable s_cases : Case_analysis.case list;
  mutable s_case_nets : int list;
  mutable s_pending : Edit.t list;  (* reversed: newest first *)
  mutable s_report : Verifier.report;
  mutable s_cum : Eval.counters;
  mutable s_requests : int;
  mutable s_last : stats;
}

let resolved_case_nets nl cases =
  List.sort_uniq compare
    (List.concat_map (fun c -> List.map fst (Case_analysis.resolve nl c)) cases)

(* Counters of every corner's evaluator, merged: a session's work
   counters cover all the corners it verifies. *)
let all_counters ev others =
  List.fold_left
    (fun acc ev -> Eval.merge_counters acc (Eval.counters ev))
    (Eval.counters ev) others

let load_indexed ?(mode = Eval.Level) ?(cases = []) ?probe table nl =
  let sched = Sched.compute nl in
  let case_nets = resolved_case_nets nl cases in
  let window = Window.analyse ~sched ~case_nets nl in
  let report = Verifier.verify ~cases ~jobs:1 ?probe ~sched:mode ~window nl in
  let ev = report.Verifier.r_eval in
  let others =
    List.map (fun (co : Verifier.corner_result) -> co.Verifier.co_eval)
      (List.tl report.Verifier.r_corners)
  in
  (* The cold run's check passes left every evaluator's check memo primed
     for the final state, so the first re-verify reuses every verdict
     outside its dirty cone. *)
  Eval.count_request ev;
  let cum = all_counters ev others in
  let id = Fingerprint.digest_of table nl in
  {
    s_nl = nl;
    s_id = id;
    s_table = table;
    s_digest = Some id;
    s_skeleton = lazy (Fingerprint.skeleton nl);
    s_sched = sched;
    s_mode = mode;
    s_window = window;
    s_ev = ev;
    s_others = others;
    s_probe = probe;
    s_cases = cases;
    s_case_nets = case_nets;
    s_pending = [];
    s_report = report;
    s_cum = cum;
    s_requests = 1;
    s_last =
      {
        st_requests = 1;
        st_reused_nets = 0;
        st_dirtied_nets = Netlist.n_nets nl;
        st_warm_hits = 0;
        st_events = cum.Eval.c_events;
        st_evaluations = cum.Eval.c_evaluations;
      };
  }

let load ?mode ?cases ?probe nl =
  load_indexed ?mode ?cases ?probe (Fingerprint.table nl) nl

let id t = t.s_id

let digest t =
  match t.s_digest with
  | Some d -> d
  | None ->
    let d = Fingerprint.digest_of t.s_table t.s_nl in
    t.s_digest <- Some d;
    d

let skeleton t = Lazy.force t.s_skeleton
let netlist t = t.s_nl
let mode t = t.s_mode
let report t = t.s_report
let cases t = t.s_cases
let stats t = t.s_last
let cumulative t = t.s_cum
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
  let old_table = Netlist.corners nl in
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
  let window_rebuilt = ref false in
  let reanalyse_window () =
    t.s_window <- Window.analyse ~sched:t.s_sched ~case_nets:t.s_case_nets nl;
    window_rebuilt := true
  in
  let table = Netlist.corners nl in
  let corners_changed = not (Corner.table_equal old_table table) in
  if corners_changed then begin
    (* the window proofs quantify over the corner table *)
    reanalyse_window ();
    let create nl = Eval.create ~mode:t.s_mode ~sched:t.s_sched ~window:t.s_window nl in
    if not (Corner.equal old_table.(0) table.(0)) then begin
      (* a new reference corner rescales every delay ([Edit.apply]
         touched every net): swap in a fresh evaluator, whose first run
         below re-initializes every net.  The cumulative counters keep
         accumulating across the swap. *)
      let fresh = create nl in
      Eval.set_event_hook fresh (Eval.event_hook t.s_ev);
      t.s_ev <- fresh
    end;
    (* every further corner starts over on a fresh copy of the edited
       netlist *)
    t.s_others <-
      List.map
        (fun c ->
          let copy = Netlist.copy nl in
          Netlist.set_corners copy [| c |];
          create copy)
        (List.tl (Array.to_list table))
  end
  else if !new_cases <> None then
    (* the volatile-net set is baked into the window table *)
    reanalyse_window ();
  if !window_rebuilt then
    List.iter (fun ev -> Eval.set_window ev (Some t.s_window)) (t.s_ev :: t.s_others);
  let ev = t.s_ev in
  List.iter Eval.reset_counters (ev :: t.s_others);
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
     checkers no longer proven thaw and re-check.  3. inject the edits:
     bump stamps, wake cones, drop the memoized verdicts of edited
     instances.  The cone is structural, so every corner's evaluator
     shares it. *)
  let inst_dirty, net_dirty =
    span "cone" (fun () -> dirty_cone nl ~seed_nets ~seed_insts)
  in
  let replay ev =
    Eval.refreeze ev ~active:(fun id -> inst_dirty.(id));
    Eval.rewindow ev;
    List.iter (Eval.touch_net ev) touched_nets;
    List.iter (Eval.reassert_net ev) reinit_nets;
    List.iter (Eval.touch_inst ev) touched_insts
  in
  replay ev;
  (* 4. replay the case sweep; unchanged verdicts come from the check
     memo *)
  let case_list = match t.s_cases with [] -> [ [] ] | cs -> cs in
  let results = Verifier.sweep ?probe:t.s_probe ev case_list in
  let reference = Verifier.corner_result table.(0) results ev in
  (* ... and the same for every further corner, on its own copy: the
     instance array is shared, so instance edits already show through
     and re-applying them is a no-op; net edits land on the copy's own
     records.  A fresh evaluator (after a corners edit) runs cold. *)
  let others =
    List.map2
      (fun oev (c : Corner.t) ->
        span ("corner:" ^ c.Corner.name) (fun () ->
            if not corners_changed then begin
              List.iter
                (fun e ->
                  match e with
                  | Edit.Corners _ -> ()
                  | _ -> ignore (Edit.apply (Eval.netlist oev) e))
                edits;
              replay oev
            end;
            Verifier.corner_result c (Verifier.sweep oev case_list) oev))
      t.s_others
      (List.tl (Array.to_list table))
  in
  (* 5. merge counters and rebuild the report in Verifier.verify's shape *)
  let c = all_counters ev t.s_others in
  t.s_cum <- Eval.merge_counters t.s_cum c;
  let report =
    {
      Verifier.r_cases = results;
      r_events = c.Eval.c_events;
      r_evaluations = c.Eval.c_evaluations;
      r_violations = reference.Verifier.co_violations;
      r_corners = reference :: others;
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
  (* 6. re-hash the records the edits changed; the digest itself is
     recomputed from the table on demand *)
  span "fingerprint" (fun () ->
      Fingerprint.rehash t.s_table nl
        ~nets:(touched_nets @ reinit_nets)
        ~insts:touched_insts);
  t.s_digest <- None;
  let dirtied = Array.fold_left (fun a d -> if d then a + 1 else a) 0 net_dirty in
  let st =
    {
      st_requests = t.s_requests;
      st_reused_nets = Netlist.n_nets nl - dirtied;
      st_dirtied_nets = dirtied;
      st_warm_hits =
        List.fold_left (fun a ev -> a + Eval.check_hits ev) 0 (ev :: t.s_others);
      st_events = c.Eval.c_events;
      st_evaluations = c.Eval.c_evaluations;
    }
  in
  t.s_last <- st;
  (report, st)
