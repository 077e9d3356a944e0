(** Event-driven circuit evaluation (§2.9).

    The evaluator computes, for one case, the value of every signal over
    the clock period: signals with assertions are initialized from them,
    undriven unasserted signals are taken to be always stable, everything
    else starts [Unknown]; then all primitives are evaluated and any
    whose output changed put their fanout back on the work list, until a
    fixpoint is reached.

    Case analysis is incremental: changing the case re-initializes only
    the mapped signals and re-evaluates only the affected cone, so
    additional cases cost time proportional to the events they cause
    (§2.7, §3.3.2).

    Two work-list disciplines are available (see [doc/SCHEDULER.md]):

    - {!Level} (the default): a structural schedule ({!Sched.compute})
      orders ready instances by topological level, so each acyclic
      instance is evaluated at most once per settled wavefront; only
      instances inside feedback components relax in FIFO order, under a
      per-component budget, and a [No_convergence] verdict names the
      cyclic region.
    - {!Fifo}: the historical plain first-in-first-out relaxation.

    Both disciplines reach the same fixpoint — same waveforms, same
    violations — they differ only in how many evaluations it takes.
    Input waveforms are additionally memoized per connection, keyed on a
    per-net generation stamp, in either mode. *)

type t

type mode =
  | Fifo  (** historical FIFO relaxation *)
  | Level  (** level-ordered sweep, FIFO inside feedback components *)

val create :
  ?mode:mode -> ?sched:Sched.t -> ?window:Window.t -> Netlist.t -> t
(** [mode] defaults to {!Level}.  [sched] supplies a precomputed
    schedule (it must describe the same structure, e.g. the original of
    a {!Netlist.copy}); without it, {!Level} mode computes one at the
    first {!run}.  [sched] is ignored in {!Fifo} mode.

    [window] enables arrival-window pruning (doc/WINDOWS.md): checkers
    the analysis statically proves clean at every corner
    ({!Window.inst_proven}) are frozen from creation and their empty
    verdicts served without evaluation on every lane; nets whose stable
    assertions are proven ({!Window.net_proven}) are served likewise.
    The analysis must describe the same structure and must have been
    given the union of the mapped nets of every case that will be run
    ([Window.analyse ~case_nets]); both modes honour it.  Without
    [window] nothing is frozen until {!refreeze}. *)

val mode : t -> mode

val netlist : t -> Netlist.t

val corners : t -> Corner.table
(** The corner table captured from the netlist at {!create} time.
    Corner 0 is the reference: its waveforms and verdicts are those of a
    plain single-corner run (doc/CORNERS.md). *)

val n_corners : t -> int

val run : ?case:(int * Tvalue.t) list -> t -> unit
(** Evaluate to a fixpoint under the given case mapping (net id to the
    value substituted for [Stable]; an empty list clears the mapping).
    Successive calls are incremental. *)

val check : t -> Check.t list
(** Run all checker primitives, [&A]/[&H] hazard checks and
    stable-assertion checks against the current signal values, plus a
    {!Check.No_convergence} report if the last {!run} hit the evaluation
    bound.  In {!Level} mode the report names the feedback region whose
    relaxation budget was exceeded. *)

val check_one : t -> int -> Check.t list
(** The checks of a single instance (by id): checker primitives report
    their margins, gates their [&A]/[&H] hazard scans, everything else
    reports nothing.  [check] is the concatenation of [check_one] over
    all instances (in id order) followed by {!check_net} over all nets
    (in id order), with {!divergence} in front — exposed so an
    incremental service can cache per-instance verdicts keyed on input
    generation stamps and still reproduce a cold run's list exactly. *)

val check_net : t -> int -> Check.t list
(** The stable-assertion check of a single net (by id); empty unless the
    net is both asserted and driven. *)

val check_lane : t -> int -> Check.t list
(** [check_lane t lane] — the full {!check} list evaluated against lane
    [lane]'s waveforms ([0 <= lane < n_corners]).  [check t] is
    [check_lane t 0].  The divergence report is shared: convergence is a
    property of the whole packed run. *)

val check_inst_lane : t -> int -> Netlist.inst -> Check.t list
(** Per-lane {!check_one} (taking the instance record directly). *)

val check_net_lane : t -> int -> int -> Check.t list
(** Per-lane {!check_net}: [check_net_lane t lane net_id]. *)

val divergence : t -> Check.t list
(** The {!Check.No_convergence} report of the most recent {!run}, or
    [[]] if it converged. *)

val value : t -> int -> Waveform.t
(** Current waveform of a net (the reference corner's). *)

val value_lane : t -> int -> int -> Waveform.t
(** [value_lane t lane net_id] — the net's waveform on the given corner
    lane; [value_lane t 0] is {!value}.  Lanes whose waveform equals the
    reference return the very same record (see [c_corner_lanes_shared]). *)

(** {2 Incremental-service hooks}

    Used by [lib/incr] (doc/SERVICE.md) to replay a netlist edit on a
    persistent evaluator.  All three leave waveforms outside the touched
    cone untouched, so generation-keyed caches keep their value. *)

val touch_net : t -> int -> unit
(** Bump the net's generation stamp and wake its fanout.  Called after
    an edit that changes how the (unchanged) waveform is interpreted —
    a wire-delay or input-directive change — so every consumer's
    memoized input waveform misses and is rebuilt. *)

val reassert_net : t -> int -> unit
(** Recompute a net after its assertion changed: an undriven net is
    re-initialized from the new assertion in place (the §2.7 case-change
    path), a driven net has its driver re-enqueued; either way the
    fanout is woken. *)

val refreeze : t -> active:(int -> bool) -> unit
(** Replace the frozen set wholesale: instance [id] stays live iff
    [active id].  The incremental service thaws exactly the dirty cone
    of an edit and freezes everything else — instances outside the cone
    already hold their fixpoint waveforms from the previous run. *)

val rewindow : t -> unit
(** Re-apply the window freeze after {!refreeze} rebuilt the frozen set:
    checkers the (possibly {!Window.update}d) analysis still proves stay
    statically served even inside the thawed cone, and checkers no
    longer proven are thawed so the next run re-checks them.  A no-op
    without a [window]. *)

val set_window : t -> Window.t option -> unit
(** Swap the window analysis the evaluator serves static verdicts from.
    Used on a case-group edit, where the volatile-net set baked into the
    table changes and {!Window.update} cannot absorb it; follow with
    {!rewindow} (after {!refreeze}) so the frozen set matches the new
    proofs. *)

val enqueue_inst : t -> int -> unit
(** Put one instance on the work list for the next {!run} (a no-op if
    frozen or already queued).  Used to re-evaluate an instance whose
    own parameters — element delay, checker margins — changed without
    any input net changing. *)

val input_waveform : t -> Netlist.inst -> int -> Waveform.t
(** The waveform a primitive instance actually sees on input [i]: the
    net value after complementation and interconnection delay, with
    evaluation directives applied.  Exposed for reporting (the Figure
    3-11 listing prints the values seen by the checker).  Memoized per
    connection on the driving net's generation stamp. *)

val input_waveform_lane : t -> int -> Netlist.inst -> int -> Waveform.t
(** Per-lane {!input_waveform}: [input_waveform_lane t lane inst i] is
    the waveform the instance sees on input [i] with lane [lane]'s
    wire-delay scale applied.  [input_waveform_lane t 0] is
    {!input_waveform}. *)

val events : t -> int
(** Number of events processed so far: an event is an output being given
    a new value, causing its consumers to be re-evaluated (§3.3.2). *)

val evaluations : t -> int
(** Number of primitive evaluations performed so far. *)

val converged : t -> bool
(** Whether the {e most recent} {!run} reached a fixpoint within the
    evaluation bound.  Reset at the start of every run — callers
    tracking convergence across a case list must sample it after each
    case (see {!Verifier.case_result.cr_converged}). *)

val reset_counters : t -> unit

val count_request : t -> unit
(** Bump the request counter: one service-level request (a cold load or
    an incremental re-verify) is about to run on this evaluator.  The
    counter travels through {!counters} like every accumulator —
    cleared by {!reset_counters}, summed by {!merge_counters} — so a
    session's cumulative snapshot reports how many requests it has
    served.  One-shot CLI runs never call it and report [0]. *)

(** {2 Instrumentation}

    The evaluator keeps a handful of always-on integer counters (the
    thesis reports its runtime shape in exactly these terms, §3.3.2) and
    offers one optional per-event hook.  With the hook unset the hot
    event path pays only plain integer increments — no allocation, no
    indirect call. *)

type counters = {
  c_requests : int;
      (** service-level requests served ({!count_request}); [0] for
          one-shot runs *)
  c_events : int;  (** output-change events processed *)
  c_evaluations : int;  (** primitive evaluations performed *)
  c_queued : int;  (** enqueue requests (fanout activations) *)
  c_coalesced : int;
      (** enqueue requests absorbed because the instance was already on
          the work list — the saving of the call-list discipline *)
  c_queue_hwm : int;  (** work-list high-water mark *)
  c_sched_levels : int;
      (** topological levels in the schedule; [0] in {!Fifo} mode or
          before the schedule is computed *)
  c_sccs : int;  (** strongly connected components in the schedule *)
  c_max_scc_size : int;  (** largest component ([1] when acyclic) *)
  c_cache_hits : int;
      (** input-waveform / register-data cache hits (generation match) *)
  c_cache_misses : int;  (** cache fills *)
  c_pruned_evals : int;
      (** evaluations skipped on instances outside an edit's dirty cone
          ({!refreeze}); [0] outside the incremental service *)
  c_corners : int;  (** corners evaluated per traversal ([1] single-corner) *)
  c_corner_lanes_shared : int;
      (** lane outputs that converged to the reference waveform and were
          stored as the shared record instead of their own *)
  c_corner_evals_saved : int;
      (** lane evaluations skipped outright because every input was
          constant and pointer-shared with the reference lane *)
  c_window_insts : int;
      (** checkers statically proven clean by the window analysis and
          frozen from creation; [0] without a window table *)
  c_window_nets : int;
      (** driven nets whose stable assertion is statically proven *)
  c_window_unbounded : int;
      (** nets with [Top] windows at the reference corner *)
  c_window_lanes_static : int;
      (** extra corner lanes whose window map is identical to the
          reference's — provably shareable before any evaluation *)
  c_window_evals : int;
      (** evaluations skipped on window-frozen checkers *)
  c_window_checks : int;
      (** checker/assertion verdicts served statically instead of
          computed *)
  c_evals_by_kind : (string * int) list;
      (** evaluations per primitive mnemonic, e.g. [("REG", 42)];
          alphabetical, zero-count kinds omitted *)
}

val counters : t -> counters
(** Snapshot of the counters accumulated since creation (or the last
    {!reset_counters}).  The schedule-shape fields ([c_sched_levels],
    [c_sccs], [c_max_scc_size]) and the proof-shape fields
    ([c_window_insts], [c_window_nets], [c_window_unbounded],
    [c_window_lanes_static]) are properties of the netlist and its
    analysis, not accumulators — {!reset_counters} leaves them
    readable. *)

val zero_counters : counters
(** All-zero counters: the identity of {!merge_counters}. *)

val merge_counters : counters -> counters -> counters
(** Combine two snapshots: accumulators sum; the queue high-water mark,
    the schedule-shape and the proof-shape fields take the max (they
    are identical across runs of one structure).  Used both to merge
    parallel shards ({!Verifier.verify} with [~jobs]) and to carry
    cumulative totals across the requests of an incremental session. *)

val set_event_hook : t -> (inst_id:int -> net_id:int -> unit) option -> unit
(** Install (or clear) a hook called once per event, {e after} the
    output net [net_id] of instance [inst_id] has been given its new
    value.  Used by the observability layer to feed its causal ring
    buffer; [None] (the default) restores the zero-cost path. *)

val event_hook : t -> (inst_id:int -> net_id:int -> unit) option
