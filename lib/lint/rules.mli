(** The design-rule catalogue of the constraint lint.

    The rules audit an expanded {!Scald_core.Netlist.t} and its
    assertions {e statically} — no evaluation happens — mirroring the
    completeness (C) / consistency (K) split of SDC checkers.  A design
    whose constraints are incomplete can verify "clean" silently: the
    dynamic verifier only reports what its checkers execute (§2.9), so
    an unchecked flip-flop or an unasserted interface input produces no
    violation at all.  These rules close that gap.

    Completeness (is every constraint the designer should have written
    actually present?):
    - [C1] every edge-sensitive input (checker CK, register CLOCK,
      latch ENABLE) is driven — possibly through gating — from a signal
      carrying a [.P]/[.C] clock assertion (§2.5).
    - [C2] every primary (undriven) input carries an assertion (§2.5);
      subsumes {!Scald_core.Netlist.undriven_unasserted}.
    - [C3] every register/latch data input is covered by a SETUP/HOLD
      checker (Figures 2-1 to 2-3).
    - [C4] every gated clock — a clock-asserted signal entering a gate —
      carries an [&A]/[&H] hazard directive, or an explicit non-hazard
      directive as a waiver (§2.6).
    - [C5] clocks state their skew explicitly where the design rules
      supply a non-zero default skew (§2.5, §3.3).

    Consistency (are the constraints that {e are} present mutually
    satisfiable?):
    - [K1] every delay range has [0 <= min <= max] and fits within the
      clock period (§1.4.1.1) — component delays, wire overrides and
      the default wire rule.
    - [K2] checker constraints are feasible within the period: set-up +
      hold must fit, minimum pulse widths must fit, and the data path
      into a checker must leave set-up margin.
    - [K3] evaluation-directive strings are no longer than the levels
      of gating that can consume them (§2.8).
    - [K4] no combinational cycles (DFS over driver/fanout, no
      evaluation); unregistered feedback never converges (§2.4).
    - [K5] assertion spellings and polarities are consistent: one
      spelling per signal (§2.5.1), no stable-asserted signal used as a
      clock, no low-active clock entering an edge-sensitive input
      uncomplemented.
    - [K6] no dead logic: every driven net feeds a primitive or a
      checker. *)

type ctx = {
  nl : Scald_core.Netlist.t;
  flow : Scald_core.Flow.t Lazy.t;
  window : Scald_core.Window.t Lazy.t;
}
(** What a rule audits: the netlist and the two static analyses the
    cone rules (C1/C4/C6/C7/K7) and the W rules read. *)

val context : Scald_core.Netlist.t -> ctx
(** A fresh context: each analysis runs on first use only, over the
    netlist as it is then.  Build one per audit, so an audit after an
    in-place edit never sees a stale analysis. *)

type rule = {
  id : string;  (** ["C1"]..""["K6"] *)
  title : string;
  section : string;  (** thesis cross-reference, e.g. ["2.5.1"] *)
  severity : Lint_report.severity;  (** severity of the primary finding *)
  check : ctx -> Lint_report.finding list;
}

val all : rule list
(** The full catalogue, completeness rules first. *)

val find : string -> rule option
(** Look up a rule by id (case-insensitive). *)
