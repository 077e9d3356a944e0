(** Static arrival-time window analysis (doc/WINDOWS.md).

    Where {!Flow} proves {e what kind} of information a net carries,
    this pass proves {e when} the net can possibly transition: one
    forward abstract interpretation over the {!Sched} condensation
    computes, per net and per delay corner, a conservative set of
    arrival windows — intervals of the cycle outside of which the signal
    is provably stable.  Windows are seeded from assertions and the
    §2.5 stable assumption on undriven inputs, dilated through element
    and interconnection delays (min/max per {!Delay} pair, scaled per
    {!Corner}), unioned at fan-in, and started at top on feedback
    components so any bounded narrowing stays sound.

    Soundness invariant: for every net, every materialized change window
    of the converged evaluator waveform lies inside the net's computed
    window set, at every corner, under every case substitution (a case
    maps [Stable] to a constant, which never adds transitions).  Nets on
    which [Unknown] values may appear are flagged ({!may_unknown}) —
    [Unknown] is non-stable but not a transition, so proofs never rely
    on windows alone there.

    Two consumers share one analysis: the W-series lint rules
    (vacuity, guaranteed violations, unconstrained cones) and the
    evaluator's window pruning ({!Eval.create}[ ?window],
    [Verifier.verify ?window_prune] — statically proven checkers are
    frozen before the first run and their verdicts served without
    evaluation). *)

type span = { s_lo : Timebase.ps; s_hi : Timebase.ps }
(** One arrival window: the signal may transition at any instant of
    [\[s_lo, s_hi\]] (inclusive bounds, [0 <= s_lo <= s_hi <= period]).
    A zero-width span marks an instantaneous step between two stable
    values. *)

type wins =
  | Top  (** transitions possible at any time (feedback widening) *)
  | Wins of span list
      (** sorted, disjoint, non-wrapping (split at the cycle boundary);
          [Wins []] — the net provably never transitions *)

type t

val analyse : ?sched:Sched.t -> ?case_nets:int list -> Netlist.t -> t
(** Compute the window table for every net at every corner of the
    netlist's {!Corner.table}.  [sched] reuses an existing condensation.

    [case_nets] are nets case analysis may substitute (§2.7): windows
    themselves are case-invariant (substitution maps [Stable] to a
    constant and never adds transitions), but the substituted nets are
    demoted from exact-waveform status, so checker proofs that need the
    {e precise} clock or data waveform are withheld on their cones. *)

val netlist : t -> Netlist.t
val sched : t -> Sched.t

val n_corners : t -> int

val wins : t -> ?corner:int -> int -> wins
(** [wins t ~corner net_id] — the window set of a net at a corner
    (default: the reference corner 0). *)

val constrained : t -> int -> bool
(** Does any assertion reach the net's backward cone (the net itself
    included)?  When false, the net's windows rest solely on the §2.5
    stable assumption for undriven inputs — lint rule W4's question. *)

val may_unknown : t -> int -> bool
(** May the evaluator produce [Unknown] values on this net (feedback
    membership or downstream of it, or a register/latch whose SET and
    RESET are not provably exclusive)?  Such nets are excluded from
    every proof: [Unknown] is non-stable without being a transition. *)

val unbounded : t -> int -> bool
(** [Top] at some corner. *)

val volatile : t -> int -> bool
(** The net was listed in [case_nets]. *)

val inst_proven : t -> int -> bool
(** [inst_proven t inst_id] — the checker instance is statically proven
    to report no violation, at {e every} corner: its clock input is
    reconstructed exactly (undriven, asserted, non-volatile cone) and
    its data input over-approximated from the window table, and the real
    {!Check} functions return no violation on that sound abstraction.
    Always false for non-checker instances. *)

val inst_guaranteed : t -> int -> bool
(** The checker is statically proven to report a violation at every
    corner — both inputs reconstruct exactly, so the static verdict is
    the true one.  Lint rule W3's witness. *)

val net_proven : t -> int -> bool
(** [net_proven t net_id] — the driven net carries a [.S] assertion that
    is statically satisfied at every corner: no arrival window overlaps
    an asserted-stable interval.  The stable-assertion check can never
    fire (lint rule W1), so its verdict is served statically. *)

val net_contradicted : t -> int -> bool
(** The driven net's [.S] assertion is statically {e contradicted}: the
    net does have possible transition windows, and at every corner each
    of them lies wholly inside a declared stable interval — whenever the
    signal moves at all, it violates its own assertion.  Lint rule W5's
    witness (provably disjoint from {!net_proven}). *)

val n_insts_proven : t -> int
val n_guaranteed : t -> int
val n_nets_proven : t -> int

val counts : t -> int * int
(** [(bounded, unbounded)] net counts at the reference corner. *)

val n_unconstrained : t -> int

val update : t -> dirty_nets:int list -> t
(** Recompute the windows, flags and proofs of the forward cone of the
    given nets only, in place (returned for convenience) — the
    incremental service's path: a delay, assertion or directive edit
    dirties a small cone, and everything outside it is provably
    unchanged.  A corner-table change invalidates every window; callers
    re-run {!analyse} for that. *)

val pp_windows : Format.formatter -> t -> unit
(** The [--windows] listing: one line per net, in net-id order, with its
    reference-corner windows, the witness that produced them, and the
    proof summary. *)
