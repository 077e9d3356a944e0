(** Margin (slack) reporting.

    The thesis's error listing shows only violations; production use of
    the very same data calls for the margins of the constraints that
    {e pass} as well — how close each set-up, hold and pulse-width check
    is to failing, sorted most-critical first.  (This is the report
    format the technique's descendants standardized on.)

    Slack is [margin - required]: negative slack is a violation, small
    positive slack is the critical part of the design, large slack is
    headroom for adding logic levels. *)

type constraint_kind =
  | Setup          (** data stable before a clock edge window *)
  | Hold           (** data stable after a clock edge window *)
  | Min_high
  | Min_low

type entry = {
  e_inst : string;       (** checker instance *)
  e_signal : string;
  e_clock : string option;
  e_kind : constraint_kind;
  e_required : Timebase.ps;
  e_slack : Timebase.ps;
      (** margin minus requirement; clamped below at [-e_required] when
          the signal is not stable at the reference edge at all *)
  e_at : Timebase.ps;    (** cycle time of the reference edge or pulse *)
}

val compute : Eval.t -> entry list
(** One entry per constraint instance per clock edge / pulse, computed
    from the current evaluation state, sorted by ascending slack.  A
    multi-corner run prints one table per corner, each from that
    corner's evaluator ([Verifier.corner_result.co_eval],
    doc/CORNERS.md). *)

val worst : Eval.t -> entry option

val critical : Eval.t -> below_ns:float -> entry list
(** Entries with slack below the given bound — the critical constraints
    to watch as the design evolves. *)

val kind_name : constraint_kind -> string

val pp : Format.formatter -> entry list -> unit
(** A slack table, most critical first. *)
