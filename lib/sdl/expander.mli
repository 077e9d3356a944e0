(** The SCALD Macro Expander (§3.3.2, Table 3-1).

    Processing happens in the thesis's phases:

    + reading the input and building data structures ({!Parser});
    + scanning the definitions: timing settings and macro bodies, so a
      macro may be used before it is defined and a late [PERIOD] applies
      to the whole design;
    + one walk of the instance tree that emits each resolved primitive
      straight into a {!Scald_core.Netlist.t} ready for the Timing
      Verifier, counting the summary as it goes.  A macro's formal
      parameter and the caller's actual signal are two names for one
      net (a synonym); the walk binds the formal to the actual, so each
      signal becomes exactly one net.

    The thesis's Pass 1 and Pass 2 rows (Table 3-1) are these two
    sub-phases: {!expansion.e_pass1_s} times the definitions scan and
    {!expansion.e_pass2_s} the walk.

    Macros take numeric properties (e.g. [SIZE=32]) that parameterize
    vector subscripts: a parameter declared [I<0:SIZE-1>] expands to
    [I<0:31>].  One expanded primitive stands for the whole vector —
    vector symmetry is exploited, not bit-blasted (§3.3.2). *)

type summary = {
  s_macros_expanded : int;  (** macro call sites expanded *)
  s_primitives : int;       (** primitive instances emitted *)
  s_signals : int;          (** distinct signals after synonym resolution:
                                the net count before WIRE DELAY / WIDTH
                                declarations *)
  s_synonyms : int;         (** formal/actual name pairs resolved *)
}

type expansion = {
  e_netlist : Scald_core.Netlist.t;
  e_summary : summary;
  e_pass1_s : float;
      (** CPU seconds scanning the definitions (Pass 1); 0 when streamed,
          where definitions are recorded as the walk reaches them *)
  e_pass2_s : float;  (** CPU seconds in the walk that builds the netlist (Pass 2) *)
  e_streamed : bool;  (** built by {!expand_stream} *)
}

val expand :
  ?defaults:Scald_core.Assertion.defaults ->
  Ast.design ->
  (expansion, string) result
(** Expand a parsed design: scan its definitions, then walk it once.
    The design must contain a [PERIOD] statement; [CLOCK UNIT] defaults
    to one eighth of the period, the default wire delay to 0.0/2.0 ns. *)

val expand_exn : ?defaults:Scald_core.Assertion.defaults -> Ast.design -> expansion

val expand_stream :
  ?defaults:Scald_core.Assertion.defaults -> string -> (expansion, string) result
(** Streaming expansion: statements are parsed one at a time
    ({!Parser.iter_stream}) and fed to the same walk as {!expand}, so
    no design AST is held and peak memory tracks the expanded design
    rather than the source's token sequence or macro tree.

    Stricter than {!expand}: macros must be defined before use,
    [PERIOD] must precede the first instance, and the timing settings
    ([PERIOD], [CLOCK UNIT], [DEFAULT WIRE DELAY]) must not change
    after the first instance.  On designs both accept, the resulting
    netlist is bit-identical to {!expand}'s. *)

val load : ?defaults:Scald_core.Assertion.defaults -> string -> (expansion, string) result
(** Expand a source text: tries {!expand_stream} first and transparently
    falls back to parse + {!expand} if the streaming pass rejects the
    design, so all designs {!expand} accepts still load — only the peak
    memory differs. *)

val pp_summary : Format.formatter -> summary -> unit
