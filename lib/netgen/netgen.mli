(** Synthetic pipelined-processor designs (the §3.3.2 workload).

    The thesis's execution statistics (Tables 3-1 … 3-3) were measured
    on a major portion of the S-1 Mark IIA: 6 357 MSI ECL chips
    expanding to 8 282 primitives of 22 types, about 1.3 primitives per
    chip, a mean vector width of 6.5 bits.  That design database is not
    available, so this generator produces deterministic synthetic
    designs with the same published shape:

    - a pipeline of stages, each with register banks, a combinational
      cloud of gates/multiplexers, occasional register files with gated
      write enables, and latches;
    - one chip = one macro call in the emitted SCALD HDL, so the macro
      expander sees the same chips-to-primitives structure;
    - timing-clean by construction (a CORR-style minimum delay after
      every register suppresses the §4.2.3 same-clock hold correlation,
      exactly as the S-1 designers did), with an optional knob to inject
      genuine set-up violations;
    - widths drawn to a ≈6.5-bit mean, exercising the vector symmetry
      that keeps one primitive per data path.

    The design is emitted as SCALD HDL text, so scaling benchmarks
    exercise the whole pipeline: parse, macro expansion
    and verification. *)

module Rng = Rng
(** Re-exported so that downstream benchmarks can draw reproducible
    randomness from the same generator. *)

type config = {
  seed : int;
  chips : int;     (** target number of chips (macro calls) *)
  stages : int;    (** pipeline depth *)
  levels : int;    (** combinational levels per stage (1–5 keeps the
                       design timing-clean at a 50 ns cycle) *)
  broken_registers : int;
      (** number of registers given a deliberately slow data path, each
          producing a genuine set-up violation *)
}

val default_config : config
(** The thesis scale: seed 1, 6 357 chips, 16 stages, 4 levels, clean. *)

val scaled : ?seed:int -> ?broken_registers:int -> chips:int -> unit -> config
(** A smaller or larger design with proportional structure. *)

type design

val generate : config -> design

val n_chips : design -> int
(** Chips actually emitted (within a few of the target). *)

val to_sdl : design -> string
(** The design as SCALD HDL source text. *)

val to_netlist : design -> Scald_sdl.Expander.expansion
(** Parse and expand the emitted source (the full front-end pipeline).
    @raise Invalid_argument if expansion fails — a generator bug. *)
