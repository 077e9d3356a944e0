(** Minimum/maximum propagation-delay pairs.

    All component and interconnection delays in the Timing Verifier are
    specified as a min/max pair (§1.4.1.1); the verifier checks that the
    design performs properly for every combination within the ranges.

    {b Rise/fall asymmetry (§4.2.2).}  Technologies such as nMOS have
    greatly differing rising and falling delays.  A delay may carry an
    optional rise/fall refinement: [dmin]/[dmax] always hold the
    {e envelope} (the min of both minima, the max of both maxima), so
    every consumer that ignores the refinement is conservatively
    correct — the thesis's "use the longer of the two" rule.  On paths
    whose value behaviour is known (clocks), the evaluator applies the
    exact per-edge delays instead, which also handles multiple inverting
    levels of logic correctly: the delay is selected by the direction of
    the {e output} edge. *)

type t = private {
  dmin : Timebase.ps;
  dmax : Timebase.ps;
  rise_fall : ((Timebase.ps * Timebase.ps) * (Timebase.ps * Timebase.ps)) option;
      (** [(rise min/max, fall min/max)]: delay to an output rising
          edge, delay to an output falling edge *)
}

val make : Timebase.ps -> Timebase.ps -> t
(** Symmetric delay.  @raise Invalid_argument unless [0 <= dmin <= dmax]. *)

val of_ns : float -> float -> t
(** [of_ns min max] in nanoseconds. *)

val make_rise_fall :
  rise:Timebase.ps * Timebase.ps -> fall:Timebase.ps * Timebase.ps -> t
(** Asymmetric delay; [dmin]/[dmax] are set to the envelope.
    @raise Invalid_argument if either pair is not a valid range. *)

val of_rise_fall_ns : rise:float * float -> fall:float * float -> t

val rise_fall : t -> ((Timebase.ps * Timebase.ps) * (Timebase.ps * Timebase.ps)) option
(** The refinement, if the delay is asymmetric. *)

val zero : t

val add : t -> t -> t
(** Series composition: minima and maxima add; rise/fall refinements
    compose edge-wise when both sides carry them, and degrade to the
    envelope otherwise. *)

val scale : float -> t -> t
(** [scale f d] multiplies every bound by [f], rounding the minima down
    and the maxima up so the scaled range covers every delay the factor
    could physically produce; the rise/fall refinement is scaled
    edge-wise.  [scale 1.0 d] is physically [d] (the very same value),
    so the unscaled reference corner costs nothing.
    @raise Invalid_argument unless [f] is positive and finite, or when a
    scaled bound leaves the integer-picosecond domain
    ({!Timebase.max_ps}). *)

val spread : t -> Timebase.ps
(** [dmax - dmin]: the skew contributed by this delay. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Prints e.g. ["1.0/3.8"] (ns), or ["R1.0/2.0 F2.0/4.0"] when
    asymmetric. *)
