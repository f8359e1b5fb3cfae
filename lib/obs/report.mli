(** Measured-vs-roofline report: joins wall-clock per-kernel timings
    (from [Mpas_swe.Profile] / the [Obs] timers) with the
    [Mpas_machine.Costmodel] roofline predictions into one table of
    absolute times and measured/modelled ratios per kernel — the check
    of the paper's §II-C profiling step against the Table I cost
    model.

    Ratios are only meaningful in shape: the model is calibrated to
    the paper's Xeon, not to the machine the measurement ran on, so a
    uniform scale factor across kernels is expected; a kernel whose
    ratio stands off from the others is the anomaly worth chasing. *)

open Mpas_machine

type row = {
  kernel : string;  (** kernel name, e.g. "compute_tend" *)
  calls_per_step : int;
  measured_s : float;  (** measured seconds per step, all calls *)
  modelled_s : float;  (** roofline seconds per step, all calls *)
  ratio : float;  (** measured / modelled; [nan] when modelled = 0 *)
}

type t = {
  device : string;
  steps : int;  (** steps the measurement accumulated over *)
  rows : row list;  (** one row per kernel, Algorithm 1 order *)
}

(** [make ~stats ~steps measured] builds the table.  [measured] maps
    kernel names to total measured seconds over [steps] steps; kernels
    absent from the list report 0 measured time.  Defaults: the
    paper's Xeon E5-2680 v2, default parameters, [Costmodel.baseline]
    flags (matching a serial, single-thread measurement run). *)
val make :
  ?device:Hw.device ->
  ?params:Costmodel.params ->
  ?flags:Costmodel.flags ->
  stats:Mpas_patterns.Cost.mesh_stats ->
  steps:int ->
  (string * float) list ->
  t

val measured_total : t -> float
val modelled_total : t -> float

val to_string : t -> string

val to_json : t -> Mpas_obs.Jsonv.t

(** Inverse of {!to_json}.
    @raise Failure on a JSON shape mismatch. *)
val of_json : Mpas_obs.Jsonv.t -> t
