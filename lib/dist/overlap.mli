(** Overlapped distributed driver: halo communication as first-class
    runtime DAG tasks.

    The classic {!Driver} is bulk-synchronous — every "Exchange halo"
    box is a barrier between whole-rank kernel sweeps.  This driver
    compiles one RK-4 step of the same per-rank arrays into a
    {!Mpas_runtime.Spec} program in which every kernel instance is
    split, per rank, into an {e interior} and a {e boundary} task
    ({!Exchange.classify}, paper §IV's transfer overlap) and every
    halo exchange into [Pack] / [Exchange] / [Unpack] tasks
    ({!Mpas_runtime.Spec.kind}).  Edges make

    {v boundary compute -> pack -> transfer -> unpack -> consumer v}

    real hazard edges while interior compute carries no edge to the
    wire, so any {!Mpas_runtime.Exec} mode may run interior sweeps
    while ghosts are in flight.  Task bodies are the CSR kernels of
    {!Mpas_runtime.Bind} restricted to the region span sets plus the
    plain-copy comm bodies, so a step is {e bitwise} identical to
    [Driver.step] on every owned entity.

    Dependences are generated from a last-writer/readers table over
    region-resolved keys (variable at rank × interior/boundary/ghost,
    plus the staging buffers); the same region sets are exported as
    declared footprints ({!accesses}) so {!Mpas_analysis} can verify
    the program and replay its logs. *)

open Mpas_swe
open Mpas_patterns
module Spec = Mpas_runtime.Spec
module Exec = Mpas_runtime.Exec

type t

(** Declared footprint fragment of one task: span sets read and
    written in the array slot [a_slot] (length [a_size], living at
    [a_point]).  Slots are per-rank field views (["r2:provis_h"]) or
    staging buffers (["sbuf:provis_h@2"], ["rbuf:provis_h@2"]).  One
    task lists several fragments, possibly repeating a slot. *)
type access = {
  a_slot : string;
  a_point : Pattern.point;
  a_size : int;
  a_reads : Mpas_par.Span.t list;
  a_writes : Mpas_par.Span.t list;
}

(** True when the driver's configuration is expressible as an
    overlapped program: no tracers and no biharmonic diffusion (their
    exchanges are data-dependent extensions the task program does not
    model yet). *)
val handles : Driver.t -> bool

(** [of_driver d] compiles the overlapped program over [d]'s per-rank
    arrays; [d] remains the owner of all state ([gather_state],
    [steps_taken] and the traffic stats stay coherent, and classic and
    overlapped steps may be interleaved).  [mode] (default [Async])
    and [pool] choose the executor; [log] collects {!Exec.entry}
    records; [depth] (default 1) widens the boundary band.
    @raise Invalid_argument when {!handles} is false or [depth < 1]. *)
val of_driver :
  ?mode:Exec.mode ->
  ?pool:Mpas_par.Pool.t ->
  ?log:Exec.log ->
  ?depth:int ->
  Driver.t ->
  t

(** Advance one RK-4 step (three early phase runs + one final). *)
val step : t -> unit

val run : t -> steps:int -> unit

(** {!Driver.gather_state} of the backing driver. *)
val gather_state : t -> Fields.state

val driver : t -> Driver.t
val spec : t -> Spec.t
val splits : t -> Exchange.split array
val depth : t -> int

(** Task bodies / declared footprints, aligned with the phase's
    [tasks] array — the analysis side's replay and footprint input. *)
val bodies : t -> [ `Early | `Final ] -> (unit -> unit) array

val accesses : t -> [ `Early | `Final ] -> access list array

(** The per-rank array a comm task of [field] touches (its [cm_field]
    / [cm_rank]); used by the analyzer's comm-chain shadow check.
    @raise Invalid_argument for a field never exchanged. *)
val field_array : Driver.t -> field:string -> rank:int -> float array
