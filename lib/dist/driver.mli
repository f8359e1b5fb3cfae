(** Distributed (simulated-MPI) execution of the shallow-water model.

    Each rank owns a patch of the partition and holds its own copy of
    every field array, valid only on its owned + ghost entities.  A
    step is [Timestep.rk4_sweep] — the very chain order
    [Timestep.refactored] runs solo — over the ranks' owned span sets,
    with an {!Exchange.exchange} after each chain whose output a
    neighbouring rank reads (40 per step on the default fourth-order
    configuration).  The driver keeps no kernel sequence of its own.
    Because the gather loops compute each output item independently,
    the distributed run is {e bitwise} identical to the serial run on
    every owned entity — the reproduction of the paper's multi-process
    correctness, with the exchange structure of its Figures 2/4.

    No real MPI is involved (DESIGN.md §3): ranks execute round-robin
    in one process, which preserves all data dependencies of a true MPI
    execution, and the [Exchange] layer records the traffic a real run
    would ship. *)

open Mpas_mesh
open Mpas_swe

type t = {
  mesh : Mesh.t;
  config : Config.t;
  b : float array;
  exchange : Exchange.t;
  recon : Reconstruct.t;
  dt : float;
  states : Fields.state array;  (** per rank *)
  provis : Fields.state array;
  tends : Fields.tendencies array;
  accums : Fields.state array;
  diags : Fields.diagnostics array;
  recons : Fields.reconstruction array;
  ranks : Timestep.rank array;
      (** each rank's owned span sets over the arrays above, as
          [Timestep.rk4_sweep] runs them *)
  mutable steps_taken : int;
}

(** Initialize from a Williamson case over an SFC partition into
    [n_ranks] ranks; [tracers] rows are advected alongside. *)
val init :
  ?config:Config.t -> ?dt:float -> ?tracers:float array array ->
  n_ranks:int -> Williamson.case -> Mesh.t -> t

(** Initialize from explicit fields (copied to every rank), after
    [Model.check_inputs]. *)
val of_state :
  ?config:Config.t ->
  n_ranks:int ->
  dt:float ->
  b:float array ->
  Mesh.t ->
  Fields.state ->
  t

(** Advance one RK-4 step on all ranks. *)
val step : t -> unit

val run : t -> steps:int -> unit

(** Assemble the global state from the owned entries of every rank. *)
val gather_state : t -> Fields.state

(** Debug helper: overwrite every array entry a rank neither owns nor
    ghosts with NaN.  If the kernels respect the ownership discipline,
    subsequent steps still produce NaN-free owned values (tested). *)
val poison_invisible : t -> unit

(** True when no owned entry of any rank is NaN. *)
val owned_values_finite : t -> bool
