(** High-level model driver: the three-phase MPAS running procedure
    (initialization, time-integration, finalization) for the
    shallow-water core. *)

open Mpas_mesh


type t = {
  mesh : Mesh.t;
  config : Config.t;
  b : float array;  (** bottom topography at cells *)
  state : Fields.state;
  work : Timestep.workspace;
  recon : Reconstruct.t;
  dt : float;
  mutable engine : Timestep.engine;
  mutable steps_taken : int;
}

(** Initialization phase: build the model from a Williamson test case.
    [dt] defaults to [Williamson.recommended_dt case mesh]; [tracers]
    rows (concentrations at cells) are advected alongside. *)
val init :
  ?config:Config.t ->
  ?dt:float ->
  ?engine:Timestep.engine ->
  ?tracers:float array array ->
  Williamson.case ->
  Mesh.t ->
  t

(** Raise [Invalid_argument] ["<who>: <what> (got n, expected m)"]
    unless [state.h], every tracer row and [b] have one entry per cell
    and [state.u] one per edge, or ["<who>: dt = x, need > 0"] unless
    [dt > 0].  The entry check of {!of_state} and
    [Mpas_dist.Driver.of_state]. *)
val check_inputs :
  who:string -> Mesh.t -> dt:float -> b:float array -> Fields.state -> unit

(** Initialization from explicit fields (copied).  Inputs are checked
    by {!check_inputs} before anything is allocated. *)
val of_state :
  ?config:Config.t ->
  ?engine:Timestep.engine ->
  dt:float ->
  b:float array ->
  Mesh.t ->
  Fields.state ->
  t

(** Switch execution engine mid-run (diagnostics are re-initialized so
    engines can be compared step-by-step). *)
val set_engine : t -> Timestep.engine -> unit

(** Run [n] RK-4 steps. *)
val run : t -> steps:int -> unit

(** Simulated time elapsed so far, seconds. *)
val time : t -> float

(** Current conserved quantities. *)
val invariants : t -> Conservation.t

(** Total height field [h + b] (the quantity plotted in Figure 5). *)
val total_height : t -> float array

(** Shut down the engine's pool, if any. *)
val with_parallel_engine : t -> n_domains:int -> (t -> 'a) -> 'a
