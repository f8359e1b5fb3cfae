(** The RK-4 time stepping driver (paper Algorithm 1) over the six
    model kernels, with pluggable execution engines.

    Engines differ exactly along the axes the paper studies:
    - [original]: the pre-refactoring code path — irregular reductions
      run in their scatter (edge/vertex-order) form, sequentially;
    - [refactored]: all loops in regularity-aware gather form
      (Algorithm 3), sequential;
    - [parallel pool]: the gather form with every pattern loop run on
      the domain pool — the "OpenMP" execution of the hybrid design. *)

open Mpas_mesh
open Mpas_par

type kernel =
  | Compute_tend
  | Enforce_boundary_edge
  | Compute_next_substep_state
  | Compute_solve_diagnostics
  | Accumulative_update
  | Mpas_reconstruct
  | Halo_exchange
      (** communication pseudo-kernel of the distributed runtime; never
          issued by the serial drivers and absent from [all_kernels] *)

val kernel_name : kernel -> string
val all_kernels : kernel list

type workspace = {
  provis : Fields.state;
  tend : Fields.tendencies;
  accum : Fields.state;
  diag : Fields.diagnostics;
  recon : Fields.reconstruction;
}

type engine = {
  gather : bool;  (** false = original scatter loops *)
  pool : Pool.t option;
  instrument : kernel -> (unit -> unit) -> unit;
      (** wraps every kernel invocation; default just runs it.  A
          custom step may invoke it concurrently from several domains,
          so replacement hooks paired with such an engine must be
          thread-safe (the Obs instrumentation of {!observed} is). *)
  custom : custom option;
      (** when set, {!step} hands the whole step to this function — the
          hook through which the dataflow task runtime
          ([Mpas_runtime.Engine]) plugs in without [Model], [Profile]
          or the benches changing.  The current engine is passed back
          in so instrumentation layered on afterwards
          ({!with_instrument}, {!observed}) is visible to the custom
          step. *)
}

and custom =
  engine ->
  Config.t ->
  Mesh.t ->
  b:float array ->
  recon:Reconstruct.t option ->
  dt:float ->
  state:Fields.state ->
  work:workspace ->
  unit

val original : engine
val refactored : engine
val parallel : Pool.t -> engine

(** Replace the instrumentation hook. *)
val with_instrument : engine -> (kernel -> (unit -> unit) -> unit) -> engine

(** Install a custom whole-step driver (see {!engine}.[custom]). *)
val with_custom : engine -> custom -> engine

(** [observed e] layers Obs instrumentation over [e]: every kernel
    invocation is timed into a [swe.kernel.<name>] histogram timer in
    [registry] (default: the process-wide registry) and wrapped in a
    trace span (category ["kernel"], arguments recording the kernel
    form — [layout] is ["csr"] for the gather engines and ["scatter"]
    for {!original} — and the pool width) when a trace sink is set.
    [e]'s own instrument hook keeps running inside the measurement, so
    observation composes with existing hooks instead of replacing
    them.  With the no-op sink the added cost per kernel call is one
    timer update. *)
val observed : ?registry:Mpas_obs.Metrics.t -> engine -> engine

(** [n_tracers] must match the state the workspace will serve. *)
val alloc_workspace : ?n_tracers:int -> Mesh.t -> workspace

(** Fill [work.diag] from [state] — must run once before the first
    [rk4_step]; every step keeps the diagnostics consistent with the
    state it leaves behind. *)
val init_diagnostics :
  engine -> Config.t -> Mesh.t -> dt:float -> state:Fields.state ->
  work:workspace -> unit

(** Advance [state] by one RK-4 step of size [dt].  [b] is the bottom
    topography at cells; [recon] runs the mpas_reconstruct kernel at
    the end of the step when provided. *)
val rk4_step :
  engine ->
  Config.t ->
  Mesh.t ->
  b:float array ->
  ?recon:Reconstruct.t ->
  dt:float ->
  state:Fields.state ->
  work:workspace ->
  unit ->
  unit

(** One step of the three-stage SSP RK-3 of Shu & Osher — the same
    kernels driven by a different loop (extension; see
    [Config.integrator]). *)
val ssprk3_step :
  engine ->
  Config.t ->
  Mesh.t ->
  b:float array ->
  ?recon:Reconstruct.t ->
  dt:float ->
  state:Fields.state ->
  work:workspace ->
  unit ->
  unit

(** Dispatch on [Config.integrator]. *)
val step :
  engine ->
  Config.t ->
  Mesh.t ->
  b:float array ->
  ?recon:Reconstruct.t ->
  dt:float ->
  state:Fields.state ->
  work:workspace ->
  unit ->
  unit
