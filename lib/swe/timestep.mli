(** The RK-4 time stepping driver (paper Algorithm 1) over the six
    model kernels, with pluggable execution engines.

    Engines differ exactly along the axes the paper studies:
    - [original]: the pre-refactoring code path — irregular reductions
      run in their scatter (edge/vertex-order) form, sequentially, one
      kernel after another;
    - [refactored]: all loops in regularity-aware gather form
      (Algorithm 3), run as the fused chain order of the runtime's
      planner ({!rk4_sweep} over one rank with the full spans),
      sequential;
    - [parallel pool]: the same chain order with every chain chunked
      over the domain pool — the "OpenMP" execution of the hybrid
      design.

    The RK-4 step is written once ({!rk4_sweep}), over an array of
    {!rank}s: the solo engines pass one rank and no exchange, the
    distributed driver ([Mpas_dist.Driver]) its ranks and a halo
    exchange; [original] runs the same step with its scatter kernels
    in each phase.  A fused chain
    is timed under its head kernel's family, so the accumulative update
    riding the tend or diagnostics chains and the boundary mask riding
    [tend_u_chain] read near zero under their own names. *)

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

(** {1 Rank-local sweeps} *)

(** Where a halo-exchanged field lives. *)
type halo = Cells | Edges | Vertices

(** One rank of a sweep: the span sets it computes on and the arrays it
    owns.  Every kernel writes exactly the rank's spans; entries
    outside them are read only where a neighbouring stencil needs them,
    after the exchange that fills them. *)
type rank = {
  cells : Span.t;
  edges : Span.t;
  vertices : Span.t;
  state : Fields.state;
  work : workspace;
}

(** [exchange loc field] makes every rank's [field r] agree with the
    owner's value on the entries the rank reads but does not own.  The
    sweep calls it after every kernel whose output another rank's
    stencil reads (paper Figures 2/4: "Exchange halo"). *)
type exchange = halo -> (rank -> float array) -> unit

(** Fill every rank's diagnostics from its [state], in the chain
    order's compute_solve_diagnostics. *)
val diagnose :
  engine -> Config.t -> Mesh.t -> dt:float -> ?exchange:exchange ->
  rank array -> unit

(** One RK-4 step on every rank.  The gather engines run the runtime
    planner's fused chain order: per substep [A1], [B1 C1 X1 X2], X3,
    [H2 A2 A3 X4], [B2 G X5], [D1 C2 D2], E, [H1 F]; the final substep
    carries X4/X5 (publishing the new state) on the tend chains instead.
    [original] (one full-range rank only) runs its scatter kernels one
    after another in the same phases, with X2 and X4/X5 as their own
    phases (paper Algorithm 1).  Tracers and
    del-4 diffusion run as their own kernels in between.  Halo
    exchanges: 10 per substep at fourth-order thickness advection, plus
    3 with del-4 diffusion and 2 per tracer; without [exchange] (one
    rank) there are none.  Bitwise equal, on each rank's spans, to the
    unfused kernel sequence. *)
val rk4_sweep :
  engine ->
  Config.t ->
  Mesh.t ->
  b:float array ->
  ?recon:Reconstruct.t ->
  dt:float ->
  ?exchange:exchange ->
  rank array ->
  unit

(** {1 Solo drivers} *)

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
