open Mpas_par
open Mpas_swe

(** The task runtime packaged as a {!Mpas_swe.Timestep.engine}: builds
    the phase programs ({!Spec}), compiles them against the live model
    arrays ({!Bind}), and drives the executor ({!Exec}) through
    [Timestep]'s custom-step hook — [Model], [Profile], the benches and
    [Timestep.observed] all run unchanged on top.

    Steps are bit-identical to the sequential [Timestep.refactored]
    engine for every mode, pool size, plan and split: tasks evaluate
    the same floating-point expressions over disjoint index sets, and
    the spec's edges serialize every pair that shares data.

    Configurations outside the task program — SSP RK-3, tracers,
    biharmonic diffusion — fall back to the classic driver (on the
    engine's pool), so the wrapper is safe as a drop-in default. *)

type t

(** How part tasks are tiled into cache-sized blocks.  [`Auto] sizes
    the block from the private L2 of the paper's host CPU model
    ({!Mpas_machine.Hw.xeon_e5_2680_v2}, a fixed constant, not a probe
    of the running machine) via {!Mpas_machine.Hw.tile_elements},
    capped so no space is cut into more than ~2 tiles per core the OS
    reports ([Domain.recommended_domain_count]) — finer tiles add
    scheduler overhead without locality or stealable parallelism.
    [`Block n] forces [n] loop elements per tile. *)
type tiling = [ `Off | `Auto | `Block of int ]

(** [create ()] builds a runtime engine.

    - [mode] (default [Async]): see {!Exec.mode}.
    - [pool]: worker lanes; absent = single lane.
    - [plan]: a {!Mpas_hybrid.Plan} assigning instances to host or
      device lanes, [Adjustable] ones split by [split].
    - [split] (default 0.5): host fraction of adjustable instances;
      must lie in [0, 1].
    - [host_lanes]: lanes reserved for host-class tasks (default: all
      without a plan, half with one, at least 1).  The rest serve
      device-class tasks.
    - [fuse] (default false): fuse legal kernel chains into
      super-tasks at compile time ({!Spec.build}'s [fuse]); fused
      chains compile to the chain loops of {!Mpas_swe.Operators}
      ([tend_h_chain] and friends), which call the same per-element
      stencil bodies as the solo kernels.
    - [tiling] (default [`Off]): tile tasks into cache-sized blocks.
    - [log]: executor log receiving every retired task.

    Raises [Invalid_argument] when [split] is out of range, a [`Block]
    tile is below 1, [host_lanes] exceeds the pool, or the plan places
    work on the device while no lane is left to serve it. *)
val create :
  ?mode:Exec.mode ->
  ?pool:Pool.t ->
  ?plan:Mpas_hybrid.Plan.t ->
  ?split:float ->
  ?host_lanes:int ->
  ?fuse:bool ->
  ?tiling:tiling ->
  ?log:Exec.log ->
  unit ->
  t

val mode : t -> Exec.mode
val split : t -> float
val host_lanes : t -> int
val fused : t -> bool

(** The phase programs the engine last compiled (None before the first
    step).  This is the exact spec the executor ran — log replay
    checkers should validate against it rather than rebuilding one. *)
val program : t -> Spec.t option

(** The [Timestep] engine driving this runtime (CSR gather layout, the
    runtime's pool, the custom step installed).  Compose with
    {!Timestep.with_instrument} / {!Timestep.observed} as usual. *)
val timestep_engine : t -> Timestep.engine

(** True when the runtime's task program would handle this
    configuration itself rather than falling back to the classic
    driver. *)
val handles : Config.t -> Fields.state -> bool
