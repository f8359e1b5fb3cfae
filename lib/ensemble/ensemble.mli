(** Batch-serving engine: many concurrent shallow-water simulations per
    process, each member running the solo CSR kernels on its own
    arrays.

    One [t] owns a fixed-capacity pool of member slots over a single
    immutable mesh (and its CSR).  The layout is member-major:
    every slot owns plain [float array] fields — its state, the RK-4
    provisional and accumulator states, both tendencies, the twelve
    Table-I diagnostics and its topography — allocated on the slot's
    first {!submit} and reused after {!evict}.  A batch step calls, for
    every running member, the {!Mpas_swe.Operators} member kernels of
    the chains {!Mpas_swe.Timestep.refactored} runs, one kernel per
    task, with the member's own config scalars and [dt].  There is no second copy of
    any stencil, and a batched member-step costs about one solo step.

    Scheduling reuses the dataflow runtime: the RK-4 substep kernel
    chain compiles through {!Mpas_runtime.Batch} into phase programs
    whose parallel axis is the {e member block}, so any
    {!Mpas_runtime.Exec} mode (barrier, async, work stealing) spreads
    blocks over lanes.  Members are independent; blocks share no slots.

    Failure isolation: members only ever touch their own arrays, so a
    blow-up cannot poison neighbours.  After every step each running
    member's h and u are scanned; a non-finite value or non-positive
    thickness flips the member to [Failed] and drops it from the
    running mask — the batch keeps going without it.

    Per-member physics: each member carries its own [Config.t] subset
    (gravity, APVM, [visc2], bottom drag, advection order, PV average),
    time step, bottom topography and Coriolis field, which is how
    perturbed Williamson cases — including the rotated Coriolis
    variants — batch together.  A member with its own Coriolis field
    runs on a copy of the engine mesh record that differs only in
    [f_vertex] and shares the CSR ({!member_mesh}).
    Unsupported configuration (tracers, [visc4], non-RK4 integrators)
    is rejected at submit with counted got/expected messages, like
    [Exchange.exchange] arity errors.

    Every member's trajectory is bit-identical to a solo run of the
    refactored engine with the same config, [dt] and initial state. *)

open Mpas_mesh
open Mpas_swe
open Mpas_runtime
open Mpas_par

type t

type status = Running | Done | Failed of string

val status_name : status -> string

type info = {
  i_id : int;  (** the handle [submit] returned *)
  i_tenant : string;
  i_status : status;
  i_steps : int;  (** completed batch steps for this member *)
  i_target : int option;  (** steps after which the member is [Done] *)
}

(** [create mesh] builds an empty engine.

    [capacity] (default 64) is the member-slot count; a slot's arrays
    are allocated on its first {!submit}, so an engine that never
    admits a member holds no field memory.  [block] (default 8) is the
    member-block size, the unit of parallel scheduling, and nothing
    else.  [mode]/[pool]
    select the runtime execution mode (default [Sequential], no pool);
    [log] receives the executor's task log for race replay.
    [registry] is where observability lands (default
    [Mpas_obs.Metrics.default]).

    [interrupt] and [preempt] are the serving layer's fault and
    eviction hooks, both called on the orchestrating domain only:
    [interrupt ~phase ~substep] fires before each substep phase
    launches and may raise (the fault-injection harness's kernel-raise
    point); [preempt] is forwarded to {!Mpas_runtime.Batch.run} and
    aborts the phase with {!Exec.Preempted} when it returns [true].
    Either way the sweep is abandoned mid-step and the members' arrays
    are left dirty — the caller must restore every affected member (e.g.
    from a checkpoint) before stepping again. *)
val create :
  ?registry:Mpas_obs.Metrics.t ->
  ?capacity:int ->
  ?block:int ->
  ?mode:Exec.mode ->
  ?pool:Pool.t ->
  ?log:Exec.log ->
  ?interrupt:(phase:[ `Early | `Final ] -> substep:int -> unit) ->
  ?preempt:(unit -> bool) ->
  Mesh.t ->
  t

val capacity : t -> int
val block : t -> int
val mesh : t -> Mesh.t

(** Members currently occupying slots (any status), oldest first. *)
val members : t -> info list

(** Running members / capacity, in [0, 1]. *)
val occupancy : t -> float

(** [submit t ~b state] places a member in a free slot and returns its
    handle.  [state] (tracerless) and [b] must match the engine mesh;
    [f_vertex] (default the mesh's own) carries Coriolis variants;
    [config] must use the RK-4 integrator, no [visc4], no tracer rows.
    Initial diagnostics are computed immediately, as [Model.init] does.
    [target] stops the member with status [Done] after that many steps.
    @raise Invalid_argument with a counted got/expected message on any
    shape or config mismatch, or when the batch is full. *)
val submit :
  t ->
  ?tenant:string ->
  ?config:Config.t ->
  ?target:int ->
  ?f_vertex:float array ->
  dt:float ->
  b:float array ->
  Fields.state ->
  int

(** [submit_case t case] initializes a member from a Williamson test
    case on the engine's (spherical) mesh: state and topography from
    [Williamson.init], Coriolis from [Williamson.prepare_mesh] (the
    rotated cases differ only there), [dt] defaulting to
    [Williamson.recommended_dt]. *)
val submit_case :
  t ->
  ?tenant:string ->
  ?config:Config.t ->
  ?dt:float ->
  ?target:int ->
  Williamson.case ->
  int

(** Advance every [Running] member by [n] RK-4 steps (default 1).
    Members that reach their target or fail drop out between steps. *)
val step : t -> ?n:int -> unit -> unit

(** @raise Not_found for ids never issued or already evicted. *)
val query : t -> int -> info

(** Copy out a member's prognostic state (tracerless). *)
val state : t -> int -> Fields.state

(** Overwrite a member's prognostic state in place (warm restart /
    perturbation injection) and recompute its diagnostics.  A [Failed]
    or [Done] member returns to [Running] with its step count kept.
    @raise Invalid_argument on shape mismatch, [Not_found] on a bad id. *)
val set_state : t -> int -> Fields.state -> unit

(** Free the member's slot; its arrays stay allocated for the next
    {!submit} to reuse.  @raise Not_found on a bad id. *)
val evict : t -> int -> unit

(** The mesh record the member's kernels run on: the engine's {!mesh},
    or, for a member with its own Coriolis field, a copy differing only
    in [f_vertex] whose {!Mesh.csr} is physically the engine mesh's.
    @raise Not_found on a bad id. *)
val member_mesh : t -> int -> Mesh.t

(** {2 Introspection for the static checkers} *)

(** The compiled member-axis phase programs (early runs substeps 0-2,
    final substep 3); passes [Spec.check]. *)
val spec : t -> Spec.t

type rw = Read | Write | Update

type access = { a_slot : string; a_point : Mpas_patterns.Pattern.point; a_rw : rw }

(** Declared slot accesses of one task.  Slot names are qualified by
    member block (["tend_u@b3"]), so tasks of different blocks share no
    slots — the member axis is conflict-free by construction, which
    [Analysis.Ens] verifies rather than assumes. *)
val task_accesses : t -> [ `Early | `Final ] -> task:int -> access list
