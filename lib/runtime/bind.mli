open Mpas_mesh
open Mpas_par
open Mpas_swe

(** The kernel binding table: every pattern instance of
    {!Mpas_patterns.Registry} compiled to a closure over the real SWE
    kernel bodies ({!Mpas_swe.Operators}, {!Mpas_swe.Reconstruct}).

    Bodies run {e without} a pool: a task executes entirely on the
    worker lane that popped it.  Full-range tasks walk the whole output
    range, part-range tasks the part's span set (one span; no index
    array is built), fused chain heads included — all bit-identical to
    the sequential [Timestep.refactored] engine. *)

(** Everything a step's closures capture.  [rk] is mutated by the
    engine between substeps; closures read it at call time, so one
    compiled program serves all four substeps. *)
type env = {
  cfg : Config.t;
  mesh : Mesh.t;
  b : float array;
  dt : float;
  state : Fields.state;
  work : Timestep.workspace;
  recon : Reconstruct.t option;
  mutable rk : int;
}

(** The span a part fraction covers in a space of [n] indices:
    [\[round (f0 n), round (f1 n))] as a set with one span (or none) —
    complementary fractions tile the space exactly. *)
val part_range : n:int -> float * float -> Span.t

(** Pattern kernels and Timestep kernels mirror each other; the runtime
    reports through [Timestep]'s instrument hook. *)
val timestep_kernel : Mpas_patterns.Pattern.kernel -> Timestep.kernel

(** Index-range length of a mesh-point space. *)
val space_size : Mesh.t -> Mpas_patterns.Pattern.point -> int

(** [compile_on env ~final ~on_cells ~on_edges ~on_vertices inst]
    compiles one instance over explicit span sets instead of part
    fractions — the form the distributed overlap driver uses to run
    each instance once per rank per interior/boundary region.  An
    instance with a single iteration space takes the subset of that
    space; X3/X4/X5 take [on_cells]/[on_edges] directly. *)
val compile_on :
  env ->
  final:bool ->
  on_cells:Span.t ->
  on_edges:Span.t ->
  on_vertices:Span.t ->
  Mpas_patterns.Pattern.instance ->
  unit ->
  unit

(** {2 Communication bodies}

    Buffer copies over precomputed ghost maps, used by
    [Mpas_dist.Overlap] to compile [Spec.Pack]/[Exchange]/[Unpack]
    tasks.  Together they perform bitwise the same per-entity copy as
    [Mpas_dist.Exchange.exchange], split into schedulable thirds. *)

(** [pack_body ~src ~send ~buf ()] copies [src.(send.(j))] into
    [buf.(j)]. *)
val pack_body : src:float array -> send:int array -> buf:float array -> unit -> unit

(** [transfer_body ~sbufs ~rbufs ()] blits every rank's send buffer
    into its receive mirror — the simulated wire. *)
val transfer_body :
  sbufs:float array array -> rbufs:float array array -> unit -> unit

(** [unpack_body ~dst ~ghosts ~from_rank ~from_off ~rbufs ()] writes
    [rbufs.(from_rank.(j)).(from_off.(j))] into [dst.(ghosts.(j))] —
    the owner's packed value into this rank's ghost slot. *)
val unpack_body :
  dst:float array ->
  ghosts:int array ->
  from_rank:int array ->
  from_off:int array ->
  rbufs:float array array ->
  unit ->
  unit

(** [compile env ~final task] resolves the task's instance id to its
    kernel body over [env].  [final] selects the last-substep variants:
    diagnostics and reconstruction read [env.state] instead of the
    provisional fields, and X4/X5 additionally publish their slice of
    the accumulator into [env.state].  A fused task (more than one
    [members] entry) compiles to one closure running the chain
    back-to-back over the task's tile, using the chain loops of
    {!Mpas_swe.Operators} for recognized chain shapes and the
    member-sequential bodies otherwise — both bit-identical to the
    unfused program.  Raises [Invalid_argument] for an id outside the
    registry or a reconstruction task without [env.recon]. *)
val compile : env -> final:bool -> Spec.task -> unit -> unit
