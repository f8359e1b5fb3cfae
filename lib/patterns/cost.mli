(** Work model per pattern instance: flop and memory-traffic counts as
    a function of mesh size.  These drive the roofline cost model of
    the performance simulator (DESIGN.md §3, §6).

    Counts are derived from the refactored (gather) loop bodies of
    [Mpas_swe.Operators]: per output item, the number of floating-point
    operations and the bytes of double and index traffic.  They are
    estimates of the {e shape} of the work — what matters downstream is
    the relative weight of instances and their arithmetic intensity,
    not exact instruction counts. *)

type mesh_stats = {
  n_cells : int;
  n_edges : int;
  n_vertices : int;
  mean_edges_per_cell : float;  (** < 6 because of the 12 pentagons *)
  mean_edges_on_edge : float;  (** ~10 *)
}

(** Analytic stats of the icosahedral grid at a bisection level; usable
    for meshes too large to build (Table III's 15-km mesh). *)
val stats_of_level : int -> mesh_stats

(** Stats measured from a built mesh. *)
val stats_of_mesh : Mpas_mesh.Mesh.t -> mesh_stats

(** The four paper meshes of Table III: level and resolution name. *)
val table3_meshes : (string * int) list

type work = {
  items : float;  (** loop iterations (output points) *)
  flops : float;  (** floating-point operations, total *)
  bytes : float;  (** memory traffic, total, read + write *)
}

val zero_work : work
val add_work : work -> work -> work

(** Work of one instance on a mesh, counted for the packed CSR
    connectivity every kernel walks.
    @raise Not_found for ids absent from the registry. *)
val instance_work : mesh_stats -> string -> work

(** Total work of one kernel. *)
val kernel_work : mesh_stats -> Pattern.kernel -> work

(** Work of a whole RK-4 step: each kernel weighted by how many times
    Algorithm 1 runs it per step (4 for the tendency/diagnostics
    kernels, 3 for next_substep_state, 1 for the reconstruction). *)
val rk4_step_work : mesh_stats -> work

(** How many times Algorithm 1 runs each kernel per time step. *)
val kernel_calls_per_step : Pattern.kernel -> int

(** Bytes of one field living at the given point type (doubles). *)
val field_bytes : mesh_stats -> Pattern.point -> float
