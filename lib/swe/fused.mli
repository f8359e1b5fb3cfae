open Mpas_mesh

(** Fused super-kernels for the task runtime.

    Each function executes a legal kernel chain — as packed by the
    runtime's spec-level fusion planner — over one contiguous tile
    [lo, hi) of its index space, so a stolen or tiled task sweeps its
    slice of every member once while the intermediates are cache-hot.
    Values a member point-reads from the previous member's output are
    carried in registers, but every member output array is still
    written in full, keeping the chain's union footprint observable to
    the analysis layer.

    All results are bit-identical to running the member kernels of
    {!Operators} back to back over the same range: the fused loops
    walk the same CSR rows in the same order and keep each member's
    floating-point operation order.

    The [x4]/[x5] accumulator triples are
    [(coef, accumulator, publish)]: the accumulative-update member
    adds [coef *] the fresh tendency into the accumulator and, in the
    final substep ([publish = Some state_field]), stores the result
    into the state as well. *)

val tend_h_chain :
  Mesh.t ->
  h_edge:float array ->
  u:float array ->
  out:float array ->
  x4:(float * float array * float array option) option ->
  lo:int ->
  hi:int ->
  unit
(** A1 [+X4] over cells. *)

val tend_u_chain :
  Mesh.t ->
  pv_average:Config.pv_average ->
  gravity:float ->
  h:float array ->
  b:float array ->
  ke:float array ->
  h_edge:float array ->
  u:float array ->
  pv_edge:float array ->
  out:float array ->
  dissip:(float * float array * float array) option ->
  drag:float ->
  boundary:bool ->
  x5:(float * float array * float array option) option ->
  lo:int ->
  hi:int ->
  unit
(** B1 [+C1] [+X1] [+X2] [+X5] over edges.  [dissip] is
    [(visc2, divergence, vorticity)] (pass [None] when visc2 = 0,
    matching C1's gate); [drag = 0.] and [boundary = false] likewise
    make X1/X2 no-ops. *)

val diag_cells_chain :
  Mesh.t ->
  h:float array ->
  u:float array ->
  d2:float array option ->
  ke_out:float array option ->
  div_out:float array option ->
  x4:(float * float array * float array option) option ->
  tend_h:float array ->
  lo:int ->
  hi:int ->
  unit
(** [H2] [+A2] [+A3] [+X4] over cells, sharing one cell-edge row walk.
    [d2 = None] when the advection order is second (H2 no-op). *)

val diag_edges_chain :
  Mesh.t ->
  order:Config.h_adv_order ->
  h:float array ->
  d2fdx2_cell:float array ->
  h_edge_out:float array ->
  g:(float array * float array) option ->
  x5:(float * float array * float array option) option ->
  tend_u:float array ->
  lo:int ->
  hi:int ->
  unit
(** B2 [+G] [+X5] over edges.  [g] is [(u, v_tangential_out)]. *)

val vortex_chain :
  Mesh.t ->
  u:float array ->
  h:float array ->
  vort_out:float array ->
  hv_out:float array option ->
  pv_out:float array option ->
  lo:int ->
  hi:int ->
  unit
(** D1 [+C2] [+D2] over vertices.  [pv_out] requires [hv_out]. *)

val pv_edge_chain :
  Mesh.t ->
  g:(float array * float array) option ->
  pv_cell:float array ->
  pv_vertex:float array ->
  gn_out:float array ->
  gt_out:float array ->
  f:(float * float * float array * float array * float array) option ->
  lo:int ->
  hi:int ->
  unit
(** [G+] H1 [+F] over edges.  [g] is [(u, v_tangential_out)]; [f] is
    [(apvm_factor, dt, u, v_tangential, pv_edge_out)]. *)
