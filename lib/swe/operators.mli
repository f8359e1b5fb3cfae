(** The computation-pattern kernels of the shallow-water model.

    Every function implements one pattern instance of the paper's
    Table I.  Instances that are irregular reductions in the original
    MPAS code (edge- or vertex-order loops scattering into cell or
    vertex arrays, paper Algorithm 2) come in two equivalent forms:

    - [*_scatter]: the original loop order, sequential only — running
      it concurrently would race exactly as the paper describes;
    - the gather form (paper Algorithm 3 after regularity-aware loop
      refactoring): output-order loops that only read neighbours, safe
      to execute in parallel, hence the optional [?pool].

    Regular loops (already output-ordered) only have the gather form.
    All functions write their full output range, so no zeroing is
    needed between steps.

    Every gather stencil writes its per-element work once, as a
    top-level [[@inline always]] body in [operators.ml] that takes the
    packed {!Mesh.csr} tables and geometry arrays as arguments and
    indexes them unchecked; the view is validated once when it is
    built, caller fields by a length check at entry.  Each kernel has
    one loop header, [for i = lo to hi - 1], fed by {!range}: the full
    range is one run, a span set ([?on], {!Mpas_par.Span}) one run per
    span, so the rank-local walk of the distributed driver is the same
    straight loop as the full-range walk.  Every fused chain (below)
    that contains the stencil calls the same body under the same
    runner.  A span set reaching past the output range raises
    [Invalid_argument] before anything is written.  The
    [Mpas_gen.Stencil] executor, running the matching
    [Mpas_gen.Library] spec, is the reference these kernels are pinned
    to bit for bit. *)

open Mpas_mesh
open Mpas_par

(** [range ?chunk pool ?on n body] hands [body ~lo ~hi] index runs
    covering the full range [\[0, n)] or, with [on], the span set:
    one call per span without a pool, chunks of at most [chunk]
    positions with one.  Every kernel and chain loops inside [body], so
    no walk makes a call per element. *)
val range :
  ?chunk:int ->
  Pool.t option ->
  ?on:Span.t ->
  int ->
  (lo:int -> hi:int -> unit) ->
  unit

(** Every kernel accepts [?on]: when given, the loop runs over exactly
    that span set instead of the full output range — the rank-local
    compute sets of the distributed execution engine ([Mpas_dist]) and
    the part tasks of the runtime. *)

(** {1 compute_solve_diagnostics instances} *)

(** H2: cell Laplacian of thickness, input to the fourth-order
    thickness interpolation. *)
val d2fdx2 :
  ?pool:Pool.t -> ?on:Span.t -> Mesh.t -> h:float array ->
  out:float array -> unit

val d2fdx2_scatter : Mesh.t -> h:float array -> out:float array -> unit

(** B2: thickness at edges; [Fourth] applies the [d2fdx2]
    correction. *)
val h_edge :
  ?pool:Pool.t ->
  ?on:Span.t ->
  Mesh.t ->
  order:Config.h_adv_order ->
  h:float array ->
  d2fdx2_cell:float array ->
  out:float array ->
  unit

(** A2: kinetic energy at cells, [ke = (1/A) sum 1/4 dc dv u^2]. *)
val kinetic_energy :
  ?pool:Pool.t -> ?on:Span.t -> Mesh.t -> u:float array ->
  out:float array -> unit

val kinetic_energy_scatter : Mesh.t -> u:float array -> out:float array -> unit

(** A3: velocity divergence at cells. *)
val divergence :
  ?pool:Pool.t -> ?on:Span.t -> Mesh.t -> u:float array ->
  out:float array -> unit

val divergence_scatter : Mesh.t -> u:float array -> out:float array -> unit

(** D1: relative vorticity (circulation / triangle area) at vertices. *)
val vorticity :
  ?pool:Pool.t -> ?on:Span.t -> Mesh.t -> u:float array ->
  out:float array -> unit

val vorticity_scatter : Mesh.t -> u:float array -> out:float array -> unit

(** C2: thickness at vertices, kite-area weighted. *)
val h_vertex :
  ?pool:Pool.t -> ?on:Span.t -> Mesh.t -> h:float array ->
  out:float array -> unit

(** D2: potential vorticity at vertices,
    [(f + vorticity) / h_vertex]. *)
val pv_vertex :
  ?pool:Pool.t ->
  ?on:Span.t ->
  Mesh.t ->
  vorticity:float array ->
  h_vertex:float array ->
  out:float array ->
  unit

(** E: potential vorticity averaged to cells (kite weights). *)
val pv_cell :
  ?pool:Pool.t -> ?on:Span.t -> Mesh.t -> pv_vertex:float array ->
  out:float array -> unit

val pv_cell_scatter :
  Mesh.t -> pv_vertex:float array -> out:float array -> unit

(** G: tangential velocity from the TRiSK weights. *)
val tangential_velocity :
  ?pool:Pool.t -> ?on:Span.t -> Mesh.t -> u:float array ->
  out:float array -> unit

(** H1: PV gradients at edges (normal from [pv_cell], tangential from
    [pv_vertex]), inputs of the APVM upwinding. *)
val grad_pv :
  ?pool:Pool.t ->
  ?on:Span.t ->
  Mesh.t ->
  pv_cell:float array ->
  pv_vertex:float array ->
  out_n:float array ->
  out_t:float array ->
  unit

(** F: potential vorticity at edges: vertex average plus the
    anticipated-PV correction
    [- apvm * dt * (u grad_n + v grad_t)]. *)
val pv_edge :
  ?pool:Pool.t ->
  ?on:Span.t ->
  Mesh.t ->
  apvm_factor:float ->
  dt:float ->
  pv_vertex:float array ->
  grad_pv_n:float array ->
  grad_pv_t:float array ->
  u:float array ->
  v_tangential:float array ->
  out:float array ->
  unit

(** {1 compute_tend instances} *)

(** A1: thickness tendency, [-div(h_edge u)]. *)
val tend_h :
  ?pool:Pool.t ->
  ?on:Span.t ->
  Mesh.t ->
  h_edge:float array ->
  u:float array ->
  out:float array ->
  unit

val tend_h_scatter :
  Mesh.t -> h_edge:float array -> u:float array -> out:float array -> unit

(** B1: momentum tendency,
    [q_e Fperp_e - grad (g (h + b) + ke)] with the energy-conserving
    symmetric PV average [0.5 (q_e + q_e')] inside the perp flux. *)
val tend_u :
  ?pool:Pool.t ->
  ?on:Span.t ->
  ?pv_average:Config.pv_average ->
  Mesh.t ->
  gravity:float ->
  h:float array ->
  b:float array ->
  ke:float array ->
  h_edge:float array ->
  u:float array ->
  pv_edge:float array ->
  out:float array ->
  unit

(** C1: Laplacian momentum diffusion added into [tend_u]:
    [+ visc2 (grad divergence - curl vorticity)].  No-op when
    [visc2 = 0]. *)
val dissipation :
  ?pool:Pool.t ->
  ?on:Span.t ->
  Mesh.t ->
  visc2:float ->
  divergence:float array ->
  vorticity:float array ->
  tend_u:float array ->
  unit

(** X1: local momentum forcing (linear bottom drag) added into
    [tend_u].  No-op when [drag = 0]. *)
val local_forcing :
  ?pool:Pool.t -> ?on:Span.t -> Mesh.t -> drag:float -> u:float array ->
  tend_u:float array -> unit

(** {1 remaining kernels} *)

(** X2 (enforce_boundary_edge): zero the tendency on boundary edges. *)
val enforce_boundary_edge :
  ?pool:Pool.t -> ?on:Span.t -> Mesh.t -> tend_u:float array -> unit

(** X3 (compute_next_substep_state): [provis = base + coef * tend]. *)
val next_substep_state :
  ?pool:Pool.t ->
  ?on_cells:Span.t ->
  ?on_edges:Span.t ->
  Mesh.t ->
  coef:float ->
  base:Fields.state ->
  tend:Fields.tendencies ->
  provis:Fields.state ->
  unit

(** X4 + X5 (accumulative_update): [accum += coef * tend]; with
    [publish] (the final substep) the sums are stored into
    [publish.h]/[publish.u] as well. *)
val accumulate :
  ?pool:Pool.t ->
  ?on_cells:Span.t ->
  ?on_edges:Span.t ->
  ?publish:Fields.state ->
  Mesh.t ->
  coef:float ->
  tend:Fields.tendencies ->
  accum:Fields.state ->
  unit

(** {1 Extensions beyond the paper's Table I}

    Tracer transport and biharmonic diffusion, present in the MPAS
    shallow-water code but outside the paper's pattern inventory; they
    reuse the same stencil shapes (tracer flux divergence is A-shaped,
    the edge reconstruction B-shaped, del-4 a repeated C1). *)

(** Tracer concentration at edges. *)
val tracer_edge :
  ?pool:Pool.t -> ?on:Span.t -> Mesh.t -> scheme:Config.tracer_adv ->
  tracer:float array -> u:float array -> out:float array -> unit

(** Tendency of [h * tracer]: [-div(h_edge tracer_edge u)].  With a
    constant tracer this reduces exactly to [tend_h], so constants are
    preserved to machine precision (compatibility with continuity). *)
val tend_tracer :
  ?pool:Pool.t -> ?on:Span.t -> Mesh.t -> h_edge:float array ->
  u:float array -> tracer_edge:float array -> out:float array -> unit

val tend_tracer_scatter :
  Mesh.t -> h_edge:float array -> u:float array -> tracer_edge:float array ->
  out:float array -> unit

(** Vector Laplacian of the velocity at edges,
    [grad(div) - curl(vorticity)]. *)
val velocity_laplacian :
  ?pool:Pool.t -> ?on:Span.t -> Mesh.t -> divergence:float array ->
  vorticity:float array -> out:float array -> unit

(** Biharmonic diffusion: [tend_u -= visc4 * lap(lap_u)], where
    [div_lap]/[vort_lap] are divergence and vorticity of the velocity
    Laplacian.  No-op when [visc4 = 0]. *)
val del4_dissipation :
  ?pool:Pool.t -> ?on:Span.t -> Mesh.t -> visc4:float ->
  div_lap:float array -> vort_lap:float array -> tend_u:float array -> unit

(** [provis.tracers = (base.h * base.tracers + coef * tend) / provis.h];
    [provis.h] must already hold the sub-step thickness. *)
val next_substep_tracers :
  ?pool:Pool.t -> ?on:Span.t -> Mesh.t -> coef:float ->
  base:Fields.state -> tend:Fields.tendencies -> provis:Fields.state -> unit

(** Store [h * tracer] into the accumulator rows. *)
val seed_tracer_accumulator :
  ?pool:Pool.t -> ?on:Span.t -> Mesh.t -> state:Fields.state ->
  accum:Fields.state -> unit

(** [accum_rows += coef * tend] (conservative form). *)
val accumulate_tracers :
  ?pool:Pool.t -> ?on:Span.t -> Mesh.t -> coef:float ->
  tend:Fields.tendencies -> accum:Fields.state -> unit

(** Store the accumulator's [h * tracer] rows into the state as
    concentrations, dividing by the updated [state.h]. *)
val finalize_tracers :
  ?pool:Pool.t -> ?on:Span.t -> Mesh.t -> accum:Fields.state ->
  state:Fields.state -> unit

(** Affine state blend for multi-stage integrators:
    [out = a*base + b*other + c*tend], tracers combined in conservative
    [h * tracer] form.  [out] must not alias [base] or [other]. *)
val blend :
  ?pool:Pool.t ->
  ?on_cells:Span.t ->
  ?on_edges:Span.t ->
  Mesh.t ->
  a:float ->
  base:Fields.state ->
  b:float ->
  other:Fields.state ->
  c:float ->
  tend:Fields.tendencies ->
  out:Fields.state ->
  unit

(** {1 Fused chains}

    The fused super-tasks: each function runs a legal kernel chain, as
    packed by the runtime's spec-level fusion planner, over a span set
    [on] of its index space — the full range in [Timestep.refactored],
    a rank's owned set in the distributed driver, one span for a
    runtime tile — so every member is swept once while the
    intermediates are cache-hot.  The loop over spans runs inside the
    chain, under {!range} (chunked on [pool] when given).  Per element a chain calls the same
    bodies as the member kernels above, carrying values in registers
    where a member point-reads the previous member's output; every
    member output array is still written, keeping the chain's union
    footprint observable to the analysis layer.  Results are bitwise
    those of the member kernels run back to back with [?on] set to the
    same span set.

    The [x4]/[x5] accumulator triples are
    [(coef, accumulator, publish)]: the accumulative-update member adds
    [coef *] the fresh tendency into the accumulator and, in the final
    substep ([publish = Some state_field]), stores the result into the
    state as well.

    Every chain raises [Invalid_argument] before any write when the
    span set reaches past its space, or when an array a selected member
    touches is shorter than its space. *)

val tend_h_chain :
  ?pool:Pool.t ->
  Mesh.t ->
  h_edge:float array ->
  u:float array ->
  out:float array ->
  x4:(float * float array * float array option) option ->
  on:Span.t ->
  unit
(** A1 [+X4] over cells. *)

val tend_u_chain :
  ?pool:Pool.t ->
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
  on:Span.t ->
  unit
(** B1 [+C1] [+X1] [+X2] [+X5] over edges.  [dissip] is
    [(visc2, divergence, vorticity)] (pass [None] when visc2 = 0,
    matching C1's gate); [drag = 0.] and [boundary = false] likewise
    make X1/X2 no-ops. *)

val diag_cells_chain :
  ?pool:Pool.t ->
  Mesh.t ->
  h:float array ->
  u:float array ->
  d2:float array option ->
  ke_out:float array option ->
  div_out:float array option ->
  x4:(float * float array * float array option) option ->
  tend_h:float array ->
  on:Span.t ->
  unit
(** [H2] [+A2] [+A3] [+X4] over cells.  [d2 = None] when the advection
    order is second (H2 no-op); [tend_h] is read only with [x4]. *)

val diag_edges_chain :
  ?pool:Pool.t ->
  Mesh.t ->
  order:Config.h_adv_order ->
  h:float array ->
  d2fdx2_cell:float array ->
  h_edge_out:float array ->
  g:(float array * float array) option ->
  x5:(float * float array * float array option) option ->
  tend_u:float array ->
  on:Span.t ->
  unit
(** B2 [+G] [+X5] over edges.  [g] is [(u, v_tangential_out)];
    [tend_u] is read only with [x5]. *)

val vortex_chain :
  ?pool:Pool.t ->
  Mesh.t ->
  u:float array ->
  h:float array ->
  vort_out:float array ->
  hv_out:float array option ->
  pv_out:float array option ->
  on:Span.t ->
  unit
(** D1 [+C2] [+D2] over vertices.  [pv_out] requires [hv_out]
    ([Invalid_argument] otherwise). *)

val pv_edge_chain :
  ?pool:Pool.t ->
  Mesh.t ->
  g:(float array * float array) option ->
  pv_cell:float array ->
  pv_vertex:float array ->
  gn_out:float array ->
  gt_out:float array ->
  f:(float * float * float array * float array * float array) option ->
  on:Span.t ->
  unit
(** [G+] H1 [+F] over edges.  [g] is [(u, v_tangential_out)]; [f] is
    [(apvm_factor, dt, u, v_tangential, pv_edge_out)]. *)
