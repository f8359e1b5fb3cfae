(** mpas_reconstruct: least-squares reconstruction of the full velocity
    vector at cell centers from edge-normal components (instances A4
    and X6 of Table I).

    Each cell has coefficient vectors [coef_j], one per slot of its CSR
    cell row, such that the reconstructed Cartesian velocity is
    [V(c) = sum_j u(e_j) coef_j] — a tangent-plane-constrained
    least-squares fit through the edge normals, the role played by RBF
    coefficients in MPAS ({!Mpas_mesh.Recon_coeffs}). *)

open Mpas_mesh
open Mpas_par

type t

(** The mesh's reconstruction table, {!Mesh.recon_coeffs}: computed on
    the first call for a mesh and shared by every later one, so two
    calls on one mesh return the same (physically equal) table. *)
val init : Mesh.t -> t

(** A4: fill [out.ux/uy/uz] with the Cartesian reconstruction; X6:
    derive [out.zonal] and [out.meridional] by projecting onto the
    local east/north directions. *)
val run :
  ?pool:Pool.t -> ?on:Span.t -> t -> Mesh.t -> u:float array ->
  out:Fields.reconstruction -> unit

(** The two pattern instances separately, for drivers that schedule A4
    and X6 as distinct tasks (the dataflow runtime).  [run_cartesian]
    fills [out.ux/uy/uz] (A4); [run_horizontal] derives
    [out.zonal/meridional] from them (X6).  Running the pair is
    bit-identical to {!run}.  All three run the same per-cell bodies,
    with the Vec3 arithmetic scalarized so nothing allocates per cell,
    over the full cell range or the span set [on]; [run] on a runtime
    tile is the fused A4 [+X6] chain.  A4 walks the mesh's CSR cell
    rows ([cell_offsets]/[cell_edges]) alongside the flat coefficients.
    Raises [Invalid_argument] when [u] is shorter than the edge count,
    the table does not fit the mesh's cell rows, or [on] reaches past
    the cell range. *)
val run_cartesian :
  ?pool:Pool.t -> ?on:Span.t -> t -> Mesh.t -> u:float array ->
  out:Fields.reconstruction -> unit

val run_horizontal :
  ?pool:Pool.t -> ?on:Span.t -> t -> Mesh.t ->
  out:Fields.reconstruction -> unit

