(** Least-squares velocity-reconstruction coefficients (MPAS
    [coeffs_reconstruct]), derived from the mesh once and shared by
    every model on it (see [Mesh.recon_coeffs]).

    For cell [c] with packed edge slots [j] in
    [cell_offsets.(c) .. cell_offsets.(c+1) - 1], the Cartesian velocity
    is [V(c) = sum_j u(cell_edges.(j)) (coef_x.(j), coef_y.(j),
    coef_z.(j))]: a tangent-plane-constrained least-squares fit through
    the edge normals, the role played by RBF coefficients in MPAS. *)

open Mpas_numerics

type t = {
  coef_x : float array;  (** aligned with [cell_edges] *)
  coef_y : float array;
  coef_z : float array;
  east : float array;  (** local east unit vector, 3 entries per cell *)
  north : float array;  (** local north unit vector, 3 entries per cell *)
}

type input = {
  sphere : bool;  (** the local vertical is the cell position, else [ez] *)
  x_cell : Vec3.t array;
  edge_normal : Vec3.t array;
  cell_offsets : int array;  (** [n_cells + 1] row starts *)
  cell_edges : int array;  (** [Mesh.csr] cell rows *)
}

val compute : input -> t
