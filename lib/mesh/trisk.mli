(** TRiSK tangential-reconstruction weights (Thuburn et al. 2009;
    Ringler et al. 2010), derived by [Mesh.make] for every mesh.

    For each edge [e], the tangential velocity is reconstructed as
    [v_e = sum_i eoe_weights.(i) * u(eoe_edges.(i))] over the slots
    [i] of row [e].  The weights satisfy the antisymmetry
    [A_e w_(e,e') = -A_(e') w_(e',e)] with [A_e = dc_e * dv_e], which
    makes the discrete Coriolis force energy-neutral. *)

(** The validated CSR tables the weights are computed from (see
    [Mesh.csr]); [cell_kite_areas] is aligned with the cell corners,
    and every edge must be listed in the rows of both its cells. *)
type input = {
  cell_offsets : int array;
  cell_edges : int array;
  cell_edge_signs : float array;
  cell_kite_areas : float array;
  edge_cells : int array;  (** stride 2 *)
  area_cell : float array;
  dc_edge : float array;
  dv_edge : float array;
}

(** Returns [(eoe_offsets, eoe_edges, eoe_weights)]: row [e] holds
    [n_edges_on_cell - 1] entries from each of its two cells. *)
val weights : input -> int array * int array * float array
