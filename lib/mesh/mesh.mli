(** The MPAS-style unstructured C-grid mesh.

    Three families of mesh points carry the model variables (paper
    Figure 1):
    - {e cells} (Voronoi polygons) hold mass-point variables,
    - {e edges} hold velocity-point variables (the normal component),
    - {e vertices} (Delaunay-triangle circumcenters) hold
      vorticity-point variables.

    Connectivity is held once, as the packed {!csr} view: the MPAS
    tables ([edgesOnCell], [cellsOnEdge], [weightsOnEdge],
    [kiteAreasOnVertex], ...) flattened with 0-based indices.  Every
    mesh is built by {!make}, which validates the tables once and
    derives the kite and TRiSK tables from them.

    Conventions, as facts about CSR slots.  Cell [c] owns slots
    [o + i] for [o = cell_offsets.(c)] and local index
    [0 <= i < n_edges_on_cell.(c)], taken mod [n_edges_on_cell.(c)]:
    - For edge [e], [edge_cells.(2e)] and [edge_cells.(2e+1)] are its
      two cells and the unit normal [edge_normal.(e)] points from the
      first toward the second.
    - [edge_tangent.(e) = k x n] where [k] is the local vertical; the
      tangent points from [edge_vertices.(2e)] to [edge_vertices.(2e+1)].
    - [cell_edges.(o + i)] run counter-clockwise (seen from outside
      the sphere); [cell_neighbors.(o + i)] is the neighbour across
      [cell_edges.(o + i)]; [cell_vertices.(o + i)] is the corner
      shared by the edges of local slots [i] and [i+1];
      [cell_edge_signs.(o + i)] is [+1.] when the normal of
      [cell_edges.(o + i)] points out of [c].
    - [vertex_cells.(3v .. 3v+2)] run counter-clockwise;
      [vertex_edges.(3v+k)] joins cells [k] and [k+1 mod 3] of [v], and
      [vertex_edge_signs.(3v+k)] is [+1.] when that edge's normal
      follows the counter-clockwise traversal;
      [vertex_kite_areas.(3v+k)] is the part of triangle [v] inside
      cell [vertex_cells.(3v+k)]. *)

open Mpas_numerics

type geometry =
  | Sphere of float  (** radius in meters *)
  | Plane of { lx : float; ly : float }  (** doubly periodic box *)

(** What a mesh is built from (see {!make}): every table that is not
    derived from the others.  Longitudes and latitudes are derived from
    the positions (on the plane they are the [x], [y] coordinates).
    The cell-row tables are packed in rows of [n_edges_on_cell]
    entries; vertex tables hold 3 entries per vertex and edge tables 2
    per edge. *)
type tables = {
  geometry : geometry;
  n_cells : int;
  n_edges : int;
  n_vertices : int;
  x_cell : Vec3.t array;
  x_edge : Vec3.t array;
  x_vertex : Vec3.t array;
  n_edges_on_cell : int array;
  cell_edges : int array;
  cell_neighbors : int array;
  cell_vertices : int array;
  cell_edge_signs : float array;
  vertex_edges : int array;
  vertex_cells : int array;
  vertex_kite_areas : float array;
  vertex_edge_signs : float array;
  edge_cells : int array;
  edge_vertices : int array;
  dc_edge : float array;
  dv_edge : float array;
  area_cell : float array;
  area_triangle : float array;
  edge_normal : Vec3.t array;
  edge_tangent : Vec3.t array;
  angle_edge : float array;
  f_cell : float array;
  f_edge : float array;
  f_vertex : float array;
  boundary_edge : bool array;
}

(** The packed compressed-sparse-row connectivity of a mesh.  Families
    with a variable row width (the per-cell and edges-on-edge tables)
    are [offsets]/[data] pairs: row [i] of table [x] occupies
    [x.(offsets.(i)) .. x.(offsets.(i+1) - 1)].  Fixed-degree families
    are flat with an implicit stride: 3 entries per vertex, 2 per edge.
    [cell_kite_areas] and the [eoe_*] tables are derived by {!make}. *)
type csr = {
  cell_offsets : int array;  (** [n_cells + 1] row starts *)
  cell_edges : int array;  (** edges of each cell *)
  cell_neighbors : int array;  (** cell across each of those edges *)
  cell_vertices : int array;  (** corners of each cell *)
  cell_edge_signs : float array;  (** [+1.] for an outward normal *)
  cell_kite_areas : float array;
      (** kite area of each cell corner, aligned with [cell_vertices]:
          the [vertex_kite_areas] slot of the corner that links back to
          the cell *)
  vertex_edges : int array;  (** stride 3 *)
  vertex_cells : int array;  (** stride 3 *)
  vertex_kite_areas : float array;  (** stride 3, aligned with [vertex_cells] *)
  vertex_edge_signs : float array;  (** stride 3 *)
  edge_cells : int array;  (** stride 2 *)
  edge_vertices : int array;  (** stride 2 *)
  eoe_offsets : int array;  (** [n_edges + 1] row starts *)
  eoe_edges : int array;  (** TRiSK neighbours of each edge *)
  eoe_weights : float array;  (** TRiSK weights, aligned with [eoe_edges] *)
}

(** Private: only {!make} and the copying functions below build one, so
    every mesh has passed {!Csr.validate}. *)
type t = private {
  geometry : geometry;
  n_cells : int;
  n_edges : int;
  n_vertices : int;
  max_edges : int;  (** maximum [n_edges_on_cell] *)
  (* positions *)
  x_cell : Vec3.t array;
  x_edge : Vec3.t array;
  x_vertex : Vec3.t array;
  lon_cell : float array;
  lat_cell : float array;
  lon_edge : float array;
  lat_edge : float array;
  lon_vertex : float array;
  lat_vertex : float array;
  n_edges_on_cell : int array;
  (* geometry *)
  dc_edge : float array;  (** distance between the two adjacent cells *)
  dv_edge : float array;  (** distance between the two adjacent vertices *)
  area_cell : float array;
  area_triangle : float array;
  edge_normal : Vec3.t array;
  edge_tangent : Vec3.t array;
  angle_edge : float array;  (** angle of the normal w.r.t. local east *)
  (* physics *)
  f_cell : float array;  (** Coriolis parameter at mass points *)
  f_edge : float array;
  f_vertex : float array;
  boundary_edge : bool array;
  has_boundary : bool;
      (** some [boundary_edge] is set; fixed when the mask is built, so
          kernels need not scan it per call *)
  csr : csr;  (** the connectivity, validated by {!make} *)
  mutable recon_cache : Recon_coeffs.t option;
      (** memoized {!recon_coeffs} table; {!make} starts it at [None],
          and record copies made after first use share it *)
}

(** Total area of the domain: [4 pi r^2] for a sphere, [lx * ly] for a
    periodic plane. *)
val domain_area : t -> float

(** Mean cell-to-cell spacing [mean dc_edge], a proxy for resolution. *)
val mean_spacing : t -> float

(** [with_boundary_edges t pred] is a copy of [t] whose boundary mask is
    [pred e] for every edge; connectivity and geometry are shared. *)
val with_boundary_edges : t -> (int -> bool) -> t

(** [with_coriolis t f] is a copy of [t] whose Coriolis arrays are
    re-evaluated as [f position]; used by the rotated test cases. *)
val with_coriolis : t -> (Vec3.t -> float) -> t

(** [with_f_vertex t f] is a copy of [t] whose vertex Coriolis array is
    [f]; used by ensemble members with their own Coriolis field. *)
val with_f_vertex : t -> float array -> t

(** Structural invariant check.  Returns the list of violated
    invariants (empty when the mesh is well formed): Euler
    characteristic, sign-array consistency, kite partition of triangle
    and cell areas, cell-corner ordering.  Index ranges and adjacency
    symmetry are {!make}'s checks. *)
val check : ?area_tol:float -> t -> string list

(** Typed validation of the CSR invariants the unsafe-indexed kernels
    rely on.  Each error names the offending table, so the bounds
    auditor of [Mpas_analysis] can discharge an unsafe index against
    exactly the invariants that cover it. *)
module Csr : sig
  type error =
    | Offsets_shape of { table : string; detail : string }
        (** offsets array malformed: wrong count, does not start at 0,
            or not monotone *)
    | Row_width of { table : string; row : int; got : int; expected : int }
        (** a cell row's width differs from [n_edges_on_cell] *)
    | Length_mismatch of { table : string; got : int; expected : int }
        (** a flat, strided or geometry array has the wrong length *)
    | Out_of_range of { table : string; pos : int; got : int; bound : int }
        (** a connectivity entry indexes outside its target space *)
    | Missing_back_link of { vertex : int; cell : int }
        (** a cell's vertex does not list the cell among its three, so
            [cell_kite_areas] has no kite to take for that corner *)
    | Edge_not_on_cell of { edge : int; cell : int }
        (** an edge's cell does not list the edge in its row, so the
            TRiSK walk around that cell has no start *)

  (** The table an error is about, if any. *)
  val error_table : error -> string option

  val message : error -> string

  (** All violations of the CSR invariants: [cell_offsets] has
      [n_cells + 1] entries, starts at 0 and steps by
      [n_edges_on_cell]; [eoe_offsets] has [n_edges + 1] entries,
      starts at 0 and gives each edge [n1 - 1 + n2 - 1] slots, [n1] and
      [n2] the widths of its cells' rows; each offsets array closes
      over its data tables; strided tables hold 3 entries per vertex
      and 2 per edge; every index is within its range; the geometry
      arrays dereferenced through CSR indices have full length; each
      cell's vertices link back to the cell, and each edge's cells
      list the edge.  Empty for a well-formed mesh. *)
  val validate : t -> csr -> error list

  (** Length checks of a reconstruction table against the cell rows of
      the view: [coef_x/y/z] aligned with [cell_edges], [east]/[north]
      3 entries per cell.  Errors name the table ([coef_x], ...). *)
  val validate_recon : csr -> Recon_coeffs.t -> error list
end

(** The one constructor of a mesh.  It packs [cell_offsets] from
    [n_edges_on_cell], derives longitudes and latitudes from the
    positions, runs {!Csr.validate} once over the given tables,
    and then derives [cell_kite_areas] through the validated back link
    and the TRiSK tables ([eoe_*], see {!Trisk}) by CSR row walks.
    Returns the validation errors when there are any. *)
val make : tables -> (t, Csr.error list) result

(** [pack rows] concatenates ragged rows into one packed table, the
    form {!tables} takes.  Builders may assemble rows as locals; none
    survives in a mesh. *)
val pack : 'a array array -> 'a array

(** The least-squares reconstruction coefficients of the mesh (A4/X6),
    computed from the [csr] rows on first use and memoized on the mesh,
    so every model on one mesh shares one table.  Not process-global: a
    table lives and dies with its mesh.  Two domains racing on first use
    may both compute it; the results are equal.  The table is sized
    from the view's rows, so {!Csr.validate_recon} holds for it. *)
val recon_coeffs : t -> Recon_coeffs.t
