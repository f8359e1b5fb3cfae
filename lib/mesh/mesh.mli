(** The MPAS-style unstructured C-grid mesh.

    Three families of mesh points carry the model variables (paper
    Figure 1):
    - {e cells} (Voronoi polygons) hold mass-point variables,
    - {e edges} hold velocity-point variables (the normal component),
    - {e vertices} (Delaunay-triangle circumcenters) hold
      vorticity-point variables.

    The record mirrors the connectivity and geometry arrays of the MPAS
    mesh specification ([cellsOnEdge], [edgesOnCell], [weightsOnEdge],
    [kiteAreasOnVertex], ...), with 0-based indices.

    Conventions:
    - For edge [e], [cells_on_edge.(e) = [|c1; c2|]] and the unit normal
      [edge_normal.(e)] points from [c1] toward [c2].
    - [edge_tangent.(e) = k x n] where [k] is the local vertical; the
      two vertices are ordered so the tangent points from vertex 1 to
      vertex 2.
    - [edges_on_cell.(c)] lists edges counter-clockwise (seen from
      outside the sphere); [cells_on_cell.(c).(j)] is the neighbour
      across edge [j]; [vertices_on_cell.(c).(j)] is the corner shared
      by edges [j] and [j+1 mod n].
    - [cells_on_vertex.(v)] is counter-clockwise;
      [edges_on_vertex.(v).(k)] joins cells [k] and [k+1 mod 3], and
      [edge_sign_on_vertex.(v).(k)] is [+1.] when that edge's normal
      follows the counter-clockwise traversal. *)

open Mpas_numerics

type geometry =
  | Sphere of float  (** radius in meters *)
  | Plane of { lx : float; ly : float }  (** doubly periodic box *)

(** Packed compressed-sparse-row view of the connectivity, built once
    per mesh (see {!csr}).  Families with a variable row width
    (the per-cell and edges-on-edge tables) are [offsets]/[data] pairs:
    row [i] of table [x] occupies [x.(offsets.(i)) ..
    x.(offsets.(i+1) - 1)].  Fixed-degree families are flat with an
    implicit stride: 3 entries per vertex, 2 per edge.  Entries are in
    the exact order of the corresponding ragged arrays, so a flat index
    [offsets.(i) + j] aliases ragged element [(i, j)].
    [cell_kite_areas] is derived rather than flattened: slot [j] of cell
    [c] holds the kite area of corner [cell_vertices.(j)] that belongs
    to [c], found once through the validated back link
    ([vertex_cells]), so E sums its cell row without a search. *)
type csr = {
  cell_offsets : int array;  (** [n_cells + 1] row starts *)
  cell_edges : int array;  (** [edges_on_cell], packed *)
  cell_neighbors : int array;  (** [cells_on_cell], packed *)
  cell_vertices : int array;  (** [vertices_on_cell], packed *)
  cell_edge_signs : float array;  (** [edge_sign_on_cell], packed *)
  cell_kite_areas : float array;
      (** [kite_areas_on_vertex] of each cell corner, packed like
          [cell_edge_signs] and aligned with [cell_vertices] *)
  vertex_edges : int array;  (** [edges_on_vertex], stride 3 *)
  vertex_cells : int array;  (** [cells_on_vertex], stride 3 *)
  vertex_kite_areas : float array;  (** [kite_areas_on_vertex], stride 3 *)
  vertex_edge_signs : float array;  (** [edge_sign_on_vertex], stride 3 *)
  edge_cells : int array;  (** [cells_on_edge], stride 2 *)
  edge_vertices : int array;  (** [vertices_on_edge], stride 2 *)
  eoe_offsets : int array;  (** [n_edges + 1] row starts *)
  eoe_edges : int array;  (** [edges_on_edge], packed *)
  eoe_weights : float array;  (** [weights_on_edge], packed *)
}

type t = {
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
  (* connectivity *)
  n_edges_on_cell : int array;
  edges_on_cell : int array array;
  cells_on_cell : int array array;
  vertices_on_cell : int array array;
  cells_on_edge : int array array;
  vertices_on_edge : int array array;
  edges_on_vertex : int array array;
  cells_on_vertex : int array array;
  n_edges_on_edge : int array;
  edges_on_edge : int array array;
  weights_on_edge : float array array;
  (* geometry *)
  dc_edge : float array;  (** distance between the two adjacent cells *)
  dv_edge : float array;  (** distance between the two adjacent vertices *)
  area_cell : float array;
  area_triangle : float array;
  kite_areas_on_vertex : float array array;
      (** aligned with [cells_on_vertex] *)
  edge_normal : Vec3.t array;
  edge_tangent : Vec3.t array;
  angle_edge : float array;  (** angle of the normal w.r.t. local east *)
  edge_sign_on_cell : float array array;
      (** [+1.] when the edge normal is outward from the cell *)
  edge_sign_on_vertex : float array array;
  (* physics *)
  f_cell : float array;  (** Coriolis parameter at mass points *)
  f_edge : float array;
  f_vertex : float array;
  boundary_edge : bool array;
  has_boundary : bool;
      (** some [boundary_edge] is set; fixed when the mask is built, so
          kernels need not scan it per call *)
  mutable csr_cache : csr option;
      (** memoized {!csr} view; builders initialize it eagerly, meshes
          deserialized or assembled by hand start at [None] and build on
          first use *)
  mutable recon_cache : Recon_coeffs.t option;
      (** memoized {!recon_coeffs} table; every constructor starts it at
          [None], and record copies made after first use share it *)
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

(** Structural invariant check.  Returns the list of violated
    invariants (empty when the mesh is well formed):
    Euler characteristic, symmetric adjacency, sign-array consistency,
    kite partition of triangle and cell areas, vertex/edge ordering
    conventions. *)
val check : ?area_tol:float -> t -> string list

(** Fold over the edges of one cell: [fold_edges_on_cell t c f init]. *)
val fold_edges_on_cell : t -> int -> ('a -> int -> 'a) -> 'a -> 'a

(** Find the local index of edge [e] on cell [c].
    @raise Not_found if [e] is not an edge of [c]. *)
val edge_index_on_cell : t -> c:int -> e:int -> int

(** The packed CSR view of the connectivity (memoized on the mesh).
    The first call flattens the ragged arrays and validates the result
    with {!Csr.validate}; this single up-front validation is what lets
    the hot kernels in [Mpas_swe.Operators] walk the tables with
    [Array.unsafe_get].
    @raise Invalid_argument when validation fails. *)
val csr : t -> csr

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
        (** a ragged or fixed-degree row has the wrong width *)
    | Length_mismatch of { table : string; got : int; expected : int }
        (** a flat/strided/geometry array has the wrong total length *)
    | Out_of_range of { table : string; pos : int; got : int; bound : int }
        (** a connectivity entry indexes outside its target space *)
    | Missing_back_link of { vertex : int; cell : int }
        (** a cell's vertex does not list the cell among its three, so
            [cell_kite_areas] has no kite to take for that corner *)

  (** The table an error is about, if any. *)
  val error_table : error -> string option

  val message : error -> string

  (** All violations of the CSR invariants: offsets start at 0 and are
      monotone, [offsets.(n)] equals the data length, row widths match
      [n_edges_on_cell] / [n_edges_on_edge] and the fixed vertex/edge
      degrees, every index is within its range, the geometry arrays
      dereferenced through CSR indices have full length, and each
      cell's vertices link back to the cell.  Empty for a well-formed
      mesh. *)
  val validate : t -> csr -> error list

  (** Length checks of a reconstruction table against the cell rows of
      the view: [coef_x/y/z] aligned with [cell_edges], [east]/[north]
      3 entries per cell.  Errors name the table ([coef_x], ...). *)
  val validate_recon : csr -> Recon_coeffs.t -> error list
end

(** {!Csr.validate} rendered as strings, for error reporting. *)
val csr_errors : t -> csr -> string list

(** The least-squares reconstruction coefficients of the mesh (A4/X6),
    computed from the {!csr} rows on first use and memoized on the mesh,
    so every model on one mesh shares one table.  Not process-global: a
    table lives and dies with its mesh.  Two domains racing on first use
    may both compute it; the results are equal.  The table is sized
    from the view's rows, so {!Csr.validate_recon} holds for it. *)
val recon_coeffs : t -> Recon_coeffs.t
