open Mpas_numerics

(* Lattice layout (see the .mli).  Ids:
   - cell (i,j)        -> j*nx + i
   - edge (i,j,d)      -> 3*cell + d, d in {0: to (i+1,j); 1: to (i,j+1);
                          2: to (i-1,j+1)}
   - vertex (i,j,s)    -> 2*cell + s, s in {0: triangle
                          [(i,j);(i+1,j);(i,j+1)]; 1: triangle
                          [(i+1,j);(i+1,j+1);(i,j+1)]} *)

let create ?(f = 0.) ~nx ~ny ~dc () =
  if nx < 3 || ny < 3 then invalid_arg "Planar_hex.create: need nx, ny >= 3";
  if dc <= 0. then invalid_arg "Planar_hex.create: dc must be positive";
  let n_cells = nx * ny in
  let n_edges = 3 * n_cells in
  let n_vertices = 2 * n_cells in
  let a1 = Vec3.make dc 0. 0. in
  let a2 = Vec3.make (dc /. 2.) (dc *. sqrt 3. /. 2.) 0. in
  let wrap i n = ((i mod n) + n) mod n in
  let cell i j = (wrap j ny * nx) + wrap i nx in
  let edge i j d = (3 * cell i j) + d in
  let vertex i j s = (2 * cell i j) + s in
  let pos i j = Vec3.add (Vec3.scale (float_of_int i) a1) (Vec3.scale (float_of_int j) a2) in

  let x_cell = Array.make n_cells Vec3.zero in
  for j = 0 to ny - 1 do
    for i = 0 to nx - 1 do
      x_cell.(cell i j) <- pos i j
    done
  done;

  (* Unwrapped positions: anchor every edge/vertex at its (i,j) cell. *)
  let x_edge = Array.make n_edges Vec3.zero in
  let x_vertex = Array.make n_vertices Vec3.zero in
  let cells_on_edge = Array.make n_edges [||] in
  let vertices_on_edge = Array.make n_edges [||] in
  let edge_normal = Array.make n_edges Vec3.zero in
  let edge_tangent = Array.make n_edges Vec3.zero in
  let cells_on_vertex = Array.make n_vertices [||] in
  let edges_on_vertex = Array.make n_vertices [||] in
  let edge_sign_on_vertex = Array.make n_vertices [||] in

  (* Normal directions of the three edge families. *)
  let dir12 = Vec3.sub a2 a1 in
  let normals =
    [| Vec3.normalize a1; Vec3.normalize a2; Vec3.normalize dir12 |]
  in
  let offsets = [| a1; a2; dir12 |] in

  for j = 0 to ny - 1 do
    for i = 0 to nx - 1 do
      let p = pos i j in
      (* Edges owned by (i,j). *)
      let neighbours = [| cell (i + 1) j; cell i (j + 1); cell (i - 1) (j + 1) |] in
      for d = 0 to 2 do
        let e = edge i j d in
        cells_on_edge.(e) <- [| cell i j; neighbours.(d) |];
        x_edge.(e) <- Vec3.add p (Vec3.scale 0.5 offsets.(d));
        edge_normal.(e) <- normals.(d);
        edge_tangent.(e) <- Vec3.cross Vec3.ez normals.(d)
      done;
      (* Vertices owned by (i,j): circumcenters of the two lattice
         triangles of the (i,j) parallelogram. *)
      let c13 = Vec3.scale (1. /. 3.) (Vec3.add a1 a2) in
      x_vertex.(vertex i j 0) <- Vec3.add p c13;
      x_vertex.(vertex i j 1) <- Vec3.add p (Vec3.scale 2. c13);
      cells_on_vertex.(vertex i j 0) <- [| cell i j; cell (i + 1) j; cell i (j + 1) |];
      cells_on_vertex.(vertex i j 1) <-
        [| cell (i + 1) j; cell (i + 1) (j + 1); cell i (j + 1) |];
      (* edges_on_vertex.(v).(k) joins cells k and k+1 (mod 3). *)
      edges_on_vertex.(vertex i j 0) <-
        [| edge i j 0; edge (i + 1) j 2; edge i j 1 |];
      edge_sign_on_vertex.(vertex i j 0) <- [| 1.; 1.; -1. |];
      edges_on_vertex.(vertex i j 1) <-
        [| edge (i + 1) j 1; edge i (j + 1) 0; edge (i + 1) j 2 |];
      edge_sign_on_vertex.(vertex i j 1) <- [| 1.; -1.; -1. |]
    done
  done;

  (* vertices_on_edge ordered along the tangent (k x n). *)
  for j = 0 to ny - 1 do
    for i = 0 to nx - 1 do
      (* d = 0: tangent +y; below = s1 of (i,j-1), above = s0 of (i,j). *)
      vertices_on_edge.(edge i j 0) <- [| vertex i (j - 1) 1; vertex i j 0 |];
      (* d = 1: tangent at 150 deg; from s0 of (i,j) to s1 of (i-1,j). *)
      vertices_on_edge.(edge i j 1) <- [| vertex i j 0; vertex (i - 1) j 1 |];
      (* d = 2: tangent at 210 deg; from s1 of (i-1,j) to s0 of (i-1,j). *)
      vertices_on_edge.(edge i j 2) <- [| vertex (i - 1) j 1; vertex (i - 1) j 0 |]
    done
  done;

  (* Cell-local counter-clockwise orderings, starting from the +x edge. *)
  let edges_on_cell = Array.make n_cells [||] in
  let cells_on_cell = Array.make n_cells [||] in
  let vertices_on_cell = Array.make n_cells [||] in
  let edge_sign_on_cell = Array.make n_cells [||] in
  for j = 0 to ny - 1 do
    for i = 0 to nx - 1 do
      let c = cell i j in
      edges_on_cell.(c) <-
        [| edge i j 0; edge i j 1; edge i j 2;
           edge (i - 1) j 0; edge i (j - 1) 1; edge (i + 1) (j - 1) 2 |];
      cells_on_cell.(c) <-
        [| cell (i + 1) j; cell i (j + 1); cell (i - 1) (j + 1);
           cell (i - 1) j; cell i (j - 1); cell (i + 1) (j - 1) |];
      vertices_on_cell.(c) <-
        [| vertex i j 0; vertex (i - 1) j 1; vertex (i - 1) j 0;
           vertex (i - 1) (j - 1) 1; vertex i (j - 1) 0; vertex i (j - 1) 1 |];
      edge_sign_on_cell.(c) <- [| 1.; 1.; 1.; -1.; -1.; -1. |]
    done
  done;

  let tri_area = sqrt 3. /. 4. *. dc *. dc in
  let angle_of v = atan2 v.Vec3.y v.Vec3.x in
  Mesh.make
    {
      Mesh.geometry =
        Mesh.Plane
          {
            lx = float_of_int nx *. dc;
            ly = float_of_int ny *. dc *. sqrt 3. /. 2.;
          };
      n_cells;
      n_edges;
      n_vertices;
      x_cell;
      x_edge;
      x_vertex;
      n_edges_on_cell = Array.make n_cells 6;
      cell_edges = Mesh.pack edges_on_cell;
      cell_neighbors = Mesh.pack cells_on_cell;
      cell_vertices = Mesh.pack vertices_on_cell;
      cell_edge_signs = Mesh.pack edge_sign_on_cell;
      vertex_edges = Mesh.pack edges_on_vertex;
      vertex_cells = Mesh.pack cells_on_vertex;
      vertex_kite_areas = Array.make (3 * n_vertices) (tri_area /. 3.);
      vertex_edge_signs = Mesh.pack edge_sign_on_vertex;
      edge_cells = Mesh.pack cells_on_edge;
      edge_vertices = Mesh.pack vertices_on_edge;
      dc_edge = Array.make n_edges dc;
      dv_edge = Array.make n_edges (dc /. sqrt 3.);
      area_cell = Array.make n_cells (sqrt 3. /. 2. *. dc *. dc);
      area_triangle = Array.make n_vertices tri_area;
      edge_normal;
      edge_tangent;
      angle_edge = Array.map angle_of edge_normal;
      f_cell = Array.make n_cells f;
      f_edge = Array.make n_edges f;
      f_vertex = Array.make n_vertices f;
      boundary_edge = Array.make n_edges false;
    }
  |> function
  | Ok m -> m
  | Error errors ->
      invalid_arg
        ("Planar_hex: invalid mesh: "
        ^ String.concat "; " (List.map Mesh.Csr.message errors))
