open Mpas_numerics

type geometry = Sphere of float | Plane of { lx : float; ly : float }

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

type csr = {
  cell_offsets : int array;
  cell_edges : int array;
  cell_neighbors : int array;
  cell_vertices : int array;
  cell_edge_signs : float array;
  cell_kite_areas : float array;
  vertex_edges : int array;
  vertex_cells : int array;
  vertex_kite_areas : float array;
  vertex_edge_signs : float array;
  edge_cells : int array;
  edge_vertices : int array;
  eoe_offsets : int array;
  eoe_edges : int array;
  eoe_weights : float array;
}

type t = {
  geometry : geometry;
  n_cells : int;
  n_edges : int;
  n_vertices : int;
  max_edges : int;
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
  has_boundary : bool;
  csr : csr;
  mutable recon_cache : Recon_coeffs.t option;
}

let domain_area t =
  match t.geometry with
  | Sphere r -> 4. *. Float.pi *. r *. r
  | Plane { lx; ly } -> lx *. ly

let mean_spacing t = Stats.mean t.dc_edge

let with_boundary_edges t pred =
  let boundary_edge = Array.init t.n_edges pred in
  { t with boundary_edge; has_boundary = Array.exists Fun.id boundary_edge }

let with_coriolis t f =
  {
    t with
    f_cell = Array.map f t.x_cell;
    f_edge = Array.map f t.x_edge;
    f_vertex = Array.map f t.x_vertex;
  }

let with_f_vertex t f_vertex = { t with f_vertex }

(* --- packed CSR view --------------------------------------------------- *)

(* The CSR tables are walked with [Array.unsafe_get] by the hot kernels
   of [Mpas_swe.Operators]; everything those fast paths rely on is
   checked here, once, when {!make} builds the mesh.  The errors are
   typed — named by the offending table — so the bounds auditor of
   Mpas_analysis can discharge each unsafe index against the specific
   invariants it needs. *)
module Csr = struct
  type error =
    | Offsets_shape of { table : string; detail : string }
    | Row_width of { table : string; row : int; got : int; expected : int }
    | Length_mismatch of { table : string; got : int; expected : int }
    | Out_of_range of { table : string; pos : int; got : int; bound : int }
    | Missing_back_link of { vertex : int; cell : int }
    | Edge_not_on_cell of { edge : int; cell : int }

  let error_table = function
    | Offsets_shape { table; _ }
    | Row_width { table; _ }
    | Length_mismatch { table; _ }
    | Out_of_range { table; _ } ->
        Some table
    | Missing_back_link _ | Edge_not_on_cell _ -> None

  let message = function
    | Offsets_shape { table; detail } ->
        Printf.sprintf "%s: %s" table detail
    | Row_width { table; row; got; expected } ->
        Printf.sprintf "%s: row %d has %d entries, expected %d" table row got
          expected
    | Length_mismatch { table; got; expected } ->
        Printf.sprintf "%s has %d entries, expected %d" table got expected
    | Out_of_range { table; pos; got; bound } ->
        Printf.sprintf "%s: entry %d is %d, out of [0, %d)" table pos got
          bound
    | Missing_back_link { vertex; cell } ->
        Printf.sprintf "vertex %d does not list cell %d back" vertex cell
    | Edge_not_on_cell { edge; cell } ->
        Printf.sprintf "cell %d does not list its edge %d" cell edge

  (* [derived] adds the checks of the tables {!make} derives, which it
     fills only after the given tables have passed. *)
  let check ~derived t (c : csr) =
    let errors = ref [] in
    let add e = errors := e :: !errors in
    (* One offsets array serves several data tables; its shape is
       checked once, against the row widths it must describe when
       [width] knows them. *)
    let check_offsets table offsets n width =
      if Array.length offsets <> n + 1 then
        add
          (Offsets_shape
             {
               table;
               detail =
                 Printf.sprintf "%d offsets for %d rows" (Array.length offsets)
                   n;
             })
      else begin
        if offsets.(0) <> 0 then
          add (Offsets_shape { table; detail = "offsets do not start at 0" });
        for i = 0 to n - 1 do
          let got = offsets.(i + 1) - offsets.(i) in
          if got < 0 then
            add
              (Offsets_shape
                 {
                   table;
                   detail = Printf.sprintf "offsets not monotone at row %d" i;
                 })
          else
            match width i with
            | Some expected when got <> expected ->
                add (Row_width { table; row = i; got; expected })
            | _ -> ()
        done
      end
    in
    (* A flat data table must end exactly where its offsets say. *)
    let check_flat table data offsets =
      let n = Array.length offsets in
      if n > 0 && offsets.(0) = 0 && offsets.(n - 1) <> Array.length data then
        add
          (Length_mismatch
             { table; got = Array.length data; expected = offsets.(n - 1) })
    in
    let check_range table data bound =
      Array.iteri
        (fun i x ->
          if x < 0 || x >= bound then
            add (Out_of_range { table; pos = i; got = x; bound }))
        data
    in
    let check_len table a n =
      if Array.length a <> n then
        add (Length_mismatch { table; got = Array.length a; expected = n })
    in
    let nc = t.n_cells and ne = t.n_edges and nv = t.n_vertices in
    check_len "n_edges_on_cell" t.n_edges_on_cell nc;
    check_offsets "cell_offsets" c.cell_offsets nc (fun i ->
        if i < Array.length t.n_edges_on_cell then Some t.n_edges_on_cell.(i)
        else None);
    check_flat "cell_edges" c.cell_edges c.cell_offsets;
    check_flat "cell_neighbors" c.cell_neighbors c.cell_offsets;
    check_flat "cell_vertices" c.cell_vertices c.cell_offsets;
    check_flat "cell_edge_signs" c.cell_edge_signs c.cell_offsets;
    if derived then begin
      (* A TRiSK row takes all but the edge itself from each of its two
         cells' rows. *)
      let cell_width i =
        if 0 <= i && i < Array.length t.n_edges_on_cell then
          Some t.n_edges_on_cell.(i)
        else None
      in
      check_offsets "eoe_offsets" c.eoe_offsets ne (fun e ->
          if (2 * e) + 1 >= Array.length c.edge_cells then None
          else
            match
              ( cell_width c.edge_cells.(2 * e),
                cell_width c.edge_cells.((2 * e) + 1) )
            with
            | Some a, Some b -> Some (a + b - 2)
            | _ -> None);
      check_flat "cell_kite_areas" c.cell_kite_areas c.cell_offsets;
      check_flat "eoe_edges" c.eoe_edges c.eoe_offsets;
      check_flat "eoe_weights" c.eoe_weights c.eoe_offsets;
      check_range "eoe_edges" c.eoe_edges ne
    end;
    check_len "vertex_edges" c.vertex_edges (3 * nv);
    check_len "vertex_cells" c.vertex_cells (3 * nv);
    check_len "vertex_kite_areas" c.vertex_kite_areas (3 * nv);
    check_len "vertex_edge_signs" c.vertex_edge_signs (3 * nv);
    check_len "edge_cells" c.edge_cells (2 * ne);
    check_len "edge_vertices" c.edge_vertices (2 * ne);
    check_range "cell_edges" c.cell_edges ne;
    check_range "cell_neighbors" c.cell_neighbors nc;
    check_range "cell_vertices" c.cell_vertices nv;
    check_range "vertex_edges" c.vertex_edges ne;
    check_range "vertex_cells" c.vertex_cells nc;
    check_range "edge_cells" c.edge_cells nc;
    check_range "edge_vertices" c.edge_vertices nv;
    (* Geometry arrays dereferenced through CSR indices. *)
    check_len "dc_edge" t.dc_edge ne;
    check_len "dv_edge" t.dv_edge ne;
    check_len "area_cell" t.area_cell nc;
    check_len "area_triangle" t.area_triangle nv;
    (* The links the derived tables are built through, once every index
       is known to be in range: each vertex of a cell lists the cell
       among its three ([cell_kite_areas]), and each cell of an edge
       lists the edge in its row (the TRiSK walk). *)
    if !errors = [] then begin
      for cl = 0 to nc - 1 do
        for j = c.cell_offsets.(cl) to c.cell_offsets.(cl + 1) - 1 do
          let v = c.cell_vertices.(j) in
          let b = 3 * v in
          if
            c.vertex_cells.(b) <> cl
            && c.vertex_cells.(b + 1) <> cl
            && c.vertex_cells.(b + 2) <> cl
          then add (Missing_back_link { vertex = v; cell = cl })
        done
      done;
      for i = 0 to (2 * ne) - 1 do
        let cl = c.edge_cells.(i) and e = i / 2 in
        let found = ref false in
        for j = c.cell_offsets.(cl) to c.cell_offsets.(cl + 1) - 1 do
          if c.cell_edges.(j) = e then found := true
        done;
        if not !found then add (Edge_not_on_cell { edge = e; cell = cl })
      done
    end;
    List.rev !errors

  let validate t c = check ~derived:true t c

  let validate_recon (c : csr) (r : Recon_coeffs.t) =
    let n_cells = Array.length c.cell_offsets - 1 in
    List.filter_map
      (fun (table, a, expected) ->
        if Array.length a = expected then None
        else Some (Length_mismatch { table; got = Array.length a; expected }))
      [
        ("coef_x", r.coef_x, Array.length c.cell_edges);
        ("coef_y", r.coef_y, Array.length c.cell_edges);
        ("coef_z", r.coef_z, Array.length c.cell_edges);
        ("east", r.east, 3 * n_cells);
        ("north", r.north, 3 * n_cells);
      ]
end

(* Each cell-row slot takes the kite of its vertex's slot that links back
   to the cell; [Csr.validate] has proved that one of the three does. *)
let fill_cell_kite_areas (c : csr) =
  for cl = 0 to Array.length c.cell_offsets - 2 do
    for j = c.cell_offsets.(cl) to c.cell_offsets.(cl + 1) - 1 do
      let b = 3 * c.cell_vertices.(j) in
      let k =
        if c.vertex_cells.(b) = cl then b
        else if c.vertex_cells.(b + 1) = cl then b + 1
        else b + 2
      in
      c.cell_kite_areas.(j) <- c.vertex_kite_areas.(k)
    done
  done

let pack rows = Array.concat (Array.to_list rows)

let make (s : tables) =
  let n = Array.length s.n_edges_on_cell in
  let cell_offsets = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    cell_offsets.(i + 1) <- cell_offsets.(i) + s.n_edges_on_cell.(i)
  done;
  let lon_lat xs =
    let ll =
      match s.geometry with
      | Sphere _ -> Array.map Sphere.to_lonlat xs
      (* On the plane "longitude/latitude" are just the coordinates. *)
      | Plane _ -> Array.map (fun (p : Vec3.t) -> (p.x, p.y)) xs
    in
    (Array.map fst ll, Array.map snd ll)
  in
  let lon_cell, lat_cell = lon_lat s.x_cell
  and lon_edge, lat_edge = lon_lat s.x_edge
  and lon_vertex, lat_vertex = lon_lat s.x_vertex in
  (* The derived tables are filled once the given ones validate. *)
  let given =
    {
      cell_offsets;
      cell_edges = s.cell_edges;
      cell_neighbors = s.cell_neighbors;
      cell_vertices = s.cell_vertices;
      cell_edge_signs = s.cell_edge_signs;
      cell_kite_areas = Array.make (Int.max 0 cell_offsets.(n)) 0.;
      vertex_edges = s.vertex_edges;
      vertex_cells = s.vertex_cells;
      vertex_kite_areas = s.vertex_kite_areas;
      vertex_edge_signs = s.vertex_edge_signs;
      edge_cells = s.edge_cells;
      edge_vertices = s.edge_vertices;
      eoe_offsets = [||];
      eoe_edges = [||];
      eoe_weights = [||];
    }
  in
  let t =
    {
      geometry = s.geometry;
      n_cells = s.n_cells;
      n_edges = s.n_edges;
      n_vertices = s.n_vertices;
      max_edges = Array.fold_left Int.max 0 s.n_edges_on_cell;
      x_cell = s.x_cell;
      x_edge = s.x_edge;
      x_vertex = s.x_vertex;
      lon_cell;
      lat_cell;
      lon_edge;
      lat_edge;
      lon_vertex;
      lat_vertex;
      n_edges_on_cell = s.n_edges_on_cell;
      dc_edge = s.dc_edge;
      dv_edge = s.dv_edge;
      area_cell = s.area_cell;
      area_triangle = s.area_triangle;
      edge_normal = s.edge_normal;
      edge_tangent = s.edge_tangent;
      angle_edge = s.angle_edge;
      f_cell = s.f_cell;
      f_edge = s.f_edge;
      f_vertex = s.f_vertex;
      boundary_edge = s.boundary_edge;
      has_boundary = Array.exists Fun.id s.boundary_edge;
      csr = given;
      recon_cache = None;
    }
  in
  match Csr.check ~derived:false t given with
  | _ :: _ as errors -> Error errors
  | [] ->
      fill_cell_kite_areas given;
      let eoe_offsets, eoe_edges, eoe_weights =
        Trisk.weights
          {
            Trisk.cell_offsets;
            cell_edges = s.cell_edges;
            cell_edge_signs = s.cell_edge_signs;
            cell_kite_areas = given.cell_kite_areas;
            edge_cells = s.edge_cells;
            area_cell = s.area_cell;
            dc_edge = s.dc_edge;
            dv_edge = s.dv_edge;
          }
      in
      Ok { t with csr = { given with eoe_offsets; eoe_edges; eoe_weights } }

(* Domains racing on first use may each compute the table; the results
   are equal, so whichever write lands last is as good as the other.  The
   table is sized from the view's own rows, so it fits them by
   construction ([Csr.validate_recon] is the bounds auditor's check). *)
let recon_coeffs t =
  match t.recon_cache with
  | Some r -> r
  | None ->
      let c = t.csr in
      let r =
        Recon_coeffs.compute
          {
            Recon_coeffs.sphere =
              (match t.geometry with Sphere _ -> true | Plane _ -> false);
            x_cell = t.x_cell;
            edge_normal = t.edge_normal;
            cell_offsets = c.cell_offsets;
            cell_edges = c.cell_edges;
          }
      in
      t.recon_cache <- Some r;
      r

(* --- invariant checking ------------------------------------------------ *)

let check_euler t errors =
  (* A closed surface of genus 0 has V - E + F = 2; a torus (periodic
     plane) has characteristic 0.  Cells are faces of the primal mesh,
     mesh vertices are primal triangulation faces, so in dual terms:
     n_cells - n_edges + n_vertices = characteristic. *)
  let expected = match t.geometry with Sphere _ -> 2 | Plane _ -> 0 in
  let chi = t.n_cells - t.n_edges + t.n_vertices in
  if chi <> expected then
    Format.sprintf "Euler characteristic %d, expected %d" chi expected
    :: errors
  else errors

let check_edge_signs t errors =
  let c = t.csr in
  let bad = ref 0 in
  for cl = 0 to t.n_cells - 1 do
    for j = c.cell_offsets.(cl) to c.cell_offsets.(cl + 1) - 1 do
      let e = c.cell_edges.(j) in
      let expected = if c.edge_cells.(2 * e) = cl then 1. else -1. in
      if c.cell_edge_signs.(j) <> expected then incr bad
    done
  done;
  if !bad > 0 then
    Format.sprintf "%d inconsistent cell_edge_signs entries" !bad :: errors
  else errors

let check_vertex_signs t errors =
  let c = t.csr in
  let bad = ref 0 in
  for v = 0 to t.n_vertices - 1 do
    for k = 0 to 2 do
      let e = c.vertex_edges.((3 * v) + k) in
      let c_from = c.vertex_cells.((3 * v) + k) in
      let c_to = c.vertex_cells.((3 * v) + ((k + 1) mod 3)) in
      let ce0 = c.edge_cells.(2 * e) and ce1 = c.edge_cells.((2 * e) + 1) in
      let s = c.vertex_edge_signs.((3 * v) + k) in
      let ok =
        (ce0 = c_from && ce1 = c_to && s = 1.)
        || (ce0 = c_to && ce1 = c_from && s = -1.)
      in
      if not ok then incr bad
    done
  done;
  if !bad > 0 then
    Format.sprintf "%d inconsistent vertex_edge_signs entries" !bad :: errors
  else errors

let check_area_partition ~area_tol t errors =
  let c = t.csr in
  let errors =
    let total = Array.fold_left ( +. ) 0. t.area_cell in
    let expect = domain_area t in
    if Stats.rel_diff total expect > area_tol then
      Format.sprintf "cell areas sum to %g, domain area is %g" total expect
      :: errors
    else errors
  in
  let errors =
    let total = Array.fold_left ( +. ) 0. t.area_triangle in
    let expect = domain_area t in
    if Stats.rel_diff total expect > area_tol then
      Format.sprintf "triangle areas sum to %g, domain area is %g" total expect
      :: errors
    else errors
  in
  (* Kites partition each triangle and each cell. *)
  let bad = ref 0 in
  let per_cell = Array.make t.n_cells 0. in
  for v = 0 to t.n_vertices - 1 do
    let s = ref 0. in
    for k = 3 * v to (3 * v) + 2 do
      let kite = c.vertex_kite_areas.(k) and cl = c.vertex_cells.(k) in
      s := !s +. kite;
      per_cell.(cl) <- per_cell.(cl) +. kite
    done;
    if Stats.rel_diff !s t.area_triangle.(v) > area_tol then incr bad
  done;
  let errors =
    if !bad > 0 then
      Format.sprintf "%d vertices whose kites do not sum to the triangle area"
        !bad
      :: errors
    else errors
  in
  let bad = ref 0 in
  for cl = 0 to t.n_cells - 1 do
    if Stats.rel_diff per_cell.(cl) t.area_cell.(cl) > area_tol then incr bad
  done;
  if !bad > 0 then
    Format.sprintf "%d cells whose kites do not sum to the cell area" !bad
    :: errors
  else errors

let check_vertex_on_cell_ordering t errors =
  (* The corner in local slot i must be a vertex of the edges in local
     slots i and i+1. *)
  let c = t.csr in
  let bad = ref 0 in
  for cl = 0 to t.n_cells - 1 do
    let o = c.cell_offsets.(cl) and n = t.n_edges_on_cell.(cl) in
    for i = 0 to n - 1 do
      let v = c.cell_vertices.(o + i) in
      let has e =
        c.edge_vertices.(2 * e) = v || c.edge_vertices.((2 * e) + 1) = v
      in
      if
        not (has c.cell_edges.(o + i) && has c.cell_edges.(o + ((i + 1) mod n)))
      then incr bad
    done
  done;
  if !bad > 0 then
    Format.sprintf "%d cell_vertices entries out of order" !bad :: errors
  else errors

let check ?(area_tol = 1e-9) t =
  []
  |> check_euler t
  |> check_edge_signs t
  |> check_vertex_signs t
  |> check_area_partition ~area_tol t
  |> check_vertex_on_cell_ordering t
  |> List.rev
