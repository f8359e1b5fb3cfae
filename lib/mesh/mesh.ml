open Mpas_numerics

type geometry = Sphere of float | Plane of { lx : float; ly : float }

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
  dc_edge : float array;
  dv_edge : float array;
  area_cell : float array;
  area_triangle : float array;
  kite_areas_on_vertex : float array array;
  edge_normal : Vec3.t array;
  edge_tangent : Vec3.t array;
  angle_edge : float array;
  edge_sign_on_cell : float array array;
  edge_sign_on_vertex : float array array;
  f_cell : float array;
  f_edge : float array;
  f_vertex : float array;
  boundary_edge : bool array;
  has_boundary : bool;
  mutable csr_cache : csr option;
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

let fold_edges_on_cell t c f init =
  let acc = ref init in
  let edges = t.edges_on_cell.(c) in
  for j = 0 to t.n_edges_on_cell.(c) - 1 do
    acc := f !acc edges.(j)
  done;
  !acc

let edge_index_on_cell t ~c ~e =
  let edges = t.edges_on_cell.(c) in
  let n = t.n_edges_on_cell.(c) in
  let rec loop j =
    if j >= n then raise Not_found
    else if edges.(j) = e then j
    else loop (j + 1)
  in
  loop 0

(* --- packed CSR view --------------------------------------------------- *)

let flatten_offsets rows =
  let n = Array.length rows in
  let offsets = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    offsets.(i + 1) <- offsets.(i) + Array.length rows.(i)
  done;
  offsets

let flatten zero offsets rows =
  let data = Array.make offsets.(Array.length rows) zero in
  Array.iteri
    (fun i row -> Array.blit row 0 data offsets.(i) (Array.length row))
    rows;
  data

let build_csr t =
  let cell_offsets = flatten_offsets t.edges_on_cell in
  let eoe_offsets = flatten_offsets t.edges_on_edge in
  {
    cell_offsets;
    cell_edges = flatten 0 cell_offsets t.edges_on_cell;
    cell_neighbors = flatten 0 cell_offsets t.cells_on_cell;
    cell_vertices = flatten 0 cell_offsets t.vertices_on_cell;
    cell_edge_signs = flatten 0. cell_offsets t.edge_sign_on_cell;
    (* filled by [csr] once the back link is validated *)
    cell_kite_areas =
      Array.make cell_offsets.(Array.length cell_offsets - 1) 0.;
    vertex_edges =
      flatten 0 (flatten_offsets t.edges_on_vertex) t.edges_on_vertex;
    vertex_cells =
      flatten 0 (flatten_offsets t.cells_on_vertex) t.cells_on_vertex;
    vertex_kite_areas =
      flatten 0.
        (flatten_offsets t.kite_areas_on_vertex)
        t.kite_areas_on_vertex;
    vertex_edge_signs =
      flatten 0.
        (flatten_offsets t.edge_sign_on_vertex)
        t.edge_sign_on_vertex;
    edge_cells = flatten 0 (flatten_offsets t.cells_on_edge) t.cells_on_edge;
    edge_vertices =
      flatten 0 (flatten_offsets t.vertices_on_edge) t.vertices_on_edge;
    eoe_offsets;
    eoe_edges = flatten 0 eoe_offsets t.edges_on_edge;
    eoe_weights = flatten 0. eoe_offsets t.weights_on_edge;
  }

(* The CSR tables are walked with [Array.unsafe_get] by the hot kernels
   of [Mpas_swe.Operators]; everything those fast paths rely on is
   checked here, once, when the view is built.  The errors are typed —
   named by the offending table — so the bounds auditor of
   Mpas_analysis can discharge each unsafe index against the specific
   invariants it needs. *)
module Csr = struct
  type error =
    | Offsets_shape of { table : string; detail : string }
    | Row_width of { table : string; row : int; got : int; expected : int }
    | Length_mismatch of { table : string; got : int; expected : int }
    | Out_of_range of { table : string; pos : int; got : int; bound : int }
    | Missing_back_link of { vertex : int; cell : int }

  let error_table = function
    | Offsets_shape { table; _ }
    | Row_width { table; _ }
    | Length_mismatch { table; _ }
    | Out_of_range { table; _ } ->
        Some table
    | Missing_back_link _ -> None

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

  let validate t (c : csr) =
    let errors = ref [] in
    let add e = errors := e :: !errors in
    (* One offsets array serves several data tables; its shape is
       checked once, against the ragged row widths it must describe. *)
    let check_offsets table offsets widths =
      let n = Array.length widths in
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
          if offsets.(i + 1) < offsets.(i) then
            add
              (Offsets_shape
                 {
                   table;
                   detail = Printf.sprintf "offsets not monotone at row %d" i;
                 })
          else if offsets.(i + 1) - offsets.(i) <> widths.(i) then
            add
              (Row_width
                 {
                   table;
                   row = i;
                   got = offsets.(i + 1) - offsets.(i);
                   expected = widths.(i);
                 })
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
    let check_rows table rows widths =
      Array.iteri
        (fun i row ->
          let expected = widths i in
          if Array.length row <> expected then
            add (Row_width { table; row = i; got = Array.length row; expected }))
        rows
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
    check_offsets "cell_offsets" c.cell_offsets t.n_edges_on_cell;
    check_offsets "eoe_offsets" c.eoe_offsets t.n_edges_on_edge;
    check_flat "cell_edges" c.cell_edges c.cell_offsets;
    check_flat "cell_neighbors" c.cell_neighbors c.cell_offsets;
    check_flat "cell_vertices" c.cell_vertices c.cell_offsets;
    check_flat "cell_edge_signs" c.cell_edge_signs c.cell_offsets;
    check_flat "cell_kite_areas" c.cell_kite_areas c.cell_offsets;
    check_flat "eoe_edges" c.eoe_edges c.eoe_offsets;
    check_flat "eoe_weights" c.eoe_weights c.eoe_offsets;
    (* The row-per-entity mesh tables the CSR view was flattened from. *)
    check_rows "edges_on_cell" t.edges_on_cell (fun i -> t.n_edges_on_cell.(i));
    check_rows "cells_on_cell" t.cells_on_cell (fun i -> t.n_edges_on_cell.(i));
    check_rows "vertices_on_cell" t.vertices_on_cell (fun i ->
        t.n_edges_on_cell.(i));
    check_rows "edge_sign_on_cell" t.edge_sign_on_cell (fun i ->
        t.n_edges_on_cell.(i));
    check_rows "edges_on_edge" t.edges_on_edge (fun i -> t.n_edges_on_edge.(i));
    check_rows "weights_on_edge" t.weights_on_edge (fun i ->
        t.n_edges_on_edge.(i));
    check_rows "edges_on_vertex" t.edges_on_vertex (fun _ -> 3);
    check_rows "cells_on_vertex" t.cells_on_vertex (fun _ -> 3);
    check_rows "kite_areas_on_vertex" t.kite_areas_on_vertex (fun _ -> 3);
    check_rows "edge_sign_on_vertex" t.edge_sign_on_vertex (fun _ -> 3);
    check_rows "cells_on_edge" t.cells_on_edge (fun _ -> 2);
    check_rows "vertices_on_edge" t.vertices_on_edge (fun _ -> 2);
    check_len "vertex_edges" c.vertex_edges (3 * t.n_vertices);
    check_len "vertex_cells" c.vertex_cells (3 * t.n_vertices);
    check_len "vertex_kite_areas" c.vertex_kite_areas (3 * t.n_vertices);
    check_len "vertex_edge_signs" c.vertex_edge_signs (3 * t.n_vertices);
    check_len "edge_cells" c.edge_cells (2 * t.n_edges);
    check_len "edge_vertices" c.edge_vertices (2 * t.n_edges);
    check_range "cell_edges" c.cell_edges t.n_edges;
    check_range "cell_neighbors" c.cell_neighbors t.n_cells;
    check_range "cell_vertices" c.cell_vertices t.n_vertices;
    check_range "vertex_edges" c.vertex_edges t.n_edges;
    check_range "vertex_cells" c.vertex_cells t.n_cells;
    check_range "edge_cells" c.edge_cells t.n_cells;
    check_range "edge_vertices" c.edge_vertices t.n_vertices;
    check_range "eoe_edges" c.eoe_edges t.n_edges;
    (* Geometry arrays dereferenced through CSR indices. *)
    check_len "dc_edge" t.dc_edge t.n_edges;
    check_len "dv_edge" t.dv_edge t.n_edges;
    check_len "area_cell" t.area_cell t.n_cells;
    check_len "area_triangle" t.area_triangle t.n_vertices;
    (* Reverse link through which [cell_kite_areas] is filled: every
       vertex of a cell must list that cell among its three. *)
    if !errors = [] then
      for cl = 0 to t.n_cells - 1 do
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
    List.rev !errors

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

let csr_errors t (c : csr) = List.map Csr.message (Csr.validate t c)

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

let csr t =
  match t.csr_cache with
  | Some c -> c
  | None ->
      let c = build_csr t in
      (match csr_errors t c with
      | [] -> ()
      | errs ->
          invalid_arg ("Mesh.csr: invalid mesh: " ^ String.concat "; " errs));
      fill_cell_kite_areas c;
      t.csr_cache <- Some c;
      c

(* Domains racing on first use may each compute the table; the results
   are equal, so whichever write lands last is as good as the other.  The
   table is sized from the view's own rows, so it fits them by
   construction ([Csr.validate_recon] is the bounds auditor's check). *)
let recon_coeffs t =
  match t.recon_cache with
  | Some r -> r
  | None ->
      let c = csr t in
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

let check_edge_cell_symmetry t errors =
  let bad = ref 0 in
  for e = 0 to t.n_edges - 1 do
    Array.iter
      (fun c ->
        match edge_index_on_cell t ~c ~e with
        | _ -> ()
        | exception Not_found -> incr bad)
      t.cells_on_edge.(e)
  done;
  if !bad > 0 then
    Format.sprintf "%d edge->cell links missing the reverse link" !bad
    :: errors
  else errors

let check_edge_signs t errors =
  let bad = ref 0 in
  for c = 0 to t.n_cells - 1 do
    for j = 0 to t.n_edges_on_cell.(c) - 1 do
      let e = t.edges_on_cell.(c).(j) in
      let s = t.edge_sign_on_cell.(c).(j) in
      let expected = if t.cells_on_edge.(e).(0) = c then 1. else -1. in
      if s <> expected then incr bad
    done
  done;
  if !bad > 0 then
    Format.sprintf "%d inconsistent edge_sign_on_cell entries" !bad :: errors
  else errors

let check_vertex_signs t errors =
  let bad = ref 0 in
  for v = 0 to t.n_vertices - 1 do
    for k = 0 to 2 do
      let e = t.edges_on_vertex.(v).(k) in
      let c_from = t.cells_on_vertex.(v).(k) in
      let c_to = t.cells_on_vertex.(v).((k + 1) mod 3) in
      let ce = t.cells_on_edge.(e) in
      let s = t.edge_sign_on_vertex.(v).(k) in
      let ok =
        (ce.(0) = c_from && ce.(1) = c_to && s = 1.)
        || (ce.(0) = c_to && ce.(1) = c_from && s = -1.)
      in
      if not ok then incr bad
    done
  done;
  if !bad > 0 then
    Format.sprintf "%d inconsistent edge_sign_on_vertex entries" !bad :: errors
  else errors

let check_area_partition ~area_tol t errors =
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
  (* Kites partition each triangle. *)
  let bad = ref 0 in
  for v = 0 to t.n_vertices - 1 do
    let s = Array.fold_left ( +. ) 0. t.kite_areas_on_vertex.(v) in
    if Stats.rel_diff s t.area_triangle.(v) > area_tol then incr bad
  done;
  let errors =
    if !bad > 0 then
      Format.sprintf "%d vertices whose kites do not sum to the triangle area"
        !bad
      :: errors
    else errors
  in
  (* Kites also partition each cell. *)
  let per_cell = Array.make t.n_cells 0. in
  for v = 0 to t.n_vertices - 1 do
    for k = 0 to 2 do
      let c = t.cells_on_vertex.(v).(k) in
      per_cell.(c) <- per_cell.(c) +. t.kite_areas_on_vertex.(v).(k)
    done
  done;
  let bad = ref 0 in
  for c = 0 to t.n_cells - 1 do
    if Stats.rel_diff per_cell.(c) t.area_cell.(c) > area_tol then incr bad
  done;
  if !bad > 0 then
    Format.sprintf "%d cells whose kites do not sum to the cell area" !bad
    :: errors
  else errors

let check_vertex_on_cell_ordering t errors =
  (* vertices_on_cell.(c).(j) must be a vertex of both edge j and
     edge j+1. *)
  let bad = ref 0 in
  for c = 0 to t.n_cells - 1 do
    let n = t.n_edges_on_cell.(c) in
    for j = 0 to n - 1 do
      let v = t.vertices_on_cell.(c).(j) in
      let has e =
        let ve = t.vertices_on_edge.(e) in
        ve.(0) = v || ve.(1) = v
      in
      if
        not
          (has t.edges_on_cell.(c).(j)
          && has t.edges_on_cell.(c).((j + 1) mod n))
      then incr bad
    done
  done;
  if !bad > 0 then
    Format.sprintf "%d vertices_on_cell entries out of order" !bad :: errors
  else errors

let check ?(area_tol = 1e-9) t =
  []
  |> check_euler t
  |> check_edge_cell_symmetry t
  |> check_edge_signs t
  |> check_vertex_signs t
  |> check_area_partition ~area_tol t
  |> check_vertex_on_cell_ordering t
  |> List.rev
