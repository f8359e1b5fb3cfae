open Mpas_numerics
open Mesh

type t = {
  cells : int;
  pentagons : int;
  mean_spacing_m : float;
  spacing_ratio : float;
  area_ratio : float;
  mean_centroid_offset : float;
  min_edge_orthogonality : float;
}

let measure (m : Mesh.t) =
  let pentagons =
    Array.fold_left (fun acc n -> if n = 5 then acc + 1 else acc) 0
      m.n_edges_on_cell
  in
  let dc_lo, dc_hi = Stats.min_max m.dc_edge in
  let a_lo, a_hi = Stats.min_max m.area_cell in
  let radius = match m.geometry with Sphere r -> r | Plane _ -> 1. in
  let csr = m.csr in
  let cell_offset c =
    let o = csr.cell_offsets.(c) and n = m.n_edges_on_cell.(c) in
    let corners =
      Array.init n (fun i -> m.x_vertex.(csr.cell_vertices.(o + i)))
    in
    (* Normalize by the local spacing. *)
    let local = ref 0. in
    for j = o to o + n - 1 do
      local := !local +. m.dc_edge.(csr.cell_edges.(j))
    done;
    let local = !local /. float_of_int n in
    match m.geometry with
    | Sphere _ ->
        let centroid = Sphere.polygon_centroid corners in
        Some (radius *. Sphere.arc_length m.x_cell.(c) centroid /. local)
    | Plane _ ->
        (* Planar vertex positions are stored unwrapped: cells on the
           periodic seam see corners a full domain away, so only
           interior cells are meaningful here. *)
        if Array.exists (fun v -> Vec3.dist v m.x_cell.(c) > 2. *. local) corners
        then None
        else begin
          let centroid =
            Vec3.scale (1. /. float_of_int (Array.length corners))
              (Array.fold_left Vec3.add Vec3.zero corners)
          in
          Some (Vec3.dist m.x_cell.(c) centroid /. local)
        end
  in
  let offsets =
    Array.init m.n_cells cell_offset
    |> Array.to_list |> List.filter_map Fun.id |> Array.of_list
  in
  let offsets = if Array.length offsets = 0 then [| 0. |] else offsets in
  let ortho = ref 1. in
  for e = 0 to m.n_edges - 1 do
    let d =
      Vec3.sub
        m.x_cell.(csr.edge_cells.((2 * e) + 1))
        m.x_cell.(csr.edge_cells.(2 * e))
    in
    match m.geometry with
    | Sphere _ ->
        let d = Sphere.project_tangent m.x_edge.(e) d in
        let c = Float.abs (Vec3.dot (Vec3.normalize d) m.edge_normal.(e)) in
        ortho := Float.min !ortho c
    | Plane _ ->
        (* Skip periodic-seam edges, whose unwrapped endpoints are a
           domain apart. *)
        if Vec3.norm d < 1.5 *. m.dc_edge.(e) then begin
          let c = Float.abs (Vec3.dot (Vec3.normalize d) m.edge_normal.(e)) in
          ortho := Float.min !ortho c
        end
  done;
  {
    cells = m.n_cells;
    pentagons;
    mean_spacing_m = Mesh.mean_spacing m;
    spacing_ratio = dc_hi /. dc_lo;
    area_ratio = a_hi /. a_lo;
    mean_centroid_offset = Stats.mean offsets;
    min_edge_orthogonality = !ortho;
  }

let to_string q =
  Format.sprintf
    "cells %d (%d pentagons), mean spacing %.1f km, dc ratio %.3f, area \
     ratio %.3f, centroid offset %.4f, orthogonality %.6f"
    q.cells q.pentagons (q.mean_spacing_m /. 1000.) q.spacing_ratio
    q.area_ratio q.mean_centroid_offset q.min_edge_orthogonality
