open Mpas_numerics

let earth_omega = 7.292e-5

(* Angle of the tangent-plane direction [d] at point [p], measured
   counter-clockwise from local east (seen from outside the sphere).
   At the poles east is undefined; an arbitrary tangent direction works
   for sorting, but the second axis must be [p x east] so the
   orientation stays counter-clockwise from outside — with a fixed
   (ex, ey) pair the south-pole ordering would silently reverse and
   corrupt that cell's kite walk and TRiSK weights. *)
let tangent_angle p d =
  let east, north =
    match Sphere.tangent_basis p with
    | basis -> basis
    | exception Invalid_argument _ ->
        let east = Vec3.ex in
        (east, Vec3.cross p east)
  in
  atan2 (Vec3.dot d north) (Vec3.dot d east)

(* The vertex shared by edges [e1] and [e2].
   @raise Not_found when they share none. *)
let shared_vertex vertices_on_edge e1 e2 =
  let a = vertices_on_edge.(e1) and b = vertices_on_edge.(e2) in
  if a.(0) = b.(0) || a.(0) = b.(1) then a.(0)
  else if a.(1) = b.(0) || a.(1) = b.(1) then a.(1)
  else raise Not_found

let of_triangulation ?(radius = Sphere.earth_radius)
    ?(coriolis = fun p -> 2. *. earth_omega *. p.Vec3.z) (tri : Icosphere.t) =
  let n_cells = Array.length tri.points in
  let n_vertices = Array.length tri.triangles in
  let x_cell = tri.points in

  (* Enforce counter-clockwise triangles (seen from outside). *)
  let triangles =
    Array.map
      (fun (a, b, c) ->
        if Vec3.triple x_cell.(a) x_cell.(b) x_cell.(c) >= 0. then (a, b, c)
        else (a, c, b))
      tri.triangles
  in

  (* --- primal edges --------------------------------------------------- *)
  let edge_ids = Hashtbl.create (3 * n_vertices) in
  let edge_cells = ref [] in
  let n_edges = ref 0 in
  let edge_of a b =
    let key = (Int.min a b, Int.max a b) in
    match Hashtbl.find_opt edge_ids key with
    | Some e -> e
    | None ->
        let e = !n_edges in
        incr n_edges;
        Hashtbl.add edge_ids key e;
        edge_cells := key :: !edge_cells;
        e
  in
  let cells_on_vertex = Array.map (fun (a, b, c) -> [| a; b; c |]) triangles in
  (* edges_on_vertex.(v).(k) joins cells k and (k+1) mod 3 of vertex v. *)
  let edges_on_vertex =
    Array.map
      (fun (a, b, c) -> [| edge_of a b; edge_of b c; edge_of c a |])
      triangles
  in
  let n_edges = !n_edges in
  let cells_on_edge =
    let arr = Array.make n_edges [||] in
    List.iteri
      (fun i (a, b) -> arr.(n_edges - 1 - i) <- [| a; b |])
      !edge_cells;
    arr
  in

  (* --- vertices on edge ----------------------------------------------- *)
  let vertices_on_edge = Array.make n_edges [| -1; -1 |] in
  Array.iteri
    (fun v edges ->
      Array.iter
        (fun e ->
          let ve = vertices_on_edge.(e) in
          if ve.(0) = -1 then vertices_on_edge.(e) <- [| v; -1 |]
          else if ve.(1) = -1 then vertices_on_edge.(e) <- [| ve.(0); v |]
          else invalid_arg "Build: edge with more than two triangles")
        edges)
    edges_on_vertex;
  Array.iteri
    (fun e ve ->
      if ve.(0) = -1 || ve.(1) = -1 then
        invalid_arg
          (Format.sprintf "Build: edge %d is on the boundary (open surface)" e))
    vertices_on_edge;

  (* --- vertex positions (circumcenters) ------------------------------- *)
  let x_vertex =
    Array.map
      (fun (a, b, c) -> Sphere.circumcenter x_cell.(a) x_cell.(b) x_cell.(c))
      triangles
  in

  (* --- edges around each cell, counter-clockwise ---------------------- *)
  let incident = Array.make n_cells [] in
  Array.iteri
    (fun e ce ->
      incident.(ce.(0)) <- e :: incident.(ce.(0));
      incident.(ce.(1)) <- e :: incident.(ce.(1)))
    cells_on_edge;
  let other_cell e c =
    let ce = cells_on_edge.(e) in
    if ce.(0) = c then ce.(1) else ce.(0)
  in
  let edges_on_cell =
    Array.init n_cells (fun c ->
        let p = x_cell.(c) in
        let angle e =
          tangent_angle p (Vec3.sub x_cell.(other_cell e c) p)
        in
        let edges = Array.of_list incident.(c) in
        Array.sort (fun a b -> compare (angle a) (angle b)) edges;
        edges)
  in
  let n_edges_on_cell = Array.map Array.length edges_on_cell in
  let cells_on_cell =
    Array.mapi
      (fun c edges -> Array.map (fun e -> other_cell e c) edges)
      edges_on_cell
  in
  let vertices_on_cell =
    Array.mapi
      (fun c edges ->
        let n = n_edges_on_cell.(c) in
        Array.init n (fun j ->
            shared_vertex vertices_on_edge edges.(j) edges.((j + 1) mod n)))
      edges_on_cell
  in

  (* --- edge geometry --------------------------------------------------- *)
  let x_edge =
    Array.map
      (fun ce -> Sphere.geodesic_midpoint x_cell.(ce.(0)) x_cell.(ce.(1)))
      cells_on_edge
  in
  let dc_edge =
    Array.map
      (fun ce -> radius *. Sphere.arc_length x_cell.(ce.(0)) x_cell.(ce.(1)))
      cells_on_edge
  in
  let edge_normal =
    Array.mapi
      (fun e ce ->
        let d = Vec3.sub x_cell.(ce.(1)) x_cell.(ce.(0)) in
        Vec3.normalize (Sphere.project_tangent x_edge.(e) d))
      cells_on_edge
  in
  let edge_tangent =
    Array.mapi (fun e n -> Vec3.cross x_edge.(e) n) edge_normal
  in
  (* Order the edge's vertices along the tangent. *)
  Array.iteri
    (fun e ve ->
      let d = Vec3.sub x_vertex.(ve.(1)) x_vertex.(ve.(0)) in
      if Vec3.dot d edge_tangent.(e) < 0. then
        vertices_on_edge.(e) <- [| ve.(1); ve.(0) |])
    vertices_on_edge;
  let dv_edge =
    Array.map
      (fun ve ->
        radius *. Sphere.arc_length x_vertex.(ve.(0)) x_vertex.(ve.(1)))
      vertices_on_edge
  in
  let angle_edge =
    Array.mapi (fun e n -> tangent_angle x_edge.(e) n) edge_normal
  in

  (* --- areas ----------------------------------------------------------- *)
  let r2 = radius *. radius in
  let area_cell =
    Array.init n_cells (fun c ->
        let corners = Array.map (fun v -> x_vertex.(v)) vertices_on_cell.(c) in
        r2 *. Sphere.polygon_area corners)
  in
  let area_triangle =
    Array.map
      (fun (a, b, c) ->
        r2 *. Sphere.triangle_area x_cell.(a) x_cell.(b) x_cell.(c))
      triangles
  in
  let kite_areas_on_vertex =
    Array.init n_vertices (fun v ->
        Array.init 3 (fun k ->
            let c = cells_on_vertex.(v).(k) in
            (* Edges of triangle v incident to cell k: edge k joins
               cells k,k+1 and edge (k+2) mod 3 joins cells k+2,k. *)
            let e_next = edges_on_vertex.(v).(k) in
            let e_prev = edges_on_vertex.(v).((k + 2) mod 3) in
            let quad =
              [| x_cell.(c); x_edge.(e_next); x_vertex.(v); x_edge.(e_prev) |]
            in
            r2 *. Sphere.polygon_area quad))
  in

  (* --- sign arrays ------------------------------------------------------ *)
  let edge_sign_on_cell =
    Array.mapi
      (fun c edges ->
        Array.map
          (fun e -> if cells_on_edge.(e).(0) = c then 1. else -1.)
          edges)
      edges_on_cell
  in
  let edge_sign_on_vertex =
    Array.init n_vertices (fun v ->
        Array.init 3 (fun k ->
            let e = edges_on_vertex.(v).(k) in
            let c_from = cells_on_vertex.(v).(k) in
            if cells_on_edge.(e).(0) = c_from then 1. else -1.))
  in

  Mesh.make
    {
      Mesh.geometry = Mesh.Sphere radius;
      n_cells;
      n_edges;
      n_vertices;
      x_cell;
      x_edge;
      x_vertex;
      n_edges_on_cell;
      cell_edges = Mesh.pack edges_on_cell;
      cell_neighbors = Mesh.pack cells_on_cell;
      cell_vertices = Mesh.pack vertices_on_cell;
      cell_edge_signs = Mesh.pack edge_sign_on_cell;
      vertex_edges = Mesh.pack edges_on_vertex;
      vertex_cells = Mesh.pack cells_on_vertex;
      vertex_kite_areas = Mesh.pack kite_areas_on_vertex;
      vertex_edge_signs = Mesh.pack edge_sign_on_vertex;
      edge_cells = Mesh.pack cells_on_edge;
      edge_vertices = Mesh.pack vertices_on_edge;
      dc_edge;
      dv_edge;
      area_cell;
      area_triangle;
      edge_normal;
      edge_tangent;
      angle_edge;
      f_cell = Array.map coriolis x_cell;
      f_edge = Array.map coriolis x_edge;
      f_vertex = Array.map coriolis x_vertex;
      boundary_edge = Array.make n_edges false;
    }
  |> function
  | Ok m -> m
  | Error errors ->
      invalid_arg
        ("Build: invalid mesh: "
        ^ String.concat "; " (List.map Mesh.Csr.message errors))

let icosahedral ?(radius = Sphere.earth_radius) ?(omega = earth_omega)
    ?(lloyd_iters = 0) ?density ?over_relax ~level () =
  let tri = Icosphere.create ~level in
  let tri = Icosphere.relax ?density ?over_relax ~iters:lloyd_iters tri in
  let coriolis p = 2. *. omega *. p.Vec3.z in
  of_triangulation ~radius ~coriolis tri
