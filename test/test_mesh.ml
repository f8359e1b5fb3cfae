open Mpas_numerics
open Mpas_mesh

(* Shared fixtures: building meshes is the expensive part, do it once. *)
let ico3 = lazy (Build.icosahedral ~level:3 ())
let ico3_relaxed = lazy (Build.icosahedral ~level:3 ~lloyd_iters:4 ())
let hex = lazy (Planar_hex.create ~nx:8 ~ny:6 ~dc:1000. ())

let check_float = Alcotest.(check (float 1e-9))

(* --- icosphere ------------------------------------------------------------ *)

let test_icosphere_counts () =
  List.iter
    (fun level ->
      let t = Icosphere.create ~level in
      Alcotest.(check int)
        "points" (Icosphere.points_at_level level)
        (Array.length t.Icosphere.points);
      Alcotest.(check int)
        "triangles"
        (20 * (1 lsl (2 * level)))
        (Array.length t.Icosphere.triangles))
    [ 0; 1; 2; 3 ]

let test_icosphere_unit_points () =
  let t = Icosphere.create ~level:2 in
  Array.iter
    (fun p -> check_float "unit" 1. (Vec3.norm p))
    t.Icosphere.points

let test_icosphere_orientation () =
  let t = Icosphere.create ~level:2 in
  Array.iter
    (fun (a, b, c) ->
      Alcotest.(check bool)
        "ccw" true
        (Vec3.triple t.Icosphere.points.(a) t.Icosphere.points.(b)
           t.Icosphere.points.(c)
        > 0.))
    t.Icosphere.triangles

let test_lloyd_improves_centroidality () =
  let t = Icosphere.create ~level:3 in
  let before = Icosphere.centroid_offset t in
  let after = Icosphere.centroid_offset (Icosphere.relax ~iters:3 t) in
  Alcotest.(check bool)
    (Format.sprintf "offset shrinks (%g -> %g)" before after)
    true (after < before /. 2.)

let test_paper_mesh_sizes () =
  (* Table III: the paper's four meshes are levels 6..9. *)
  Alcotest.(check (list int))
    "Table III cell counts"
    [ 40962; 163842; 655362; 2621442 ]
    (List.map Icosphere.points_at_level [ 6; 7; 8; 9 ])

(* --- spherical mesh -------------------------------------------------------- *)

let test_mesh_invariants () =
  Alcotest.(check (list string)) "no violations" []
    (Mesh.check ~area_tol:1e-3 (Lazy.force ico3))

let test_mesh_invariants_relaxed () =
  Alcotest.(check (list string)) "no violations" []
    (Mesh.check ~area_tol:1e-3 (Lazy.force ico3_relaxed))

let test_mesh_counts () =
  let m = Lazy.force ico3 in
  Alcotest.(check int) "cells" 642 m.n_cells;
  Alcotest.(check int) "edges" 1920 m.n_edges;
  Alcotest.(check int) "vertices" 1280 m.n_vertices;
  Alcotest.(check int) "pentagons" 12
    (Array.to_seq m.n_edges_on_cell
    |> Seq.filter (fun n -> n = 5)
    |> Seq.length)

let test_cell_areas_positive () =
  let m = Lazy.force ico3 in
  Array.iter
    (fun a -> Alcotest.(check bool) "positive" true (a > 0.))
    m.area_cell;
  Array.iter
    (fun a -> Alcotest.(check bool) "positive" true (a > 0.))
    m.area_triangle

let test_edge_orthogonality () =
  (* On a Voronoi/Delaunay pair the edge normal and tangent must be
     orthogonal unit vectors with t = k x n. *)
  let m = Lazy.force ico3 in
  for e = 0 to m.n_edges - 1 do
    check_float "normal unit" 1. (Vec3.norm m.edge_normal.(e));
    check_float "orthogonal" 0. (Vec3.dot m.edge_normal.(e) m.edge_tangent.(e));
    let k = m.x_edge.(e) in
    Alcotest.(check bool)
      "t = k x n" true
      (Vec3.approx_equal ~eps:1e-12
         (Vec3.cross k m.edge_normal.(e))
         m.edge_tangent.(e))
  done

let test_vertices_follow_tangent () =
  let m = Lazy.force ico3 in
  for e = 0 to m.n_edges - 1 do
    let v1 = m.vertices_on_edge.(e).(0) and v2 = m.vertices_on_edge.(e).(1) in
    let d = Vec3.sub m.x_vertex.(v2) m.x_vertex.(v1) in
    Alcotest.(check bool)
      "tangent order" true
      (Vec3.dot d m.edge_tangent.(e) > 0.)
  done

let test_coriolis () =
  let m = Lazy.force ico3 in
  for c = 0 to m.n_cells - 1 do
    Alcotest.(check (float 1e-12))
      "f = 2 omega sin(lat)"
      (2. *. Build.earth_omega *. sin m.lat_cell.(c))
      m.f_cell.(c)
  done

let solid_body_u (m : Mesh.t) om =
  Array.init m.n_edges (fun e ->
      let vel = Vec3.scale om (Vec3.cross Vec3.ez m.x_edge.(e)) in
      Vec3.dot vel m.edge_normal.(e))

let test_solid_body_divergence_free () =
  let m = Lazy.force ico3 in
  let u = solid_body_u m 10. in
  for c = 0 to m.n_cells - 1 do
    let acc = ref 0. in
    for j = 0 to m.n_edges_on_cell.(c) - 1 do
      let e = m.edges_on_cell.(c).(j) in
      acc := !acc +. (m.edge_sign_on_cell.(c).(j) *. u.(e) *. m.dv_edge.(e))
    done;
    Alcotest.(check (float 1e-6)) "div = 0" 0. (!acc /. m.area_cell.(c))
  done

let test_solid_body_vorticity () =
  let m = Lazy.force ico3 in
  let om = 10. in
  let u = solid_body_u m om in
  let radius = match m.geometry with Mesh.Sphere r -> r | _ -> assert false in
  for v = 0 to m.n_vertices - 1 do
    let acc = ref 0. in
    for k = 0 to 2 do
      let e = m.edges_on_vertex.(v).(k) in
      acc := !acc +. (m.edge_sign_on_vertex.(v).(k) *. u.(e) *. m.dc_edge.(e))
    done;
    let zeta = !acc /. m.area_triangle.(v) in
    let exact = 2. *. om *. sin m.lat_vertex.(v) /. radius in
    Alcotest.(check bool)
      "vorticity within 5% of scale" true
      (Float.abs (zeta -. exact) < 0.05 *. (2. *. om /. radius))
  done

let test_trisk_antisymmetry () =
  let m = Lazy.force ico3 in
  let find_w e e' =
    let rec loop i =
      if i >= Array.length m.edges_on_edge.(e) then None
      else if m.edges_on_edge.(e).(i) = e' then Some m.weights_on_edge.(e).(i)
      else loop (i + 1)
    in
    loop 0
  in
  for e = 0 to m.n_edges - 1 do
    Array.iteri
      (fun i e' ->
        match find_w e' e with
        | None -> Alcotest.fail "weights not mutual"
        | Some w' ->
            let a = m.dc_edge.(e) *. m.dv_edge.(e)
            and a' = m.dc_edge.(e') *. m.dv_edge.(e') in
            Alcotest.(check (float 1e-10))
              "A_e w + A_e' w' = 0" 0.
              (((a *. m.weights_on_edge.(e).(i)) +. (a' *. w')) /. a))
      m.edges_on_edge.(e)
  done

let test_tangential_reconstruction_accuracy () =
  (* First-order accurate on the relaxed (SCVT-like) grid. *)
  let m = Lazy.force ico3_relaxed in
  let om = 10. in
  let u = solid_body_u m om in
  let errs =
    Array.init m.n_edges (fun e ->
        let acc = ref 0. in
        Array.iteri
          (fun i e' -> acc := !acc +. (m.weights_on_edge.(e).(i) *. u.(e')))
          m.edges_on_edge.(e);
        let vel = Vec3.scale om (Vec3.cross Vec3.ez m.x_edge.(e)) in
        Float.abs (!acc -. Vec3.dot vel m.edge_tangent.(e)))
  in
  Alcotest.(check bool)
    (Format.sprintf "mean err %g < 2%% of scale" (Stats.mean errs))
    true
    (Stats.mean errs < 0.02 *. om)

let test_with_boundary_edges () =
  let m = Lazy.force ico3 in
  let m' = Mesh.with_boundary_edges m (fun e -> e mod 7 = 0) in
  Alcotest.(check bool) "original untouched" false m.boundary_edge.(0);
  Alcotest.(check bool) "mask set" true m'.boundary_edge.(0);
  Alcotest.(check bool) "mask clear" false m'.boundary_edge.(1)

let test_edge_index_on_cell () =
  let m = Lazy.force ico3 in
  let c = 37 in
  let e = m.edges_on_cell.(c).(2) in
  Alcotest.(check int) "found" 2 (Mesh.edge_index_on_cell m ~c ~e);
  Alcotest.(check bool)
    "missing raises" true
    (let foreign =
       (* An edge of a non-adjacent cell. *)
       m.edges_on_cell.((c + m.n_cells / 2) mod m.n_cells).(0)
     in
     match Mesh.edge_index_on_cell m ~c ~e:foreign with
     | _ -> false
     | exception Not_found -> true)

let test_fold_edges_on_cell () =
  let m = Lazy.force ico3 in
  let n = Mesh.fold_edges_on_cell m 5 (fun acc _ -> acc + 1) 0 in
  Alcotest.(check int) "count" m.n_edges_on_cell.(5) n

(* --- planar hex ------------------------------------------------------------ *)

let test_hex_invariants () =
  Alcotest.(check (list string)) "no violations" []
    (Mesh.check (Lazy.force hex))

let test_hex_counts () =
  let m = Lazy.force hex in
  Alcotest.(check int) "cells" 48 m.n_cells;
  Alcotest.(check int) "edges" 144 m.n_edges;
  Alcotest.(check int) "vertices" 96 m.n_vertices

let test_hex_geometry_exact () =
  let m = Lazy.force hex in
  let dc = 1000. in
  Array.iter (fun d -> check_float "dc" dc d) m.dc_edge;
  Array.iter (fun d -> check_float "dv" (dc /. sqrt 3.) d) m.dv_edge;
  Array.iter
    (fun a -> check_float "hex area" (sqrt 3. /. 2. *. dc *. dc) a)
    m.area_cell

let test_hex_uniform_flow_exact () =
  (* On the regular hex mesh the TRiSK reconstruction of a uniform flow
     is exact, not just consistent. *)
  let m = Lazy.force hex in
  let flow = Vec3.make 3.7 (-1.2) 0. in
  let u = Array.init m.n_edges (fun e -> Vec3.dot flow m.edge_normal.(e)) in
  for e = 0 to m.n_edges - 1 do
    let acc = ref 0. in
    Array.iteri
      (fun i e' -> acc := !acc +. (m.weights_on_edge.(e).(i) *. u.(e')))
      m.edges_on_edge.(e);
    Alcotest.(check (float 1e-10))
      "tangential exact"
      (Vec3.dot flow m.edge_tangent.(e))
      !acc
  done

let test_hex_rejects_bad_args () =
  Alcotest.(check bool)
    "small nx raises" true
    (match Planar_hex.create ~nx:2 ~ny:5 ~dc:1. () with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool)
    "bad dc raises" true
    (match Planar_hex.create ~nx:4 ~ny:4 ~dc:0. () with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- multiresolution (variable density) ------------------------------------ *)

let test_variable_resolution_mesh () =
  (* A density bump must locally shrink the cells while keeping every
     structural invariant; with fixed topology only gentle contrasts
     are reachable (DESIGN.md), so the test asserts direction and a
     modest ratio rather than the asymptotic density^(-1/4) law. *)
  let center = Sphere.of_lonlat 0.5 0.3 in
  let density p =
    let d = Sphere.arc_length center p in
    1. +. (15. *. exp (-.(d *. d) /. 0.3))
  in
  let m =
    Build.icosahedral ~level:3 ~lloyd_iters:80 ~density ~over_relax:1.6 ()
  in
  Alcotest.(check (list string)) "invariants hold" []
    (Mesh.check ~area_tol:1e-3 m);
  let near = ref [] and far = ref [] in
  for e = 0 to m.n_edges - 1 do
    let d = Sphere.arc_length center m.x_edge.(e) in
    if d < 0.3 then near := m.dc_edge.(e) :: !near
    else if d > 1.5 then far := m.dc_edge.(e) :: !far
  done;
  let mean l = Stats.mean (Array.of_list l) in
  let ratio = mean !far /. mean !near in
  Alcotest.(check bool)
    (Format.sprintf "refined region is finer (ratio %.2f)" ratio)
    true (ratio > 1.12)

let test_over_relaxation_accelerates () =
  let t = Icosphere.create ~level:3 in
  let plain = Icosphere.centroid_offset (Icosphere.relax ~iters:3 t) in
  let fast =
    Icosphere.centroid_offset (Icosphere.relax ~over_relax:1.6 ~iters:3 t)
  in
  Alcotest.(check bool)
    (Format.sprintf "over-relaxed closer to SCVT (%.2e vs %.2e)" fast plain)
    true (fast < plain)

(* --- packed CSR view -------------------------------------------------------- *)

(* Each cell-row kite is the ragged [kite_areas_on_vertex] entry of the
   vertex slot that links back to the cell, bit for bit. *)
let check_cell_kites name (m : Mesh.t) =
  let csr = Mesh.csr m in
  Alcotest.(check int)
    (name ^ ": one kite per cell corner")
    (Array.length csr.cell_vertices)
    (Array.length csr.cell_kite_areas);
  for c = 0 to m.n_cells - 1 do
    Array.iteri
      (fun j v ->
        let k = Mesh_index.local_index m.cells_on_vertex.(v) c in
        let want = m.kite_areas_on_vertex.(v).(k) in
        let got = csr.cell_kite_areas.(csr.cell_offsets.(c) + j) in
        if Int64.bits_of_float got <> Int64.bits_of_float want then
          Alcotest.failf "%s: cell %d corner %d kite %h, expected %h" name c j
            got want)
      m.vertices_on_cell.(c)
  done

let check_csr_view name (m : Mesh.t) =
  let csr = Mesh.csr m in
  Alcotest.(check (list string)) (name ^ ": no CSR violations") []
    (Mesh.csr_errors m csr);
  (* Offsets: start at 0, monotone, close over the data arrays. *)
  let check_offsets tag offsets n data_len =
    Alcotest.(check int) (tag ^ " length") (n + 1) (Array.length offsets);
    Alcotest.(check int) (tag ^ " starts at 0") 0 offsets.(0);
    for i = 0 to n - 1 do
      Alcotest.(check bool) (tag ^ " monotone") true
        (offsets.(i) <= offsets.(i + 1))
    done;
    Alcotest.(check int) (tag ^ " closes") data_len offsets.(n)
  in
  check_offsets "cell offsets" csr.cell_offsets m.n_cells
    (Array.length csr.cell_edges);
  check_offsets "eoe offsets" csr.eoe_offsets m.n_edges
    (Array.length csr.eoe_edges);
  (* Round trip: every flat entry aliases its ragged counterpart. *)
  let flat_eq_ragged tag flat offsets ragged =
    Array.iteri
      (fun i row ->
        Array.iteri
          (fun j x ->
            if flat.(offsets.(i) + j) <> x then
              Alcotest.failf "%s: %s row %d slot %d differs" name tag i j)
          row)
      ragged
  in
  flat_eq_ragged "edges_on_cell" csr.cell_edges csr.cell_offsets
    m.edges_on_cell;
  flat_eq_ragged "cells_on_cell" csr.cell_neighbors csr.cell_offsets
    m.cells_on_cell;
  flat_eq_ragged "vertices_on_cell" csr.cell_vertices csr.cell_offsets
    m.vertices_on_cell;
  flat_eq_ragged "edge_sign_on_cell" csr.cell_edge_signs csr.cell_offsets
    m.edge_sign_on_cell;
  flat_eq_ragged "edges_on_edge" csr.eoe_edges csr.eoe_offsets m.edges_on_edge;
  flat_eq_ragged "weights_on_edge" csr.eoe_weights csr.eoe_offsets
    m.weights_on_edge;
  let strided tag flat stride ragged =
    Array.iteri
      (fun i row ->
        Array.iteri
          (fun j x ->
            if flat.((stride * i) + j) <> x then
              Alcotest.failf "%s: %s row %d slot %d differs" name tag i j)
          row)
      ragged
  in
  strided "edges_on_vertex" csr.vertex_edges 3 m.edges_on_vertex;
  strided "cells_on_vertex" csr.vertex_cells 3 m.cells_on_vertex;
  strided "kite_areas_on_vertex" csr.vertex_kite_areas 3 m.kite_areas_on_vertex;
  strided "edge_sign_on_vertex" csr.vertex_edge_signs 3 m.edge_sign_on_vertex;
  strided "cells_on_edge" csr.edge_cells 2 m.cells_on_edge;
  strided "vertices_on_edge" csr.edge_vertices 2 m.vertices_on_edge;
  check_cell_kites name m;
  (* Memoized: the builders construct the view eagerly and [Mesh.csr]
     must keep returning that same value. *)
  Alcotest.(check bool) (name ^ ": memoized") true (Mesh.csr m == csr)

let test_csr_view_sphere () = check_csr_view "ico3" (Lazy.force ico3)
let test_csr_view_hex () = check_csr_view "hex" (Lazy.force hex)

let test_csr_cache_shared_by_copies () =
  let m = Lazy.force ico3 in
  let m' = Mesh.with_boundary_edges m (fun _ -> false) in
  (* Connectivity is shared, so the copy may reuse the memoized view. *)
  Alcotest.(check bool) "copy reuses the view" true (Mesh.csr m' == Mesh.csr m)

let test_csr_rebuilt_after_io () =
  (* Deserialized meshes start with an empty cache and build on first
     use; the rebuilt view must validate and match the ragged arrays. *)
  let m = Mesh_io.of_string (Mesh_io.to_string (Lazy.force hex)) in
  check_csr_view "hex after io" m

let test_csr_validate_typed () =
  let m = Lazy.force hex in
  let csr = Mesh.csr m in
  (* the typed report agrees with the rendered one *)
  Alcotest.(check (list string))
    "valid view: no typed errors" []
    (List.map Mesh.Csr.message (Mesh.Csr.validate m csr));
  (* a corrupted copy is pinned to the offending table *)
  let bad = { csr with Mesh.cell_edges = Array.copy csr.Mesh.cell_edges } in
  bad.Mesh.cell_edges.(0) <- m.Mesh.n_edges;
  let errors = Mesh.Csr.validate m bad in
  Alcotest.(check bool) "corruption detected" true (errors <> []);
  List.iter
    (fun e ->
      Alcotest.(check (option string))
        (Mesh.Csr.message e ^ " names cell_edges")
        (Some "cell_edges") (Mesh.Csr.error_table e);
      match e with
      | Mesh.Csr.Out_of_range { got; bound; _ } ->
          Alcotest.(check int) "offending value" m.Mesh.n_edges got;
          Alcotest.(check int) "bound" m.Mesh.n_edges bound
      | _ -> Alcotest.fail ("unexpected error: " ^ Mesh.Csr.message e))
    errors

let test_cell_kite_areas_bounded () =
  let hex = Lazy.force hex in
  let bounded = Mesh.with_boundary_edges hex (fun e -> e mod 7 = 0) in
  Alcotest.(check bool) "hex copy is bounded" true bounded.has_boundary;
  check_cell_kites "bounded hex" bounded

let test_missing_back_link_typed () =
  let m = Lazy.force hex in
  let csr = Mesh.csr m in
  (* Point vertex 0's first slot at a cell that is not one of its own
     and does not have vertex 0 as a corner: only the old cell loses
     its back link. *)
  let own = csr.vertex_cells.(0) in
  let stranger =
    let rec find c =
      if Array.mem c m.cells_on_vertex.(0) || Array.mem 0 m.vertices_on_cell.(c)
      then find (c + 1)
      else c
    in
    find 0
  in
  let bad = { csr with Mesh.vertex_cells = Array.copy csr.vertex_cells } in
  bad.vertex_cells.(0) <- stranger;
  (match Mesh.Csr.validate m bad with
  | [ Mesh.Csr.Missing_back_link { vertex; cell } ] ->
      Alcotest.(check (pair int int)) "vertex and cell" (0, own) (vertex, cell)
  | errs ->
      Alcotest.failf "expected one Missing_back_link, got [%s]"
        (String.concat "; " (List.map Mesh.Csr.message errs)));
  (* the same corruption in the ragged tables stops the view being
     built, so no kite table is filled from it *)
  let cells_on_vertex = Array.map Array.copy m.cells_on_vertex in
  cells_on_vertex.(0).(0) <- stranger;
  let broken = { m with cells_on_vertex; csr_cache = None; recon_cache = None } in
  match Mesh.csr broken with
  | _ -> Alcotest.fail "Mesh.csr accepted a missing back link"
  | exception Invalid_argument msg ->
      Alcotest.(check string) "message"
        (Printf.sprintf
           "Mesh.csr: invalid mesh: vertex 0 does not list cell %d back"
           own)
        msg

(* The reconstruction table is per mesh: built once, fitted to the CSR
   rows, and rebuilt (equal, not shared) for a deserialized mesh. *)
let test_recon_table_per_mesh () =
  let m = Lazy.force ico3 in
  let r = Mesh.recon_coeffs m in
  Alcotest.(check bool) "memoized" true (Mesh.recon_coeffs m == r);
  let m' = Mesh_io.of_string (Mesh_io.to_string m) in
  Alcotest.(check bool) "io copy starts empty" true (m'.recon_cache = None);
  let r' = Mesh.recon_coeffs m' in
  Alcotest.(check bool) "io copy rebuilds its own" true (r' != r);
  Alcotest.(check bool) "rebuilt table equal" true (r' = r);
  Alcotest.(check (list string)) "fits the view" []
    (List.map Mesh.Csr.message (Mesh.Csr.validate_recon (Mesh.csr m') r'))

(* --- mesh I/O ------------------------------------------------------------- *)

let meshes_equal (a : Mesh.t) (b : Mesh.t) =
  (* The text format promises a bit-for-bit round trip. *)
  a.geometry = b.geometry && a.n_cells = b.n_cells && a.n_edges = b.n_edges
  && a.n_vertices = b.n_vertices && a.max_edges = b.max_edges
  && a.x_cell = b.x_cell && a.x_edge = b.x_edge && a.x_vertex = b.x_vertex
  && a.edges_on_cell = b.edges_on_cell
  && a.cells_on_edge = b.cells_on_edge
  && a.weights_on_edge = b.weights_on_edge
  && a.kite_areas_on_vertex = b.kite_areas_on_vertex
  && a.edge_sign_on_cell = b.edge_sign_on_cell
  && a.edge_sign_on_vertex = b.edge_sign_on_vertex
  && a.dc_edge = b.dc_edge && a.dv_edge = b.dv_edge
  && a.area_cell = b.area_cell && a.area_triangle = b.area_triangle
  && a.f_cell = b.f_cell && a.f_edge = b.f_edge && a.f_vertex = b.f_vertex
  && a.boundary_edge = b.boundary_edge && a.angle_edge = b.angle_edge
  && a.lon_cell = b.lon_cell && a.lat_vertex = b.lat_vertex

let test_io_roundtrip_sphere () =
  let m = Lazy.force ico3 in
  let m' = Mesh_io.of_string (Mesh_io.to_string m) in
  Alcotest.(check bool) "bitwise roundtrip" true (meshes_equal m m');
  Alcotest.(check (list string)) "roundtrip passes invariants" []
    (Mesh.check ~area_tol:1e-3 m')

let test_io_roundtrip_hex () =
  let m = Lazy.force hex in
  let m' = Mesh_io.of_string (Mesh_io.to_string m) in
  Alcotest.(check bool) "bitwise roundtrip" true (meshes_equal m m')

let test_io_file_roundtrip () =
  (* save -> load through an actual file, bit-identical on both mesh
     families (the string round trips above bypass the disk path). *)
  List.iter
    (fun (family, m) ->
      let path = Filename.temp_file "mesh" ".txt" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Mesh_io.save m path;
          let m' = Mesh_io.load path in
          Alcotest.(check bool)
            (family ^ " file roundtrip")
            true (meshes_equal m m');
          Alcotest.(check (list string))
            (family ^ " reloaded mesh passes invariants")
            []
            (Mesh.check ~area_tol:1e-3 m')))
    [ ("sphere", Lazy.force ico3); ("planar hex", Lazy.force hex) ]

let test_io_rejects_garbage () =
  List.iter
    (fun garbage ->
      Alcotest.(check bool) "rejects malformed input" true
        (match Mesh_io.of_string garbage with
        | _ -> false
        | exception Failure _ -> true))
    [ ""; "mpas-mesh 99"; "hello world"; "mpas-mesh 1\ngeometry cube" ]

(* --- quality ----------------------------------------------------------------- *)

let test_quality_hex_is_perfect () =
  let q = Quality.measure (Lazy.force hex) in
  Alcotest.(check int) "no pentagons" 0 q.Quality.pentagons;
  Alcotest.(check (float 1e-9)) "uniform spacing" 1. q.Quality.spacing_ratio;
  Alcotest.(check (float 1e-9)) "uniform areas" 1. q.Quality.area_ratio;
  Alcotest.(check (float 1e-9)) "centroidal" 0. q.Quality.mean_centroid_offset;
  Alcotest.(check (float 1e-9)) "orthogonal" 1. q.Quality.min_edge_orthogonality

let test_quality_lloyd_improves () =
  let raw = Quality.measure (Lazy.force ico3) in
  let relaxed = Quality.measure (Lazy.force ico3_relaxed) in
  Alcotest.(check int) "12 pentagons" 12 raw.Quality.pentagons;
  Alcotest.(check bool) "offset shrinks" true
    (relaxed.Quality.mean_centroid_offset
    < raw.Quality.mean_centroid_offset /. 2.);
  Alcotest.(check bool) "report renders" true
    (String.length (Quality.to_string relaxed) > 20)

(* --- VTK export -------------------------------------------------------------- *)

let test_vtk_structure () =
  let m = Lazy.force ico3 in
  let field = Array.init m.n_cells float_of_int in
  let s = Vtk.to_string m [ ("h", field) ] in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check string) "header" "# vtk DataFile Version 3.0"
    (List.hd lines);
  let count prefix =
    List.length
      (List.filter
         (fun l ->
           String.length l >= String.length prefix
           && String.sub l 0 (String.length prefix) = prefix)
         lines)
  in
  Alcotest.(check int) "one POINTS section" 1 (count "POINTS");
  Alcotest.(check int) "one POLYGONS section" 1 (count "POLYGONS");
  Alcotest.(check int) "one SCALARS section" 1 (count "SCALARS");
  (* POLYGONS declares n_cells polygons and the exact token count. *)
  let poly_line =
    List.find (fun l -> String.length l > 8 && String.sub l 0 8 = "POLYGONS") lines
  in
  (match String.split_on_char ' ' poly_line with
  | [ _; n; size ] ->
      Alcotest.(check int) "polygon count" m.n_cells (int_of_string n);
      Alcotest.(check int) "token count"
        (Array.fold_left (fun acc k -> acc + k + 1) 0 m.n_edges_on_cell)
        (int_of_string size)
  | _ -> Alcotest.fail "malformed POLYGONS header")

let test_vtk_rejects_bad_fields () =
  let m = Lazy.force ico3 in
  Alcotest.(check bool) "wrong length" true
    (match Vtk.to_string m [ ("x", [| 1. |]) ] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "bad name" true
    (match Vtk.to_string m [ ("a b", Array.make m.n_cells 0.) ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- remapping ---------------------------------------------------------------- *)

let test_locator_exact_on_centers () =
  let m = Lazy.force ico3 in
  let loc = Remap.locator m in
  (* Querying every cell center must return that cell, in any order. *)
  let order = Array.init m.n_cells (fun c -> (c * 131) mod m.n_cells) in
  Array.iter
    (fun c ->
      Alcotest.(check int) "locates its own center" c
        (Remap.nearest_cell loc m.x_cell.(c)))
    order

let test_locator_nearest_is_truly_nearest () =
  let m = Lazy.force ico3_relaxed in
  let loc = Remap.locator m in
  let r = Rng.create 12L in
  for _ = 1 to 200 do
    let p =
      Sphere.of_lonlat (Rng.uniform r (-3.) 3.) (Rng.uniform r (-1.5) 1.5)
    in
    let got = Remap.nearest_cell loc p in
    let brute = ref 0 in
    for c = 1 to m.n_cells - 1 do
      if Vec3.dist p m.x_cell.(c) < Vec3.dist p m.x_cell.(!brute) then
        brute := c
    done;
    Alcotest.(check int) "matches brute force" !brute got
  done

let test_remap_identity () =
  let m = Lazy.force ico3 in
  let r = Rng.create 13L in
  let field = Array.init m.n_cells (fun _ -> Rng.uniform r 0. 1.) in
  let mapped = Remap.remap ~src:m ~dst:m field in
  Alcotest.(check bool) "same mesh copies exactly" true (mapped = field)

let test_remap_constant_and_smooth () =
  let coarse = Lazy.force ico3 in
  let fine = Build.icosahedral ~level:4 ~lloyd_iters:2 () in
  let const = Array.make coarse.n_cells 42. in
  Array.iter
    (fun x -> Alcotest.(check (float 1e-9)) "constant preserved" 42. x)
    (Remap.remap ~src:coarse ~dst:fine const);
  (* A smooth field remaps with error well below its amplitude. *)
  let f (p : Vec3.t) = sin (2. *. p.Vec3.x) +. p.Vec3.z in
  let field = Array.map f coarse.x_cell in
  let exact = Array.map f fine.x_cell in
  let mapped = Remap.remap ~src:coarse ~dst:fine field in
  let err = Stats.l2_diff mapped exact /. Stats.l2_norm exact in
  Alcotest.(check bool)
    (Format.sprintf "smooth field rel err %.3f < 0.05" err)
    true (err < 0.05)

let test_l2_error_of_same_field_small () =
  let coarse = Lazy.force ico3 in
  let fine = Build.icosahedral ~level:4 ~lloyd_iters:2 () in
  let f (p : Vec3.t) = p.Vec3.z ** 2. in
  let e =
    Remap.l2_error ~coarse ~fine
      ~field:(Array.map f coarse.x_cell)
      ~reference:(Array.map f fine.x_cell)
  in
  Alcotest.(check bool) (Format.sprintf "err %.4f" e) true (e < 0.03)

(* --- properties -------------------------------------------------------------- *)

let prop_io_roundtrip_any_hex =
  QCheck.Test.make ~name:"io roundtrip on random hex meshes" ~count:6
    QCheck.(pair (int_range 3 7) (int_range 3 7))
    (fun (nx, ny) ->
      let m = Planar_hex.create ~nx ~ny ~dc:321.5 () in
      meshes_equal m (Mesh_io.of_string (Mesh_io.to_string m)))


let prop_mesh_levels_pass_invariants =
  QCheck.Test.make ~name:"icosahedral meshes pass invariants" ~count:3
    QCheck.(int_range 1 3)
    (fun level ->
      Mesh.check ~area_tol:1e-2 (Build.icosahedral ~level ()) = [])

let prop_hex_sizes_pass_invariants =
  QCheck.Test.make ~name:"hex meshes pass invariants" ~count:8
    QCheck.(pair (int_range 3 9) (int_range 3 9))
    (fun (nx, ny) ->
      Mesh.check (Planar_hex.create ~nx ~ny ~dc:250. ()) = [])

let prop_kites_partition_triangles =
  QCheck.Test.make ~name:"kites partition triangles" ~count:5
    QCheck.(int_range 1 3)
    (fun level ->
      let m = Build.icosahedral ~level () in
      Array.for_all Fun.id
        (Array.init m.n_vertices (fun v ->
             let s = Array.fold_left ( +. ) 0. m.kite_areas_on_vertex.(v) in
             Stats.rel_diff s m.area_triangle.(v) < 1e-6)))

let () =
  Alcotest.run "mesh"
    [
      ( "icosphere",
        [
          Alcotest.test_case "counts" `Quick test_icosphere_counts;
          Alcotest.test_case "unit points" `Quick test_icosphere_unit_points;
          Alcotest.test_case "orientation" `Quick test_icosphere_orientation;
          Alcotest.test_case "lloyd" `Quick test_lloyd_improves_centroidality;
          Alcotest.test_case "paper sizes" `Quick test_paper_mesh_sizes;
        ] );
      ( "sphere mesh",
        [
          Alcotest.test_case "invariants" `Quick test_mesh_invariants;
          Alcotest.test_case "invariants (relaxed)" `Quick
            test_mesh_invariants_relaxed;
          Alcotest.test_case "counts" `Quick test_mesh_counts;
          Alcotest.test_case "areas positive" `Quick test_cell_areas_positive;
          Alcotest.test_case "edge frames" `Quick test_edge_orthogonality;
          Alcotest.test_case "vertex order" `Quick test_vertices_follow_tangent;
          Alcotest.test_case "coriolis" `Quick test_coriolis;
          Alcotest.test_case "divergence-free" `Quick
            test_solid_body_divergence_free;
          Alcotest.test_case "vorticity" `Quick test_solid_body_vorticity;
          Alcotest.test_case "trisk antisymmetry" `Quick test_trisk_antisymmetry;
          Alcotest.test_case "tangential accuracy" `Quick
            test_tangential_reconstruction_accuracy;
          Alcotest.test_case "boundary mask" `Quick test_with_boundary_edges;
          Alcotest.test_case "edge index" `Quick test_edge_index_on_cell;
          Alcotest.test_case "fold edges" `Quick test_fold_edges_on_cell;
        ] );
      ( "planar hex",
        [
          Alcotest.test_case "invariants" `Quick test_hex_invariants;
          Alcotest.test_case "counts" `Quick test_hex_counts;
          Alcotest.test_case "geometry" `Quick test_hex_geometry_exact;
          Alcotest.test_case "uniform flow" `Quick test_hex_uniform_flow_exact;
          Alcotest.test_case "bad args" `Quick test_hex_rejects_bad_args;
        ] );
      ( "csr layout",
        [
          Alcotest.test_case "sphere invariants" `Quick test_csr_view_sphere;
          Alcotest.test_case "hex invariants" `Quick test_csr_view_hex;
          Alcotest.test_case "copies share view" `Quick
            test_csr_cache_shared_by_copies;
          Alcotest.test_case "typed validation" `Quick
            test_csr_validate_typed;
          Alcotest.test_case "rebuilt after io" `Quick
            test_csr_rebuilt_after_io;
          Alcotest.test_case "bounded hex kites" `Quick
            test_cell_kite_areas_bounded;
          Alcotest.test_case "missing back link typed" `Quick
            test_missing_back_link_typed;
          Alcotest.test_case "recon table per mesh" `Quick
            test_recon_table_per_mesh;
        ] );
      ( "multiresolution",
        [
          Alcotest.test_case "variable density" `Slow
            test_variable_resolution_mesh;
          Alcotest.test_case "over-relaxation" `Quick
            test_over_relaxation_accelerates;
        ] );
      ( "mesh io",
        [
          Alcotest.test_case "sphere roundtrip" `Quick test_io_roundtrip_sphere;
          Alcotest.test_case "hex roundtrip" `Quick test_io_roundtrip_hex;
          Alcotest.test_case "file roundtrip" `Quick test_io_file_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick test_io_rejects_garbage;
        ] );
      ( "quality",
        [
          Alcotest.test_case "perfect hex" `Quick test_quality_hex_is_perfect;
          Alcotest.test_case "lloyd improves" `Quick test_quality_lloyd_improves;
        ] );
      ( "remap",
        [
          Alcotest.test_case "locator on centers" `Quick
            test_locator_exact_on_centers;
          Alcotest.test_case "locator vs brute force" `Quick
            test_locator_nearest_is_truly_nearest;
          Alcotest.test_case "identity" `Quick test_remap_identity;
          Alcotest.test_case "constant + smooth" `Quick
            test_remap_constant_and_smooth;
          Alcotest.test_case "l2 error" `Quick test_l2_error_of_same_field_small;
        ] );
      ( "vtk",
        [
          Alcotest.test_case "structure" `Quick test_vtk_structure;
          Alcotest.test_case "bad fields" `Quick test_vtk_rejects_bad_fields;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_mesh_levels_pass_invariants;
            prop_hex_sizes_pass_invariants;
            prop_kites_partition_triangles;
            prop_io_roundtrip_any_hex;
          ] );
    ]
