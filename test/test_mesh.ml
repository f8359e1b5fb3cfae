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
    let v1 = m.csr.edge_vertices.(2 * e)
    and v2 = m.csr.edge_vertices.((2 * e) + 1) in
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
    for j = m.csr.cell_offsets.(c) to m.csr.cell_offsets.(c + 1) - 1 do
      let e = m.csr.cell_edges.(j) in
      acc := !acc +. (m.csr.cell_edge_signs.(j) *. u.(e) *. m.dv_edge.(e))
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
    for k = 3 * v to (3 * v) + 2 do
      let e = m.csr.vertex_edges.(k) in
      acc := !acc +. (m.csr.vertex_edge_signs.(k) *. u.(e) *. m.dc_edge.(e))
    done;
    let zeta = !acc /. m.area_triangle.(v) in
    let exact = 2. *. om *. sin m.lat_vertex.(v) /. radius in
    Alcotest.(check bool)
      "vorticity within 5% of scale" true
      (Float.abs (zeta -. exact) < 0.05 *. (2. *. om /. radius))
  done

(* [trisk_sum m u e] is the TRiSK reconstruction of the tangential
   velocity at edge [e], summed over its CSR row. *)
let trisk_sum (m : Mesh.t) u e =
  let c = m.csr in
  let acc = ref 0. in
  for i = c.eoe_offsets.(e) to c.eoe_offsets.(e + 1) - 1 do
    acc := !acc +. (c.eoe_weights.(i) *. u.(c.eoe_edges.(i)))
  done;
  !acc

let test_trisk_antisymmetry () =
  let m = Lazy.force ico3 in
  let c = m.csr in
  let find_w e e' =
    let rec loop i =
      if i >= c.eoe_offsets.(e + 1) then None
      else if c.eoe_edges.(i) = e' then Some c.eoe_weights.(i)
      else loop (i + 1)
    in
    loop c.eoe_offsets.(e)
  in
  for e = 0 to m.n_edges - 1 do
    for i = c.eoe_offsets.(e) to c.eoe_offsets.(e + 1) - 1 do
      let e' = c.eoe_edges.(i) in
      match find_w e' e with
      | None -> Alcotest.fail "weights not mutual"
      | Some w' ->
          let a = m.dc_edge.(e) *. m.dv_edge.(e)
          and a' = m.dc_edge.(e') *. m.dv_edge.(e') in
          Alcotest.(check (float 1e-10))
            "A_e w + A_e' w' = 0" 0.
            (((a *. c.eoe_weights.(i)) +. (a' *. w')) /. a)
    done
  done

let test_tangential_reconstruction_accuracy () =
  (* First-order accurate on the relaxed (SCVT-like) grid. *)
  let m = Lazy.force ico3_relaxed in
  let om = 10. in
  let u = solid_body_u m om in
  let errs =
    Array.init m.n_edges (fun e ->
        let vel = Vec3.scale om (Vec3.cross Vec3.ez m.x_edge.(e)) in
        Float.abs (trisk_sum m u e -. Vec3.dot vel m.edge_tangent.(e)))
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
    Alcotest.(check (float 1e-10))
      "tangential exact"
      (Vec3.dot flow m.edge_tangent.(e))
      (trisk_sum m u e)
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

(* Each cell-row kite is the [vertex_kite_areas] slot of its corner that
   lists the cell back, bit for bit. *)
let check_cell_kites name (m : Mesh.t) =
  let csr = m.Mesh.csr in
  Alcotest.(check int)
    (name ^ ": one kite per cell corner")
    (Array.length csr.cell_vertices)
    (Array.length csr.cell_kite_areas);
  for c = 0 to m.n_cells - 1 do
    for j = csr.cell_offsets.(c) to csr.cell_offsets.(c + 1) - 1 do
      let v = csr.cell_vertices.(j) in
      let k =
        List.find (fun k -> csr.vertex_cells.(k) = c) [ 3 * v; (3 * v) + 1; (3 * v) + 2 ]
      in
      let want = csr.vertex_kite_areas.(k) in
      let got = csr.cell_kite_areas.(j) in
      if Int64.bits_of_float got <> Int64.bits_of_float want then
        Alcotest.failf "%s: cell %d slot %d kite %h, expected %h" name c j got
          want
    done
  done

(* The CSR invariants, asserted directly on the flat tables. *)
let check_csr_view name (m : Mesh.t) =
  let csr = m.Mesh.csr in
  Alcotest.(check (list string)) (name ^ ": no CSR violations") []
    (List.map Mesh.Csr.message (Mesh.Csr.validate m csr));
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
  List.iter
    (fun (tag, len, want) -> Alcotest.(check int) (name ^ ": " ^ tag) want len)
    [
      ("cell_neighbors", Array.length csr.cell_neighbors, Array.length csr.cell_edges);
      ("cell_vertices", Array.length csr.cell_vertices, Array.length csr.cell_edges);
      ("cell_edge_signs", Array.length csr.cell_edge_signs, Array.length csr.cell_edges);
      ("eoe_weights", Array.length csr.eoe_weights, Array.length csr.eoe_edges);
      ("vertex_edges", Array.length csr.vertex_edges, 3 * m.n_vertices);
      ("vertex_cells", Array.length csr.vertex_cells, 3 * m.n_vertices);
      ("vertex_kite_areas", Array.length csr.vertex_kite_areas, 3 * m.n_vertices);
      ("vertex_edge_signs", Array.length csr.vertex_edge_signs, 3 * m.n_vertices);
      ("edge_cells", Array.length csr.edge_cells, 2 * m.n_edges);
      ("edge_vertices", Array.length csr.edge_vertices, 2 * m.n_edges);
    ];
  let width c = csr.cell_offsets.(c + 1) - csr.cell_offsets.(c) in
  for c = 0 to m.n_cells - 1 do
    if width c <> m.n_edges_on_cell.(c) then
      Alcotest.failf "%s: cell %d row width %d, n_edges_on_cell %d" name c
        (width c) m.n_edges_on_cell.(c);
    (* Each slot's edge joins the cell to the slot's neighbour, and the
       sign says which way the normal points. *)
    for j = csr.cell_offsets.(c) to csr.cell_offsets.(c + 1) - 1 do
      let e = csr.cell_edges.(j) in
      let c1 = csr.edge_cells.(2 * e) and c2 = csr.edge_cells.((2 * e) + 1) in
      let other, sign = if c1 = c then (c2, 1.) else (c1, -1.) in
      if (c1 <> c && c2 <> c) || csr.cell_neighbors.(j) <> other
         || csr.cell_edge_signs.(j) <> sign
      then Alcotest.failf "%s: cell %d slot %d disagrees with edge %d" name c j e
    done
  done;
  (* A TRiSK row takes all but the edge itself from each of its cells. *)
  for e = 0 to m.n_edges - 1 do
    let want =
      width csr.edge_cells.(2 * e) + width csr.edge_cells.((2 * e) + 1) - 2
    in
    if csr.eoe_offsets.(e + 1) - csr.eoe_offsets.(e) <> want then
      Alcotest.failf "%s: edge %d TRiSK row width" name e
  done;
  check_cell_kites name m

let test_csr_view_sphere () = check_csr_view "ico3" (Lazy.force ico3)
let test_csr_view_hex () = check_csr_view "hex" (Lazy.force hex)

let test_csr_cache_shared_by_copies () =
  let m = Lazy.force ico3 in
  let m' = Mesh.with_boundary_edges m (fun _ -> false) in
  (* A boundary mask changes no connectivity: the copy shares the view. *)
  Alcotest.(check bool) "copy shares the view" true (m'.Mesh.csr == m.Mesh.csr)

let test_csr_rebuilt_after_io () =
  (* A format-2 file stores no derived table: the loaded mesh rebuilds
     its kites and TRiSK rows, valid and bit-identical to the source's. *)
  let src = Lazy.force hex in
  let m = Mesh_io.of_string (Mesh_io.to_string src) in
  check_csr_view "hex after io" m;
  let same what a b =
    Alcotest.(check bool) what true
      (Array.for_all2 (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y) a b)
  in
  Alcotest.(check bool) "not shared" true (m.csr.eoe_weights != src.csr.eoe_weights);
  same "kites rebuilt" m.csr.cell_kite_areas src.csr.cell_kite_areas;
  same "weights rebuilt" m.csr.eoe_weights src.csr.eoe_weights;
  Alcotest.(check (array int)) "rows rebuilt" src.csr.eoe_edges m.csr.eoe_edges

let test_csr_validate_typed () =
  let m = Lazy.force hex in
  let csr = m.Mesh.csr in
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

(* [corrupt_table text name v] rewrites the first entry of table [name]
   in a serialized mesh to [v]. *)
let corrupt_table text name v =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let header = Printf.sprintf "%s " name in
  let i =
    let rec find i =
      if String.starts_with ~prefix:header lines.(i) then i else find (i + 1)
    in
    find 0
  in
  (match String.split_on_char ' ' lines.(i + 1) with
  | _ :: rest -> lines.(i + 1) <- String.concat " " (v :: rest)
  | [] -> assert false);
  String.concat "\n" (Array.to_list lines)

let invalid_mesh_errors text =
  match Mesh_io.of_string text with
  | _ -> Alcotest.fail "a corrupted mesh was accepted"
  | exception Mesh_io.Error (Mesh_io.Invalid_mesh errors) -> errors

let test_missing_back_link_typed () =
  let m = Lazy.force hex in
  let csr = m.Mesh.csr in
  (* Point vertex 0's first slot at a cell that is not one of its own
     and does not have vertex 0 as a corner: only the old cell loses
     its back link. *)
  let own = csr.vertex_cells.(0) in
  let stranger =
    let rec find c =
      let row a lo hi = Array.mem c (Array.sub a lo (hi - lo)) in
      if
        row csr.vertex_cells 0 3
        || Array.mem 0
             (Array.sub csr.cell_vertices csr.cell_offsets.(c)
                m.n_edges_on_cell.(c))
      then find (c + 1)
      else c
    in
    find 0
  in
  let expect_one errs =
    match errs with
    | [ Mesh.Csr.Missing_back_link { vertex; cell } ] ->
        Alcotest.(check (pair int int)) "vertex and cell" (0, own) (vertex, cell)
    | errs ->
        Alcotest.failf "expected one Missing_back_link, got [%s]"
          (String.concat "; " (List.map Mesh.Csr.message errs))
  in
  let bad = { csr with Mesh.vertex_cells = Array.copy csr.vertex_cells } in
  bad.vertex_cells.(0) <- stranger;
  expect_one (Mesh.Csr.validate m bad);
  (* the same corruption in the tables a mesh is built from stops
     [Mesh.make], so no kite table is filled from it *)
  expect_one
    (invalid_mesh_errors
       (corrupt_table (Mesh_io.to_string m) "vertex_cells" (string_of_int stranger)))

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
    (List.map Mesh.Csr.message (Mesh.Csr.validate_recon (m'.Mesh.csr) r'))

(* --- mesh I/O ------------------------------------------------------------- *)

(* Digest of every connectivity and geometry array of a mesh, in the flat
   CSR order: a builder or TRiSK change that moves one bit changes it. *)
let mesh_digest (m : Mesh.t) =
  let buf = Buffer.create (1 lsl 16) in
  let ints a = Array.iter (fun x -> Buffer.add_int64_le buf (Int64.of_int x)) a in
  let floats a =
    Array.iter (fun x -> Buffer.add_int64_le buf (Int64.bits_of_float x)) a
  in
  let vecs a =
    Array.iter (fun (v : Vec3.t) -> floats [| v.x; v.y; v.z |]) a
  in
  let c = m.Mesh.csr in
  ints [| m.n_cells; m.n_edges; m.n_vertices; m.max_edges |];
  ints m.n_edges_on_cell;
  List.iter ints
    [
      c.cell_offsets; c.cell_edges; c.cell_neighbors; c.cell_vertices;
      c.vertex_edges; c.vertex_cells; c.edge_cells; c.edge_vertices;
      c.eoe_offsets; c.eoe_edges;
    ];
  List.iter floats
    [
      c.cell_edge_signs; c.cell_kite_areas; c.vertex_kite_areas;
      c.vertex_edge_signs; c.eoe_weights;
    ];
  List.iter vecs [ m.x_cell; m.x_edge; m.x_vertex; m.edge_normal; m.edge_tangent ];
  List.iter floats
    [
      m.lon_cell; m.lat_cell; m.lon_edge; m.lat_edge; m.lon_vertex;
      m.lat_vertex; m.dc_edge; m.dv_edge; m.area_cell; m.area_triangle;
      m.angle_edge; m.f_cell; m.f_edge; m.f_vertex;
    ];
  Array.iter (fun b -> Buffer.add_char buf (if b then '1' else '0')) m.boundary_edge;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* The text format promises a bit-for-bit round trip. *)
let meshes_equal (a : Mesh.t) (b : Mesh.t) =
  a.geometry = b.geometry && mesh_digest a = mesh_digest b

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
        | exception Mesh_io.Error (Mesh_io.Malformed _) -> true))
    [
      ""; "hello world"; "mpas-mesh 2\ngeometry cube";
      "mpas-mesh 2\ngeometry plane 1 1\ncounts 3 9 6\nx_cell 4\n";
      "mpas-mesh 2\ngeometry plane 1 1\ncounts 3 9 6\nx_cell 3\n0 0";
    ];
  Alcotest.(check bool) "unknown version" true
    (match Mesh_io.of_string "mpas-mesh 99" with
    | _ -> false
    | exception Mesh_io.Error (Mesh_io.Unsupported_version 99) -> true)

(* A format-1 file (ragged tables) is refused by its version alone. *)
let test_io_rejects_version_1 () =
  let v2 = Mesh_io.to_string (Lazy.force hex) in
  let v1 = "mpas-mesh 1" ^ String.sub v2 11 (String.length v2 - 11) in
  match Mesh_io.of_string v1 with
  | _ -> Alcotest.fail "a version-1 file was accepted"
  | exception Mesh_io.Error (Mesh_io.Unsupported_version v) ->
      Alcotest.(check int) "version" 1 v

let test_io_invalid_mesh_typed () =
  let m = Lazy.force hex in
  let text = corrupt_table (Mesh_io.to_string m) "cell_edges" (string_of_int m.n_edges) in
  match invalid_mesh_errors text with
  | [] -> Alcotest.fail "no error"
  | errors ->
      List.iter
        (fun e ->
          Alcotest.(check (option string))
            (Mesh.Csr.message e ^ " names cell_edges")
            (Some "cell_edges") (Mesh.Csr.error_table e))
        errors

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

(* --- pinned parity ----------------------------------------------------------- *)

let test_pinned_mesh_digests () =
  Alcotest.(check string) "level-3 icosahedral" "dc5b4d8b56875a8f2160f4083a1dfd3e"
    (mesh_digest (Lazy.force ico3));
  Alcotest.(check string) "8x8 planar hex" "a072f04351899551f96c315170bfb487"
    (mesh_digest (Planar_hex.create ~nx:8 ~ny:8 ~dc:1000. ()))

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
             let s =
               Array.fold_left ( +. ) 0.
                 (Array.sub m.csr.vertex_kite_areas (3 * v) 3)
             in
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
          Alcotest.test_case "version 1 refused" `Quick
            test_io_rejects_version_1;
          Alcotest.test_case "invalid mesh typed" `Quick
            test_io_invalid_mesh_typed;
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
      ( "parity",
        [ Alcotest.test_case "pinned mesh digests" `Quick test_pinned_mesh_digests ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_mesh_levels_pass_invariants;
            prop_hex_sizes_pass_invariants;
            prop_kites_partition_triangles;
            prop_io_roundtrip_any_hex;
          ] );
    ]
