open Mpas_numerics
open Mesh

type error =
  | Unsupported_version of int
  | Malformed of string
  | Invalid_mesh of Mesh.Csr.error list

exception Error of error

let error_message = function
  | Unsupported_version v -> Printf.sprintf "unsupported format version %d" v
  | Malformed detail -> "malformed file: " ^ detail
  | Invalid_mesh errors ->
      "invalid mesh: " ^ String.concat "; " (List.map Mesh.Csr.message errors)

let () =
  Printexc.register_printer (function
    | Error e -> Some ("Mesh_io.Error: " ^ error_message e)
    | _ -> None)

let version = 2
let fp = Format.fprintf

let write_array ppf name pr a =
  fp ppf "%s %d\n" name (Array.length a);
  Array.iter (pr ppf) a;
  fp ppf "\n"

let write_ints ppf name a = write_array ppf name (fun ppf x -> fp ppf "%d " x) a

let write_floats ppf name a =
  write_array ppf name (fun ppf x -> fp ppf "%.17g " x) a

let write_vecs ppf name a =
  write_array ppf name
    (fun ppf (v : Vec3.t) -> fp ppf "%.17g %.17g %.17g " v.x v.y v.z)
    a

let to_string (m : t) =
  let buf = Buffer.create (1 lsl 20) in
  let ppf = Format.formatter_of_buffer buf in
  let c = m.csr in
  fp ppf "mpas-mesh %d\n" version;
  (match m.geometry with
  | Sphere r -> fp ppf "geometry sphere %.17g\n" r
  | Plane { lx; ly } -> fp ppf "geometry plane %.17g %.17g\n" lx ly);
  fp ppf "counts %d %d %d\n" m.n_cells m.n_edges m.n_vertices;
  write_vecs ppf "x_cell" m.x_cell;
  write_vecs ppf "x_edge" m.x_edge;
  write_vecs ppf "x_vertex" m.x_vertex;
  write_ints ppf "n_edges_on_cell" m.n_edges_on_cell;
  write_ints ppf "cell_edges" c.cell_edges;
  write_ints ppf "cell_neighbors" c.cell_neighbors;
  write_ints ppf "cell_vertices" c.cell_vertices;
  write_floats ppf "cell_edge_signs" c.cell_edge_signs;
  write_ints ppf "vertex_edges" c.vertex_edges;
  write_ints ppf "vertex_cells" c.vertex_cells;
  write_floats ppf "vertex_kite_areas" c.vertex_kite_areas;
  write_floats ppf "vertex_edge_signs" c.vertex_edge_signs;
  write_ints ppf "edge_cells" c.edge_cells;
  write_ints ppf "edge_vertices" c.edge_vertices;
  write_floats ppf "dc_edge" m.dc_edge;
  write_floats ppf "dv_edge" m.dv_edge;
  write_floats ppf "area_cell" m.area_cell;
  write_floats ppf "area_triangle" m.area_triangle;
  write_vecs ppf "edge_normal" m.edge_normal;
  write_vecs ppf "edge_tangent" m.edge_tangent;
  write_floats ppf "angle_edge" m.angle_edge;
  write_floats ppf "f_cell" m.f_cell;
  write_floats ppf "f_edge" m.f_edge;
  write_floats ppf "f_vertex" m.f_vertex;
  write_ints ppf "boundary_edge"
    (Array.map (fun b -> if b then 1 else 0) m.boundary_edge);
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(* --- reading ------------------------------------------------------------ *)

type reader = { tokens : string array; mutable pos : int }

let malformed fmt = Printf.ksprintf (fun s -> raise (Error (Malformed s))) fmt

let next r =
  if r.pos >= Array.length r.tokens then malformed "unexpected end of input";
  let t = r.tokens.(r.pos) in
  r.pos <- r.pos + 1;
  t

let next_int r =
  let t = next r in
  match int_of_string_opt t with
  | Some i -> i
  | None -> malformed "expected an integer, got %S" t

let next_float r =
  let t = next r in
  match float_of_string_opt t with
  | Some f -> f
  | None -> malformed "expected a float, got %S" t

let expect r tag =
  let t = next r in
  if t <> tag then malformed "expected %s, got %S" tag t

(* A table's declared length must equal the one the header implies, and
   its tokens must be there, before the table is allocated. *)
let read_table r tag ~expected ~tokens_per_item read_item =
  expect r tag;
  let n = next_int r in
  if n <> expected then
    malformed "%s has %d entries, the header implies %d" tag n expected;
  if n < 0 || n > (Array.length r.tokens - r.pos) / tokens_per_item then
    malformed "%s: %d entries declared, input ends first" tag n;
  Array.init n (fun _ -> read_item r)

let of_string s =
  let r =
    {
      tokens =
        String.split_on_char '\n' s
        |> List.concat_map (String.split_on_char ' ')
        |> List.filter (fun t -> t <> "")
        |> Array.of_list;
      pos = 0;
    }
  in
  expect r "mpas-mesh";
  let v = next_int r in
  if v <> version then raise (Error (Unsupported_version v));
  expect r "geometry";
  let geometry =
    match next r with
    | "sphere" -> Sphere (next_float r)
    | "plane" ->
        let lx = next_float r in
        let ly = next_float r in
        Plane { lx; ly }
    | g -> malformed "unknown geometry %S" g
  in
  expect r "counts";
  let n_cells = next_int r in
  let n_edges = next_int r in
  let n_vertices = next_int r in
  if n_cells < 0 || n_edges < 0 || n_vertices < 0 then
    malformed "negative entity count";
  let table tag expected read_item =
    read_table r tag ~expected ~tokens_per_item:1 read_item
  in
  let ints tag n = table tag n next_int in
  let floats tag n = table tag n next_float in
  let vecs tag n =
    read_table r tag ~expected:n ~tokens_per_item:3 (fun r ->
        let x = next_float r in
        let y = next_float r in
        let z = next_float r in
        Vec3.make x y z)
  in
  let x_cell = vecs "x_cell" n_cells in
  let x_edge = vecs "x_edge" n_edges in
  let x_vertex = vecs "x_vertex" n_vertices in
  let n_edges_on_cell = ints "n_edges_on_cell" n_cells in
  if Array.exists (fun k -> k < 0) n_edges_on_cell then
    malformed "negative n_edges_on_cell entry";
  let n_slots = Array.fold_left ( + ) 0 n_edges_on_cell in
  let cell_edges = ints "cell_edges" n_slots in
  let cell_neighbors = ints "cell_neighbors" n_slots in
  let cell_vertices = ints "cell_vertices" n_slots in
  let cell_edge_signs = floats "cell_edge_signs" n_slots in
  let vertex_edges = ints "vertex_edges" (3 * n_vertices) in
  let vertex_cells = ints "vertex_cells" (3 * n_vertices) in
  let vertex_kite_areas = floats "vertex_kite_areas" (3 * n_vertices) in
  let vertex_edge_signs = floats "vertex_edge_signs" (3 * n_vertices) in
  let edge_cells = ints "edge_cells" (2 * n_edges) in
  let edge_vertices = ints "edge_vertices" (2 * n_edges) in
  let dc_edge = floats "dc_edge" n_edges in
  let dv_edge = floats "dv_edge" n_edges in
  let area_cell = floats "area_cell" n_cells in
  let area_triangle = floats "area_triangle" n_vertices in
  let edge_normal = vecs "edge_normal" n_edges in
  let edge_tangent = vecs "edge_tangent" n_edges in
  let angle_edge = floats "angle_edge" n_edges in
  let f_cell = floats "f_cell" n_cells in
  let f_edge = floats "f_edge" n_edges in
  let f_vertex = floats "f_vertex" n_vertices in
  let boundary_edge =
    Array.map (fun x -> x <> 0) (ints "boundary_edge" n_edges)
  in
  match
    Mesh.make
      {
        geometry; n_cells; n_edges; n_vertices;
        x_cell; x_edge; x_vertex;
        n_edges_on_cell; cell_edges; cell_neighbors; cell_vertices;
        cell_edge_signs; vertex_edges; vertex_cells; vertex_kite_areas;
        vertex_edge_signs; edge_cells; edge_vertices;
        dc_edge; dv_edge; area_cell; area_triangle;
        edge_normal; edge_tangent; angle_edge;
        f_cell; f_edge; f_vertex; boundary_edge;
      }
  with
  | Ok m -> m
  | Error errors -> raise (Error (Invalid_mesh errors))

let save m path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string m))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      of_string (really_input_string ic n))
