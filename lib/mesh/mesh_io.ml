open Mpas_numerics
open Mesh

let fp = Format.fprintf

let write_int_array ppf name a =
  fp ppf "%s %d\n" name (Array.length a);
  Array.iter (fun x -> fp ppf "%d " x) a;
  fp ppf "\n"

let write_float_array ppf name a =
  fp ppf "%s %d\n" name (Array.length a);
  Array.iter (fun x -> fp ppf "%.17g " x) a;
  fp ppf "\n"

let write_bool_array ppf name a =
  write_int_array ppf name (Array.map (fun b -> if b then 1 else 0) a)

let write_vec_array ppf name a =
  fp ppf "%s %d\n" name (Array.length a);
  Array.iter
    (fun (v : Vec3.t) -> fp ppf "%.17g %.17g %.17g " v.x v.y v.z)
    a;
  fp ppf "\n"

let write_ragged_int ppf name a =
  fp ppf "%s %d\n" name (Array.length a);
  Array.iter
    (fun row ->
      fp ppf "%d" (Array.length row);
      Array.iter (fun x -> fp ppf " %d" x) row;
      fp ppf "\n")
    a

let write_ragged_float ppf name a =
  fp ppf "%s %d\n" name (Array.length a);
  Array.iter
    (fun row ->
      fp ppf "%d" (Array.length row);
      Array.iter (fun x -> fp ppf " %.17g" x) row;
      fp ppf "\n")
    a

let to_string (m : t) =
  let buf = Buffer.create (1 lsl 20) in
  let ppf = Format.formatter_of_buffer buf in
  fp ppf "mpas-mesh 1\n";
  (match m.geometry with
  | Sphere r -> fp ppf "geometry sphere %.17g\n" r
  | Plane { lx; ly } -> fp ppf "geometry plane %.17g %.17g\n" lx ly);
  fp ppf "counts %d %d %d %d\n" m.n_cells m.n_edges m.n_vertices m.max_edges;
  write_vec_array ppf "x_cell" m.x_cell;
  write_vec_array ppf "x_edge" m.x_edge;
  write_vec_array ppf "x_vertex" m.x_vertex;
  write_float_array ppf "lon_cell" m.lon_cell;
  write_float_array ppf "lat_cell" m.lat_cell;
  write_float_array ppf "lon_edge" m.lon_edge;
  write_float_array ppf "lat_edge" m.lat_edge;
  write_float_array ppf "lon_vertex" m.lon_vertex;
  write_float_array ppf "lat_vertex" m.lat_vertex;
  write_int_array ppf "n_edges_on_cell" m.n_edges_on_cell;
  write_ragged_int ppf "edges_on_cell" m.edges_on_cell;
  write_ragged_int ppf "cells_on_cell" m.cells_on_cell;
  write_ragged_int ppf "vertices_on_cell" m.vertices_on_cell;
  write_ragged_int ppf "cells_on_edge" m.cells_on_edge;
  write_ragged_int ppf "vertices_on_edge" m.vertices_on_edge;
  write_ragged_int ppf "edges_on_vertex" m.edges_on_vertex;
  write_ragged_int ppf "cells_on_vertex" m.cells_on_vertex;
  write_int_array ppf "n_edges_on_edge" m.n_edges_on_edge;
  write_ragged_int ppf "edges_on_edge" m.edges_on_edge;
  write_ragged_float ppf "weights_on_edge" m.weights_on_edge;
  write_float_array ppf "dc_edge" m.dc_edge;
  write_float_array ppf "dv_edge" m.dv_edge;
  write_float_array ppf "area_cell" m.area_cell;
  write_float_array ppf "area_triangle" m.area_triangle;
  write_ragged_float ppf "kite_areas_on_vertex" m.kite_areas_on_vertex;
  write_vec_array ppf "edge_normal" m.edge_normal;
  write_vec_array ppf "edge_tangent" m.edge_tangent;
  write_float_array ppf "angle_edge" m.angle_edge;
  write_ragged_float ppf "edge_sign_on_cell" m.edge_sign_on_cell;
  write_ragged_float ppf "edge_sign_on_vertex" m.edge_sign_on_vertex;
  write_float_array ppf "f_cell" m.f_cell;
  write_float_array ppf "f_edge" m.f_edge;
  write_float_array ppf "f_vertex" m.f_vertex;
  write_bool_array ppf "boundary_edge" m.boundary_edge;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(* --- reading ------------------------------------------------------------ *)

type reader = { mutable tokens : string list }

let tokenize s =
  String.split_on_char '\n' s
  |> List.concat_map (String.split_on_char ' ')
  |> List.filter (fun t -> t <> "")

let next r =
  match r.tokens with
  | [] -> failwith "Mesh_io: unexpected end of input"
  | t :: rest ->
      r.tokens <- rest;
      t

let next_int r =
  let t = next r in
  match int_of_string_opt t with
  | Some i -> i
  | None -> failwith ("Mesh_io: expected integer, got " ^ t)

let next_float r =
  let t = next r in
  match float_of_string_opt t with
  | Some f -> f
  | None -> failwith ("Mesh_io: expected float, got " ^ t)

let expect r tag =
  let t = next r in
  if t <> tag then failwith (Format.sprintf "Mesh_io: expected %s, got %s" tag t)

let read_sized r tag read_item =
  expect r tag;
  let n = next_int r in
  Array.init n (fun _ -> read_item r)

let read_int_array r tag = read_sized r tag next_int
let read_float_array r tag = read_sized r tag next_float

let read_bool_array r tag =
  Array.map (fun x -> x <> 0) (read_int_array r tag)

let read_vec_array r tag =
  read_sized r tag (fun r ->
      let x = next_float r in
      let y = next_float r in
      let z = next_float r in
      Vec3.make x y z)

let read_ragged r tag read_item =
  read_sized r tag (fun r ->
      let k = next_int r in
      Array.init k (fun _ -> read_item r))

let of_string s =
  let r = { tokens = tokenize s } in
  expect r "mpas-mesh";
  let version = next_int r in
  if version <> 1 then failwith "Mesh_io: unsupported version";
  expect r "geometry";
  let geometry =
    match next r with
    | "sphere" -> Sphere (next_float r)
    | "plane" ->
        let lx = next_float r in
        let ly = next_float r in
        Plane { lx; ly }
    | g -> failwith ("Mesh_io: unknown geometry " ^ g)
  in
  expect r "counts";
  let n_cells = next_int r in
  let n_edges = next_int r in
  let n_vertices = next_int r in
  let max_edges = next_int r in
  let x_cell = read_vec_array r "x_cell" in
  let x_edge = read_vec_array r "x_edge" in
  let x_vertex = read_vec_array r "x_vertex" in
  let lon_cell = read_float_array r "lon_cell" in
  let lat_cell = read_float_array r "lat_cell" in
  let lon_edge = read_float_array r "lon_edge" in
  let lat_edge = read_float_array r "lat_edge" in
  let lon_vertex = read_float_array r "lon_vertex" in
  let lat_vertex = read_float_array r "lat_vertex" in
  let n_edges_on_cell = read_int_array r "n_edges_on_cell" in
  let edges_on_cell = read_ragged r "edges_on_cell" next_int in
  let cells_on_cell = read_ragged r "cells_on_cell" next_int in
  let vertices_on_cell = read_ragged r "vertices_on_cell" next_int in
  let cells_on_edge = read_ragged r "cells_on_edge" next_int in
  let vertices_on_edge = read_ragged r "vertices_on_edge" next_int in
  let edges_on_vertex = read_ragged r "edges_on_vertex" next_int in
  let cells_on_vertex = read_ragged r "cells_on_vertex" next_int in
  let n_edges_on_edge = read_int_array r "n_edges_on_edge" in
  let edges_on_edge = read_ragged r "edges_on_edge" next_int in
  let weights_on_edge = read_ragged r "weights_on_edge" next_float in
  let dc_edge = read_float_array r "dc_edge" in
  let dv_edge = read_float_array r "dv_edge" in
  let area_cell = read_float_array r "area_cell" in
  let area_triangle = read_float_array r "area_triangle" in
  let kite_areas_on_vertex = read_ragged r "kite_areas_on_vertex" next_float in
  let edge_normal = read_vec_array r "edge_normal" in
  let edge_tangent = read_vec_array r "edge_tangent" in
  let angle_edge = read_float_array r "angle_edge" in
  let edge_sign_on_cell = read_ragged r "edge_sign_on_cell" next_float in
  let edge_sign_on_vertex = read_ragged r "edge_sign_on_vertex" next_float in
  let f_cell = read_float_array r "f_cell" in
  let f_edge = read_float_array r "f_edge" in
  let f_vertex = read_float_array r "f_vertex" in
  let boundary_edge = read_bool_array r "boundary_edge" in
  {
    geometry; n_cells; n_edges; n_vertices; max_edges;
    x_cell; x_edge; x_vertex;
    lon_cell; lat_cell; lon_edge; lat_edge; lon_vertex; lat_vertex;
    n_edges_on_cell; edges_on_cell; cells_on_cell; vertices_on_cell;
    cells_on_edge; vertices_on_edge; edges_on_vertex; cells_on_vertex;
    n_edges_on_edge; edges_on_edge; weights_on_edge;
    dc_edge; dv_edge; area_cell; area_triangle; kite_areas_on_vertex;
    edge_normal; edge_tangent; angle_edge;
    edge_sign_on_cell; edge_sign_on_vertex;
    f_cell; f_edge; f_vertex; boundary_edge;
    has_boundary = Array.exists Fun.id boundary_edge;
    csr_cache = None;
    recon_cache = None;
  }

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
