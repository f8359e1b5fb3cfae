open Mpas_numerics

let to_string (m : Mesh.t) fields =
  List.iter
    (fun (name, data) ->
      if Array.length data <> m.n_cells then
        invalid_arg ("Vtk: field " ^ name ^ " is not a cell field");
      if String.exists (fun c -> c = ' ' || c = '\t' || c = '\n') name then
        invalid_arg ("Vtk: field name contains whitespace: " ^ name))
    fields;
  let buf = Buffer.create (1 lsl 20) in
  let pr fmt = Format.kasprintf (Buffer.add_string buf) fmt in
  pr "# vtk DataFile Version 3.0\n";
  pr "mpas mesh\nASCII\nDATASET POLYDATA\n";
  (* Points: the Voronoi corners (mesh vertices). *)
  pr "POINTS %d double\n" m.n_vertices;
  Array.iter
    (fun (p : Vec3.t) -> pr "%.9g %.9g %.9g\n" p.x p.y p.z)
    m.x_vertex;
  (* Polygons: one per cell, listing its corners in order. *)
  let size =
    Array.fold_left (fun acc n -> acc + n + 1) 0 m.n_edges_on_cell
  in
  pr "POLYGONS %d %d\n" m.n_cells size;
  let csr = m.csr in
  for c = 0 to m.n_cells - 1 do
    pr "%d" m.n_edges_on_cell.(c);
    for j = csr.cell_offsets.(c) to csr.cell_offsets.(c + 1) - 1 do
      pr " %d" csr.cell_vertices.(j)
    done;
    pr "\n"
  done;
  if fields <> [] then begin
    pr "CELL_DATA %d\n" m.n_cells;
    List.iter
      (fun (name, data) ->
        pr "SCALARS %s double 1\nLOOKUP_TABLE default\n" name;
        Array.iter (fun x -> pr "%.9g\n" x) data)
      fields
  end;
  Buffer.contents buf

let save m fields path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string m fields))
