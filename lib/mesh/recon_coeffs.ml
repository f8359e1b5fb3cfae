open Mpas_numerics

type t = {
  coef_x : float array;
  coef_y : float array;
  coef_z : float array;
  east : float array;
  north : float array;
}

type input = {
  sphere : bool;
  x_cell : Vec3.t array;
  edge_normal : Vec3.t array;
  cell_offsets : int array;
  cell_edges : int array;
}

let vertical i c = if i.sphere then i.x_cell.(c) else Vec3.ez

let basis i c =
  if not i.sphere then (Vec3.ex, Vec3.ey)
  else
    match Sphere.tangent_basis i.x_cell.(c) with
    | b -> b
    | exception Invalid_argument _ ->
        (* Exact pole: geographic east is undefined; keep the frame
           right-handed about the outward normal. *)
        let east = Vec3.ex in
        (east, Vec3.cross i.x_cell.(c) east)

let set3 a b v =
  a.(b) <- v.Vec3.x;
  a.(b + 1) <- v.Vec3.y;
  a.(b + 2) <- v.Vec3.z

let compute i =
  let n_cells = Array.length i.cell_offsets - 1 in
  let slots () = Array.make (Array.length i.cell_edges) 0. in
  let coef_x = slots () and coef_y = slots () and coef_z = slots () in
  let east = Array.make (3 * n_cells) 0. in
  let north = Array.make (3 * n_cells) 0. in
  for c = 0 to n_cells - 1 do
    let j0 = i.cell_offsets.(c) and j1 = i.cell_offsets.(c + 1) in
    let normal j = i.edge_normal.(i.cell_edges.(j)) in
    let mat = Mat3.zero () in
    for j = j0 to j1 - 1 do
      Mat3.add_outer mat 1. (normal j)
    done;
    (* Pin the radial component to zero: edge normals are tangent to
       the sphere at the edge, not at the cell center, so the plain
       normal matrix is near-singular radially.  A penalty of the trace
       scale keeps the fit tangent without biasing it. *)
    let trace = mat.Mat3.m.(0) +. mat.Mat3.m.(4) +. mat.Mat3.m.(8) in
    Mat3.add_outer mat trace (vertical i c);
    let minv = Mat3.inv mat in
    for j = j0 to j1 - 1 do
      let v = Mat3.mul_vec minv (normal j) in
      coef_x.(j) <- v.Vec3.x;
      coef_y.(j) <- v.Vec3.y;
      coef_z.(j) <- v.Vec3.z
    done;
    let e, n = basis i c in
    set3 east (3 * c) e;
    set3 north (3 * c) n
  done;
  { coef_x; coef_y; coef_z; east; north }
