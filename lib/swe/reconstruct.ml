open Mpas_numerics
open Mpas_mesh
open Mpas_par

type t = {
  coef : Vec3.t array array;  (** per cell, aligned with edges_on_cell *)
  east : Vec3.t array;
  north : Vec3.t array;
}

let vertical (m : Mesh.t) c =
  match m.geometry with
  | Mesh.Sphere _ -> m.x_cell.(c)
  | Mesh.Plane _ -> Vec3.ez

let basis (m : Mesh.t) c =
  match m.geometry with
  | Mesh.Plane _ -> (Vec3.ex, Vec3.ey)
  | Mesh.Sphere _ -> (
      match Sphere.tangent_basis m.x_cell.(c) with
      | b -> b
      | exception Invalid_argument _ ->
          (* Exact pole: geographic east is undefined; keep the frame
             right-handed about the outward normal. *)
          let east = Vec3.ex in
          (east, Vec3.cross m.x_cell.(c) east))

let init (m : Mesh.t) =
  let coef =
    Array.init m.n_cells (fun c ->
        let n = m.n_edges_on_cell.(c) in
        let mat = Mat3.zero () in
        for j = 0 to n - 1 do
          Mat3.add_outer mat 1. m.edge_normal.(m.edges_on_cell.(c).(j))
        done;
        (* Pin the radial component to zero: edge normals are tangent
           to the sphere at the edge, not at the cell center, so the
           plain normal matrix is near-singular radially.  A penalty of
           the trace scale keeps the fit tangent without biasing it. *)
        let trace = mat.Mat3.m.(0) +. mat.Mat3.m.(4) +. mat.Mat3.m.(8) in
        Mat3.add_outer mat trace (vertical m c);
        let minv = Mat3.inv mat in
        Array.init n (fun j ->
            Mat3.mul_vec minv m.edge_normal.(m.edges_on_cell.(c).(j))))
  in
  let east = Array.make m.n_cells Vec3.ex in
  let north = Array.make m.n_cells Vec3.ey in
  for c = 0 to m.n_cells - 1 do
    let e, n = basis m c in
    east.(c) <- e;
    north.(c) <- n
  done;
  { coef; east; north }

(* A4 at one cell, [V(c) = sum_j u(e_j) coef_j], with the Vec3
   arithmetic scalarized: three float accumulators in [Vec3.axpy]'s
   exact operation order, so nothing allocates per cell and every entry
   point below stores the same float64 values. *)
let[@inline always] cartesian_at coef edges_on_cell n_edges_on_cell u
    (out : Fields.reconstruction) c =
  let ax = ref 0. and ay = ref 0. and az = ref 0. in
  let coefs = coef.(c) and row = edges_on_cell.(c) in
  for j = 0 to n_edges_on_cell.(c) - 1 do
    let a = Array.unsafe_get u (Array.unsafe_get row j) in
    let cj = Array.unsafe_get coefs j in
    ax := (a *. cj.Vec3.x) +. !ax;
    ay := (a *. cj.Vec3.y) +. !ay;
    az := (a *. cj.Vec3.z) +. !az
  done;
  out.ux.(c) <- !ax;
  out.uy.(c) <- !ay;
  out.uz.(c) <- !az

(* X6 at one cell: project the stored Cartesian vector onto the local
   east/north frame, the dot products expanded in [Vec3.dot]'s order. *)
let[@inline always] horizontal_at east north (out : Fields.reconstruction) c =
  let vx = out.ux.(c) and vy = out.uy.(c) and vz = out.uz.(c) in
  let e = east.(c) and n = north.(c) in
  out.zonal.(c) <- (vx *. e.Vec3.x) +. (vy *. e.Vec3.y) +. (vz *. e.Vec3.z);
  out.meridional.(c) <-
    (vx *. n.Vec3.x) +. (vy *. n.Vec3.y) +. (vz *. n.Vec3.z)

(* [u] is indexed unchecked through the mesh's own edge rows. *)
let check_u (m : Mesh.t) u =
  if Array.length u < m.n_edges then
    invalid_arg
      (Printf.sprintf "Reconstruct: u has %d elements, need %d"
         (Array.length u) m.n_edges)

(* A4 when [a4], X6 when [x6], over the full cell range or the span
   set [on] — the runtime's A4 [+X6] chain is this sweep on its tile. *)
let sweep ?pool ?on t (m : Mesh.t) ~u ~out ~a4 ~x6 =
  if a4 then check_u m u;
  Option.iter (fun s -> Span.within "Reconstruct" s m.n_cells) on;
  let coef = t.coef and east = t.east and north = t.north in
  let edges_on_cell = m.edges_on_cell and n_edges_on_cell = m.n_edges_on_cell in
  Operators.range pool ?on m.n_cells (fun ~lo ~hi ->
      for c = lo to hi - 1 do
        if a4 then cartesian_at coef edges_on_cell n_edges_on_cell u out c;
        if x6 then horizontal_at east north out c
      done)

let run ?pool ?on t m ~u ~out = sweep ?pool ?on t m ~u ~out ~a4:true ~x6:true

let run_cartesian ?pool ?on t m ~u ~out =
  sweep ?pool ?on t m ~u ~out ~a4:true ~x6:false

let run_horizontal ?pool ?on t m ~out =
  sweep ?pool ?on t m ~u:[||] ~out ~a4:false ~x6:true
