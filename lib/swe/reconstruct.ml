open Mpas_mesh
open Mpas_par

type t = Recon_coeffs.t

let init = Mesh.recon_coeffs

(* A4 at one cell, [V(c) = sum_j u(e_j) coef_j] over the cell's CSR row,
   with the Vec3 arithmetic scalarized: three float accumulators in
   [Vec3.axpy]'s exact operation order, so nothing allocates per cell
   and every entry point below stores the same float64 values. *)
let[@inline always] cartesian_at cell_offsets cell_edges coef_x coef_y coef_z u
    (out : Fields.reconstruction) c =
  let ax = ref 0. and ay = ref 0. and az = ref 0. in
  for j = Array.unsafe_get cell_offsets c
      to Array.unsafe_get cell_offsets (c + 1) - 1 do
    let a = Array.unsafe_get u (Array.unsafe_get cell_edges j) in
    ax := (a *. Array.unsafe_get coef_x j) +. !ax;
    ay := (a *. Array.unsafe_get coef_y j) +. !ay;
    az := (a *. Array.unsafe_get coef_z j) +. !az
  done;
  out.ux.(c) <- !ax;
  out.uy.(c) <- !ay;
  out.uz.(c) <- !az

(* X6 at one cell: project the stored Cartesian vector onto the local
   east/north frame, the dot products expanded in [Vec3.dot]'s order. *)
let[@inline always] horizontal_at east north (out : Fields.reconstruction) c =
  let vx = out.ux.(c) and vy = out.uy.(c) and vz = out.uz.(c) in
  let b = 3 * c in
  out.zonal.(c) <-
    (vx *. east.(b)) +. (vy *. east.(b + 1)) +. (vz *. east.(b + 2));
  out.meridional.(c) <-
    (vx *. north.(b)) +. (vy *. north.(b + 1)) +. (vz *. north.(b + 2))

(* [u] and the coefficient rows are indexed unchecked through the mesh's
   own cell rows. *)
let check_u (m : Mesh.t) u =
  if Array.length u < m.n_edges then
    invalid_arg
      (Printf.sprintf "Reconstruct: u has %d elements, need %d"
         (Array.length u) m.n_edges)

let check_table t csr =
  match Mesh.Csr.validate_recon csr t with
  | [] -> ()
  | e :: _ ->
      invalid_arg ("Reconstruct: table does not fit the mesh: "
                   ^ Mesh.Csr.message e)

(* A4 when [a4], X6 when [x6], over the full cell range or the span
   set [on] — the runtime's A4 [+X6] chain is this sweep on its tile. *)
let sweep ?pool ?on t (m : Mesh.t) ~u ~out ~a4 ~x6 =
  let csr = m.Mesh.csr in
  if a4 then check_u m u;
  check_table t csr;
  Option.iter (fun s -> Span.within "Reconstruct" s m.n_cells) on;
  let cell_offsets = csr.cell_offsets and cell_edges = csr.cell_edges in
  let coef_x = t.coef_x and coef_y = t.coef_y and coef_z = t.coef_z in
  let east = t.east and north = t.north in
  Operators.range pool ?on m.n_cells (fun ~lo ~hi ->
      for c = lo to hi - 1 do
        if a4 then
          cartesian_at cell_offsets cell_edges coef_x coef_y coef_z u out c;
        if x6 then horizontal_at east north out c
      done)

let run ?pool ?on t m ~u ~out = sweep ?pool ?on t m ~u ~out ~a4:true ~x6:true

let run_cartesian ?pool ?on t m ~u ~out =
  sweep ?pool ?on t m ~u ~out ~a4:true ~x6:false

let run_horizontal ?pool ?on t m ~out =
  sweep ?pool ?on t m ~u:[||] ~out ~a4:false ~x6:true
