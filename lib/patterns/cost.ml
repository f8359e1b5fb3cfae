type mesh_stats = {
  n_cells : int;
  n_edges : int;
  n_vertices : int;
  mean_edges_per_cell : float;
  mean_edges_on_edge : float;
}

let stats_of_level k =
  let n_cells = (10 * (1 lsl (2 * k))) + 2 in
  let n_vertices = 20 * (1 lsl (2 * k)) in
  let n_edges = 30 * (1 lsl (2 * k)) in
  let mean_edges_per_cell = float_of_int (2 * n_edges) /. float_of_int n_cells in
  {
    n_cells;
    n_edges;
    n_vertices;
    mean_edges_per_cell;
    mean_edges_on_edge = 2. *. (mean_edges_per_cell -. 1.);
  }

let stats_of_mesh (m : Mpas_mesh.Mesh.t) =
  let mean a = Mpas_numerics.Stats.mean (Array.map float_of_int a) in
  {
    n_cells = m.n_cells;
    n_edges = m.n_edges;
    n_vertices = m.n_vertices;
    mean_edges_per_cell = mean m.n_edges_on_cell;
    mean_edges_on_edge =
      (let o = m.csr.eoe_offsets in
       mean (Array.init m.n_edges (fun e -> o.(e + 1) - o.(e))));
  }

let table3_meshes =
  [ ("120-km", 6); ("60-km", 7); ("30-km", 8); ("15-km", 9) ]

type work = { items : float; flops : float; bytes : float }

let zero_work = { items = 0.; flops = 0.; bytes = 0. }

let add_work a b =
  {
    items = a.items +. b.items;
    flops = a.flops +. b.flops;
    bytes = a.bytes +. b.bytes;
  }

(* Bytes: one double read/write = 8, one 32-bit index = 4.  Per-item
   doubles include the geometric constants (dv, dc, areas, weights...)
   actually touched by the gather loop bodies in Mpas_swe.Operators. *)
let w ~items ~flops_per ~dbl_per ~idx_per =
  {
    items = float_of_int items;
    flops = float_of_int items *. flops_per;
    bytes = (float_of_int items *. ((dbl_per *. 8.) +. (idx_per *. 4.)));
  }

let instance_work s id =
  let nc = s.n_cells and ne = s.n_edges and nv = s.n_vertices in
  let ec = s.mean_edges_per_cell in
  let eoe = s.mean_edges_on_edge in
  match id with
  | "A1" ->
      (* tend_h: per cell, ec iterations of 4 flops over h_edge,u,dv. *)
      w ~items:nc ~flops_per:((4. *. ec) +. 2.) ~dbl_per:((3. *. ec) +. 2.)
        ~idx_per:(2. *. ec)
  | "B1" ->
      (* tend_u: eoe-long perp-flux sum (6 flops each) plus gradient. *)
      w ~items:ne ~flops_per:((6. *. eoe) +. 10.)
        ~dbl_per:((4. *. eoe) +. 8.) ~idx_per:(eoe +. 2.)
  | "C1" -> w ~items:ne ~flops_per:8. ~dbl_per:7. ~idx_per:4.
  | "X1" -> w ~items:ne ~flops_per:2. ~dbl_per:3. ~idx_per:0.
  | "X2" -> w ~items:ne ~flops_per:1. ~dbl_per:2. ~idx_per:0.
  | "X3" ->
      w ~items:(nc + ne) ~flops_per:2. ~dbl_per:3. ~idx_per:0.
  | "H2" ->
      w ~items:nc ~flops_per:((4. *. ec) +. 1.) ~dbl_per:((4. *. ec) +. 2.)
        ~idx_per:(2. *. ec)
  | "B2" -> w ~items:ne ~flops_per:8. ~dbl_per:6. ~idx_per:2.
  | "A2" ->
      w ~items:nc ~flops_per:((4. *. ec) +. 1.) ~dbl_per:((3. *. ec) +. 2.)
        ~idx_per:ec
  | "A3" ->
      w ~items:nc ~flops_per:((3. *. ec) +. 1.) ~dbl_per:((3. *. ec) +. 2.)
        ~idx_per:ec
  | "D1" -> w ~items:nv ~flops_per:10. ~dbl_per:8. ~idx_per:3.
  | "C2" -> w ~items:nv ~flops_per:7. ~dbl_per:8. ~idx_per:3.
  | "D2" -> w ~items:nv ~flops_per:2. ~dbl_per:4. ~idx_per:0.
  | "E" ->
      w ~items:nc ~flops_per:((2. *. ec) +. 1.) ~dbl_per:((2. *. ec) +. 2.)
        ~idx_per:(2. *. ec)
  | "G" ->
      w ~items:ne ~flops_per:(2. *. eoe) ~dbl_per:(2. *. eoe) ~idx_per:eoe
  | "H1" -> w ~items:ne ~flops_per:6. ~dbl_per:8. ~idx_per:4.
  | "F" -> w ~items:ne ~flops_per:7. ~dbl_per:7. ~idx_per:2.
  | "X4" -> w ~items:nc ~flops_per:2. ~dbl_per:3. ~idx_per:0.
  | "X5" -> w ~items:ne ~flops_per:2. ~dbl_per:3. ~idx_per:0.
  | "A4" ->
      (* 3-vector dot-accumulate per cell edge. *)
      w ~items:nc ~flops_per:(6. *. ec) ~dbl_per:((4. *. ec) +. 3.)
        ~idx_per:ec
  | "X6" -> w ~items:nc ~flops_per:6. ~dbl_per:11. ~idx_per:0.
  | _ -> raise Not_found

let kernel_work s k =
  List.fold_left
    (fun acc (i : Pattern.instance) -> add_work acc (instance_work s i.id))
    zero_work (Registry.of_kernel k)

let kernel_calls_per_step = function
  | Pattern.Compute_tend -> 4
  | Pattern.Enforce_boundary_edge -> 4
  | Pattern.Compute_next_substep_state -> 3
  | Pattern.Compute_solve_diagnostics -> 4
  | Pattern.Accumulative_update -> 4
  | Pattern.Mpas_reconstruct -> 1
  | Pattern.Halo_exchange -> 4 (* one comm wave per substep *)

let rk4_step_work s =
  List.fold_left
    (fun acc k ->
      let per = kernel_work s k in
      let n = float_of_int (kernel_calls_per_step k) in
      add_work acc
        { items = per.items *. n; flops = per.flops *. n; bytes = per.bytes *. n })
    zero_work Pattern.all_kernels

let field_bytes s = function
  | Pattern.Mass -> float_of_int s.n_cells *. 8.
  | Pattern.Velocity -> float_of_int s.n_edges *. 8.
  | Pattern.Vorticity -> float_of_int s.n_vertices *. 8.
