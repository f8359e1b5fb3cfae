open Mpas_mesh
open Mpas_par

let pfor pool lo hi f =
  match pool with
  | None ->
      for i = lo to hi - 1 do
        f i
      done
  | Some p -> Pool.parallel_for p ~lo ~hi f

(* Iterate the full range [0, n) or, when [on] is given, exactly the
   listed indices — the rank-local compute sets of the distributed
   driver. *)
let iter pool ?on n f =
  match on with
  | None -> pfor pool 0 n f
  | Some idx -> pfor pool 0 (Array.length idx) (fun k -> f idx.(k))

(* Chunk runner of the CSR kernels: [body ~lo ~hi] walks positions
   [lo, hi) of the full range [0, n) or, with [on], of the index set.
   Inside [body] each kernel writes its per-element work once, as a
   local [[@inline always]] function [at], and drives it from two
   explicit loop headers — one over indices, one over index-set
   positions — so both walks compile to straight loops with no call
   per element.  [at] must stay free of local closures, which would
   block the inlining. *)
let range pool ?on n body =
  let hi = match on with None -> n | Some idx -> Array.length idx in
  match pool with
  | None -> if hi > 0 then body ~lo:0 ~hi
  | Some p -> Pool.parallel_for_chunks p ~lo:0 ~hi body

(* Cheap point-wise loops (the X3/X4 pattern instances) are dominated by
   scheduling overhead at the default granularity; hand out two big
   chunks per domain instead. *)
let iter_pointwise pool ?on n f =
  match (pool, on) with
  | Some p, None ->
      Pool.parallel_for ~chunk:(Int.max 1 (n / (2 * Pool.size p))) p ~lo:0
        ~hi:n f
  | _ -> iter pool ?on n f

(* The CSR kernels index caller-provided fields with [Array.unsafe_get];
   the mesh side is validated once by [Mesh.csr], the field side here. *)
let check_len kernel name a n =
  if Array.length a < n then
    invalid_arg
      (Printf.sprintf "Operators.%s: %s has %d elements, need %d" kernel name
         (Array.length a) n)

(* The index-set walk writes [out.(i)] unchecked for every listed [i],
   so the set is checked once at entry, before any write. *)
let check_on kernel on n =
  match on with
  | None -> ()
  | Some idx ->
      Array.iter
        (fun i ->
          if i < 0 || i >= n then
            invalid_arg
              (Printf.sprintf "Operators.%s: index %d outside [0, %d)" kernel
                 i n))
        idx

(* --- compute_solve_diagnostics ---------------------------------------- *)

let d2fdx2 ?pool ?on (m : Mesh.t) ~h ~out =
  iter pool ?on m.n_cells (fun c ->
      let acc = ref 0. in
      for j = 0 to m.n_edges_on_cell.(c) - 1 do
        let e = m.edges_on_cell.(c).(j) in
        let c' = m.cells_on_cell.(c).(j) in
        acc := !acc +. (m.dv_edge.(e) *. (h.(c') -. h.(c)) /. m.dc_edge.(e))
      done;
      out.(c) <- !acc /. m.area_cell.(c))

let d2fdx2_scatter (m : Mesh.t) ~h ~out =
  Array.fill out 0 m.n_cells 0.;
  for e = 0 to m.n_edges - 1 do
    let c1 = m.cells_on_edge.(e).(0) and c2 = m.cells_on_edge.(e).(1) in
    let flux = m.dv_edge.(e) *. (h.(c2) -. h.(c1)) /. m.dc_edge.(e) in
    out.(c1) <- out.(c1) +. (flux /. m.area_cell.(c1));
    out.(c2) <- out.(c2) -. (flux /. m.area_cell.(c2))
  done

let h_edge ?pool ?on (m : Mesh.t) ~order ~h ~d2fdx2_cell ~out =
  match (order : Config.h_adv_order) with
  | Second ->
      iter pool ?on m.n_edges (fun e ->
          let c1 = m.cells_on_edge.(e).(0) and c2 = m.cells_on_edge.(e).(1) in
          out.(e) <- 0.5 *. (h.(c1) +. h.(c2)))
  | Fourth ->
      iter pool ?on m.n_edges (fun e ->
          let c1 = m.cells_on_edge.(e).(0) and c2 = m.cells_on_edge.(e).(1) in
          let dc = m.dc_edge.(e) in
          out.(e) <-
            (0.5 *. (h.(c1) +. h.(c2)))
            -. (dc *. dc /. 24. *. (d2fdx2_cell.(c1) +. d2fdx2_cell.(c2))))

let kinetic_energy ?pool ?on (m : Mesh.t) ~u ~out =
  let csr : Mesh.csr = Mesh.csr m in
  check_len "kinetic_energy" "u" u m.n_edges;
  check_len "kinetic_energy" "out" out m.n_cells;
  check_on "kinetic_energy" on m.n_cells;
  let offsets = csr.cell_offsets and edges = csr.cell_edges in
  let dc = m.dc_edge and dv = m.dv_edge and area = m.area_cell in
  range pool ?on m.n_cells (fun ~lo ~hi ->
      let[@inline always] at c =
        let j0 = Array.unsafe_get offsets c
        and j1 = Array.unsafe_get offsets (c + 1) in
        let acc = ref 0. in
        for j = j0 to j1 - 1 do
          let e = Array.unsafe_get edges j in
          let ue = Array.unsafe_get u e in
          acc :=
            !acc
            +. (0.25 *. Array.unsafe_get dc e *. Array.unsafe_get dv e *. ue
                *. ue)
        done;
        Array.unsafe_set out c (!acc /. Array.unsafe_get area c)
      in
      match on with
      | None ->
          for c = lo to hi - 1 do
            at c
          done
      | Some idx ->
          for k = lo to hi - 1 do
            at idx.(k)
          done)

let kinetic_energy_scatter (m : Mesh.t) ~u ~out =
  Array.fill out 0 m.n_cells 0.;
  for e = 0 to m.n_edges - 1 do
    let c1 = m.cells_on_edge.(e).(0) and c2 = m.cells_on_edge.(e).(1) in
    let contrib = 0.25 *. m.dc_edge.(e) *. m.dv_edge.(e) *. u.(e) *. u.(e) in
    out.(c1) <- out.(c1) +. (contrib /. m.area_cell.(c1));
    out.(c2) <- out.(c2) +. (contrib /. m.area_cell.(c2))
  done

let divergence ?pool ?on (m : Mesh.t) ~u ~out =
  let csr : Mesh.csr = Mesh.csr m in
  check_len "divergence" "u" u m.n_edges;
  check_len "divergence" "out" out m.n_cells;
  check_on "divergence" on m.n_cells;
  let offsets = csr.cell_offsets
  and edges = csr.cell_edges
  and signs = csr.cell_edge_signs in
  let dv = m.dv_edge and area = m.area_cell in
  range pool ?on m.n_cells (fun ~lo ~hi ->
      let[@inline always] at c =
        let j0 = Array.unsafe_get offsets c
        and j1 = Array.unsafe_get offsets (c + 1) in
        let acc = ref 0. in
        for j = j0 to j1 - 1 do
          let e = Array.unsafe_get edges j in
          acc :=
            !acc
            +. (Array.unsafe_get signs j *. Array.unsafe_get u e
                *. Array.unsafe_get dv e)
        done;
        Array.unsafe_set out c (!acc /. Array.unsafe_get area c)
      in
      match on with
      | None ->
          for c = lo to hi - 1 do
            at c
          done
      | Some idx ->
          for k = lo to hi - 1 do
            at idx.(k)
          done)

let divergence_scatter (m : Mesh.t) ~u ~out =
  Array.fill out 0 m.n_cells 0.;
  for e = 0 to m.n_edges - 1 do
    let c1 = m.cells_on_edge.(e).(0) and c2 = m.cells_on_edge.(e).(1) in
    let flux = u.(e) *. m.dv_edge.(e) in
    out.(c1) <- out.(c1) +. (flux /. m.area_cell.(c1));
    out.(c2) <- out.(c2) -. (flux /. m.area_cell.(c2))
  done

let vorticity ?pool ?on (m : Mesh.t) ~u ~out =
  let csr : Mesh.csr = Mesh.csr m in
  check_len "vorticity" "u" u m.n_edges;
  check_len "vorticity" "out" out m.n_vertices;
  check_on "vorticity" on m.n_vertices;
  let ve = csr.vertex_edges and signs = csr.vertex_edge_signs in
  let dc = m.dc_edge and area = m.area_triangle in
  range pool ?on m.n_vertices (fun ~lo ~hi ->
      let[@inline always] at v =
        let b = 3 * v in
        let acc = ref 0. in
        for k = b to b + 2 do
          let e = Array.unsafe_get ve k in
          acc :=
            !acc
            +. (Array.unsafe_get signs k *. Array.unsafe_get u e
                *. Array.unsafe_get dc e)
        done;
        Array.unsafe_set out v (!acc /. Array.unsafe_get area v)
      in
      match on with
      | None ->
          for v = lo to hi - 1 do
            at v
          done
      | Some idx ->
          for k = lo to hi - 1 do
            at idx.(k)
          done)

let vorticity_scatter (m : Mesh.t) ~u ~out =
  Array.fill out 0 m.n_vertices 0.;
  for e = 0 to m.n_edges - 1 do
    (* The edge's circulation contribution is +u dc along the normal
       direction; find its sign for each adjacent vertex. *)
    let circ = u.(e) *. m.dc_edge.(e) in
    Array.iter
      (fun v ->
        let k = Mesh_index.local_index m.edges_on_vertex.(v) e in
        out.(v) <-
          out.(v)
          +. (m.edge_sign_on_vertex.(v).(k) *. circ /. m.area_triangle.(v)))
      m.vertices_on_edge.(e)
  done

let h_vertex ?pool ?on (m : Mesh.t) ~h ~out =
  let csr : Mesh.csr = Mesh.csr m in
  check_len "h_vertex" "h" h m.n_cells;
  check_len "h_vertex" "out" out m.n_vertices;
  check_on "h_vertex" on m.n_vertices;
  let vc = csr.vertex_cells and kites = csr.vertex_kite_areas in
  let area = m.area_triangle in
  range pool ?on m.n_vertices (fun ~lo ~hi ->
      let[@inline always] at v =
        let b = 3 * v in
        let acc = ref 0. in
        for k = b to b + 2 do
          acc :=
            !acc
            +. (Array.unsafe_get kites k
                *. Array.unsafe_get h (Array.unsafe_get vc k))
        done;
        Array.unsafe_set out v (!acc /. Array.unsafe_get area v)
      in
      match on with
      | None ->
          for v = lo to hi - 1 do
            at v
          done
      | Some idx ->
          for k = lo to hi - 1 do
            at idx.(k)
          done)

let pv_vertex ?pool ?on (m : Mesh.t) ~vorticity ~h_vertex ~out =
  iter pool ?on m.n_vertices (fun v ->
      out.(v) <- (m.f_vertex.(v) +. vorticity.(v)) /. h_vertex.(v))

let pv_cell ?pool ?on (m : Mesh.t) ~pv_vertex ~out =
  let csr : Mesh.csr = Mesh.csr m in
  check_len "pv_cell" "pv_vertex" pv_vertex m.n_vertices;
  check_len "pv_cell" "out" out m.n_cells;
  check_on "pv_cell" on m.n_cells;
  let offsets = csr.cell_offsets
  and verts = csr.cell_vertices
  and vc = csr.vertex_cells
  and kites = csr.vertex_kite_areas in
  let area = m.area_cell in
  range pool ?on m.n_cells (fun ~lo ~hi ->
      let[@inline always] at c =
        let j0 = Array.unsafe_get offsets c
        and j1 = Array.unsafe_get offsets (c + 1) in
        let acc = ref 0. in
        for j = j0 to j1 - 1 do
          let v = Array.unsafe_get verts j in
          let b = 3 * v in
          (* The reverse link is validated by [Mesh.csr], so the third slot
             is implied when the first two miss. *)
          let k =
            if Array.unsafe_get vc b = c then b
            else if Array.unsafe_get vc (b + 1) = c then b + 1
            else b + 2
          in
          acc :=
            !acc +. (Array.unsafe_get kites k *. Array.unsafe_get pv_vertex v)
        done;
        Array.unsafe_set out c (!acc /. Array.unsafe_get area c)
      in
      match on with
      | None ->
          for c = lo to hi - 1 do
            at c
          done
      | Some idx ->
          for k = lo to hi - 1 do
            at idx.(k)
          done)

let pv_cell_scatter (m : Mesh.t) ~pv_vertex ~out =
  Array.fill out 0 m.n_cells 0.;
  for v = 0 to m.n_vertices - 1 do
    for k = 0 to 2 do
      let c = m.cells_on_vertex.(v).(k) in
      out.(c) <-
        out.(c)
        +. (m.kite_areas_on_vertex.(v).(k) *. pv_vertex.(v) /. m.area_cell.(c))
    done
  done

let tangential_velocity ?pool ?on (m : Mesh.t) ~u ~out =
  let csr : Mesh.csr = Mesh.csr m in
  check_len "tangential_velocity" "u" u m.n_edges;
  check_len "tangential_velocity" "out" out m.n_edges;
  check_on "tangential_velocity" on m.n_edges;
  let offsets = csr.eoe_offsets
  and eoe = csr.eoe_edges
  and w = csr.eoe_weights in
  range pool ?on m.n_edges (fun ~lo ~hi ->
      let[@inline always] at e =
        let i0 = Array.unsafe_get offsets e
        and i1 = Array.unsafe_get offsets (e + 1) in
        let acc = ref 0. in
        for i = i0 to i1 - 1 do
          acc :=
            !acc
            +. (Array.unsafe_get w i *. Array.unsafe_get u (Array.unsafe_get eoe i))
        done;
        Array.unsafe_set out e !acc
      in
      match on with
      | None ->
          for e = lo to hi - 1 do
            at e
          done
      | Some idx ->
          for k = lo to hi - 1 do
            at idx.(k)
          done)

let grad_pv ?pool ?on (m : Mesh.t) ~pv_cell ~pv_vertex ~out_n ~out_t =
  iter pool ?on m.n_edges (fun e ->
      let c1 = m.cells_on_edge.(e).(0) and c2 = m.cells_on_edge.(e).(1) in
      let v1 = m.vertices_on_edge.(e).(0) and v2 = m.vertices_on_edge.(e).(1) in
      out_n.(e) <- (pv_cell.(c2) -. pv_cell.(c1)) /. m.dc_edge.(e);
      out_t.(e) <- (pv_vertex.(v2) -. pv_vertex.(v1)) /. m.dv_edge.(e))

let pv_edge ?pool ?on (m : Mesh.t) ~apvm_factor ~dt ~pv_vertex ~grad_pv_n
    ~grad_pv_t ~u ~v_tangential ~out =
  iter pool ?on m.n_edges (fun e ->
      let v1 = m.vertices_on_edge.(e).(0) and v2 = m.vertices_on_edge.(e).(1) in
      let base = 0.5 *. (pv_vertex.(v1) +. pv_vertex.(v2)) in
      let advect = (u.(e) *. grad_pv_n.(e)) +. (v_tangential.(e) *. grad_pv_t.(e)) in
      out.(e) <- base -. (apvm_factor *. dt *. advect))

(* --- compute_tend ------------------------------------------------------ *)

let tend_h ?pool ?on (m : Mesh.t) ~h_edge ~u ~out =
  let csr : Mesh.csr = Mesh.csr m in
  check_len "tend_h" "h_edge" h_edge m.n_edges;
  check_len "tend_h" "u" u m.n_edges;
  check_len "tend_h" "out" out m.n_cells;
  check_on "tend_h" on m.n_cells;
  let offsets = csr.cell_offsets
  and edges = csr.cell_edges
  and signs = csr.cell_edge_signs in
  let dv = m.dv_edge and area = m.area_cell in
  range pool ?on m.n_cells (fun ~lo ~hi ->
      let[@inline always] at c =
        let j0 = Array.unsafe_get offsets c
        and j1 = Array.unsafe_get offsets (c + 1) in
        let acc = ref 0. in
        for j = j0 to j1 - 1 do
          let e = Array.unsafe_get edges j in
          acc :=
            !acc
            +. (Array.unsafe_get signs j *. Array.unsafe_get h_edge e
                *. Array.unsafe_get u e *. Array.unsafe_get dv e)
        done;
        Array.unsafe_set out c (-.(!acc) /. Array.unsafe_get area c)
      in
      match on with
      | None ->
          for c = lo to hi - 1 do
            at c
          done
      | Some idx ->
          for k = lo to hi - 1 do
            at idx.(k)
          done)

let tend_h_scatter (m : Mesh.t) ~h_edge ~u ~out =
  Array.fill out 0 m.n_cells 0.;
  for e = 0 to m.n_edges - 1 do
    let c1 = m.cells_on_edge.(e).(0) and c2 = m.cells_on_edge.(e).(1) in
    let flux = h_edge.(e) *. u.(e) *. m.dv_edge.(e) in
    out.(c1) <- out.(c1) -. (flux /. m.area_cell.(c1));
    out.(c2) <- out.(c2) +. (flux /. m.area_cell.(c2))
  done

let tend_u ?pool ?on ?(pv_average = Config.Symmetric) (m : Mesh.t) ~gravity ~h
    ~b ~ke ~h_edge ~u ~pv_edge ~out =
  let csr : Mesh.csr = Mesh.csr m in
  check_len "tend_u" "h" h m.n_cells;
  check_len "tend_u" "b" b m.n_cells;
  check_len "tend_u" "ke" ke m.n_cells;
  check_len "tend_u" "h_edge" h_edge m.n_edges;
  check_len "tend_u" "u" u m.n_edges;
  check_len "tend_u" "pv_edge" pv_edge m.n_edges;
  check_len "tend_u" "out" out m.n_edges;
  check_on "tend_u" on m.n_edges;
  let offsets = csr.eoe_offsets
  and eoe = csr.eoe_edges
  and w = csr.eoe_weights
  and ec = csr.edge_cells in
  let dc = m.dc_edge in
  range pool ?on m.n_edges (fun ~lo ~hi ->
      let[@inline always] at e =
        (* Perp flux; the symmetric potential-vorticity average makes the
           Coriolis force exactly energy-neutral. *)
        let i0 = Array.unsafe_get offsets e
        and i1 = Array.unsafe_get offsets (e + 1) in
        let q_flux = ref 0. in
        (match pv_average with
        | Config.Symmetric ->
            let pe = Array.unsafe_get pv_edge e in
            for i = i0 to i1 - 1 do
              let e' = Array.unsafe_get eoe i in
              let q = 0.5 *. (pe +. Array.unsafe_get pv_edge e') in
              q_flux :=
                !q_flux
                +. (Array.unsafe_get w i *. Array.unsafe_get u e'
                    *. Array.unsafe_get h_edge e' *. q)
            done
        | Config.Edge_only ->
            let q = Array.unsafe_get pv_edge e in
            for i = i0 to i1 - 1 do
              let e' = Array.unsafe_get eoe i in
              q_flux :=
                !q_flux
                +. (Array.unsafe_get w i *. Array.unsafe_get u e'
                    *. Array.unsafe_get h_edge e' *. q)
            done);
        let c1 = Array.unsafe_get ec (2 * e)
        and c2 = Array.unsafe_get ec ((2 * e) + 1) in
        (* Energies spelled out: a local closure here would keep [at]
           from being inlined. *)
        let e1 =
          (gravity *. (Array.unsafe_get h c1 +. Array.unsafe_get b c1))
          +. Array.unsafe_get ke c1
        and e2 =
          (gravity *. (Array.unsafe_get h c2 +. Array.unsafe_get b c2))
          +. Array.unsafe_get ke c2
        in
        let grad = (e2 -. e1) /. Array.unsafe_get dc e in
        Array.unsafe_set out e (!q_flux -. grad)
      in
      match on with
      | None ->
          for e = lo to hi - 1 do
            at e
          done
      | Some idx ->
          for k = lo to hi - 1 do
            at idx.(k)
          done)

let dissipation ?pool ?on (m : Mesh.t) ~visc2 ~divergence ~vorticity ~tend_u =
  if visc2 <> 0. then
    iter pool ?on m.n_edges (fun e ->
        let c1 = m.cells_on_edge.(e).(0) and c2 = m.cells_on_edge.(e).(1) in
        let v1 = m.vertices_on_edge.(e).(0)
        and v2 = m.vertices_on_edge.(e).(1) in
        let lap =
          ((divergence.(c2) -. divergence.(c1)) /. m.dc_edge.(e))
          -. ((vorticity.(v2) -. vorticity.(v1)) /. m.dv_edge.(e))
        in
        tend_u.(e) <- tend_u.(e) +. (visc2 *. lap))

let local_forcing ?pool ?on (m : Mesh.t) ~drag ~u ~tend_u =
  if drag <> 0. then
    iter pool ?on m.n_edges (fun e -> tend_u.(e) <- tend_u.(e) -. (drag *. u.(e)))

(* --- remaining kernels -------------------------------------------------- *)

let enforce_boundary_edge ?pool ?on (m : Mesh.t) ~tend_u =
  iter pool ?on m.n_edges (fun e ->
      if m.boundary_edge.(e) then tend_u.(e) <- 0.)

let next_substep_state ?pool ?on_cells ?on_edges (m : Mesh.t) ~coef
    ~(base : Fields.state) ~(tend : Fields.tendencies)
    ~(provis : Fields.state) =
  iter_pointwise pool ?on:on_cells m.n_cells (fun c ->
      provis.h.(c) <- base.h.(c) +. (coef *. tend.tend_h.(c)));
  iter_pointwise pool ?on:on_edges m.n_edges (fun e ->
      provis.u.(e) <- base.u.(e) +. (coef *. tend.tend_u.(e)))

let accumulate ?pool ?on_cells ?on_edges (m : Mesh.t) ~coef
    ~(tend : Fields.tendencies) ~(accum : Fields.state) =
  iter_pointwise pool ?on:on_cells m.n_cells (fun c ->
      accum.h.(c) <- accum.h.(c) +. (coef *. tend.tend_h.(c)));
  iter_pointwise pool ?on:on_edges m.n_edges (fun e ->
      accum.u.(e) <- accum.u.(e) +. (coef *. tend.tend_u.(e)))

(* --- extensions beyond the paper's Table I ------------------------------ *)

let tracer_edge ?pool ?on (m : Mesh.t) ~scheme ~tracer ~u ~out =
  let csr : Mesh.csr = Mesh.csr m in
  check_len "tracer_edge" "tracer" tracer m.n_cells;
  check_len "tracer_edge" "u" u m.n_edges;
  check_len "tracer_edge" "out" out m.n_edges;
  check_on "tracer_edge" on m.n_edges;
  let ec = csr.edge_cells in
  range pool ?on m.n_edges (fun ~lo ~hi ->
      let[@inline always] at e =
        let c1 = Array.unsafe_get ec (2 * e)
        and c2 = Array.unsafe_get ec ((2 * e) + 1) in
        Array.unsafe_set out e
          (match (scheme : Config.tracer_adv) with
          | Config.Centered ->
              0.5 *. (Array.unsafe_get tracer c1 +. Array.unsafe_get tracer c2)
          | Config.Upwind ->
              if Array.unsafe_get u e >= 0. then Array.unsafe_get tracer c1
              else Array.unsafe_get tracer c2)
      in
      match on with
      | None ->
          for e = lo to hi - 1 do
            at e
          done
      | Some idx ->
          for k = lo to hi - 1 do
            at idx.(k)
          done)

let tend_tracer ?pool ?on (m : Mesh.t) ~h_edge ~u ~tracer_edge ~out =
  let csr : Mesh.csr = Mesh.csr m in
  check_len "tend_tracer" "h_edge" h_edge m.n_edges;
  check_len "tend_tracer" "u" u m.n_edges;
  check_len "tend_tracer" "tracer_edge" tracer_edge m.n_edges;
  check_len "tend_tracer" "out" out m.n_cells;
  check_on "tend_tracer" on m.n_cells;
  let offsets = csr.cell_offsets
  and edges = csr.cell_edges
  and signs = csr.cell_edge_signs in
  let dv = m.dv_edge and area = m.area_cell in
  range pool ?on m.n_cells (fun ~lo ~hi ->
      let[@inline always] at c =
        let j0 = Array.unsafe_get offsets c
        and j1 = Array.unsafe_get offsets (c + 1) in
        let acc = ref 0. in
        for j = j0 to j1 - 1 do
          let e = Array.unsafe_get edges j in
          acc :=
            !acc
            +. (Array.unsafe_get signs j *. Array.unsafe_get h_edge e
                *. Array.unsafe_get tracer_edge e *. Array.unsafe_get u e
                *. Array.unsafe_get dv e)
        done;
        Array.unsafe_set out c (-.(!acc) /. Array.unsafe_get area c)
      in
      match on with
      | None ->
          for c = lo to hi - 1 do
            at c
          done
      | Some idx ->
          for k = lo to hi - 1 do
            at idx.(k)
          done)

let tend_tracer_scatter (m : Mesh.t) ~h_edge ~u ~tracer_edge ~out =
  Array.fill out 0 m.n_cells 0.;
  for e = 0 to m.n_edges - 1 do
    let c1 = m.cells_on_edge.(e).(0) and c2 = m.cells_on_edge.(e).(1) in
    let flux = h_edge.(e) *. tracer_edge.(e) *. u.(e) *. m.dv_edge.(e) in
    out.(c1) <- out.(c1) -. (flux /. m.area_cell.(c1));
    out.(c2) <- out.(c2) +. (flux /. m.area_cell.(c2))
  done

let velocity_laplacian ?pool ?on (m : Mesh.t) ~divergence ~vorticity ~out =
  let csr : Mesh.csr = Mesh.csr m in
  check_len "velocity_laplacian" "divergence" divergence m.n_cells;
  check_len "velocity_laplacian" "vorticity" vorticity m.n_vertices;
  check_len "velocity_laplacian" "out" out m.n_edges;
  check_on "velocity_laplacian" on m.n_edges;
  let ec = csr.edge_cells and ev = csr.edge_vertices in
  let dc = m.dc_edge and dv = m.dv_edge in
  range pool ?on m.n_edges (fun ~lo ~hi ->
      let[@inline always] at e =
        let c1 = Array.unsafe_get ec (2 * e)
        and c2 = Array.unsafe_get ec ((2 * e) + 1) in
        let v1 = Array.unsafe_get ev (2 * e)
        and v2 = Array.unsafe_get ev ((2 * e) + 1) in
        Array.unsafe_set out e
          (((Array.unsafe_get divergence c2 -. Array.unsafe_get divergence c1)
           /. Array.unsafe_get dc e)
          -. ((Array.unsafe_get vorticity v2 -. Array.unsafe_get vorticity v1)
             /. Array.unsafe_get dv e))
      in
      match on with
      | None ->
          for e = lo to hi - 1 do
            at e
          done
      | Some idx ->
          for k = lo to hi - 1 do
            at idx.(k)
          done)

let del4_dissipation ?pool ?on (m : Mesh.t) ~visc4 ~div_lap ~vort_lap ~tend_u =
  if visc4 <> 0. then
    iter pool ?on m.n_edges (fun e ->
        let c1 = m.cells_on_edge.(e).(0) and c2 = m.cells_on_edge.(e).(1) in
        let v1 = m.vertices_on_edge.(e).(0)
        and v2 = m.vertices_on_edge.(e).(1) in
        let lap2 =
          ((div_lap.(c2) -. div_lap.(c1)) /. m.dc_edge.(e))
          -. ((vort_lap.(v2) -. vort_lap.(v1)) /. m.dv_edge.(e))
        in
        tend_u.(e) <- tend_u.(e) -. (visc4 *. lap2))

let next_substep_tracers ?pool ?on (m : Mesh.t) ~coef ~(base : Fields.state)
    ~(tend : Fields.tendencies) ~(provis : Fields.state) =
  Array.iteri
    (fun k row ->
      let base_row = base.Fields.tracers.(k) in
      let tend_row = tend.Fields.tend_tracers.(k) in
      iter_pointwise pool ?on m.n_cells (fun c ->
          row.(c) <-
            ((base.Fields.h.(c) *. base_row.(c)) +. (coef *. tend_row.(c)))
            /. provis.Fields.h.(c)))
    provis.Fields.tracers

(* The accumulator rows hold the conservative quantity h * tracer during
   the step; [finalize_tracers] converts back to concentrations. *)
let seed_tracer_accumulator ?pool ?on (m : Mesh.t) ~(state : Fields.state)
    ~(accum : Fields.state) =
  Array.iteri
    (fun k row ->
      let state_row = state.Fields.tracers.(k) in
      iter_pointwise pool ?on m.n_cells (fun c ->
          row.(c) <- state.Fields.h.(c) *. state_row.(c)))
    accum.Fields.tracers

let accumulate_tracers ?pool ?on (m : Mesh.t) ~coef
    ~(tend : Fields.tendencies) ~(accum : Fields.state) =
  Array.iteri
    (fun k row ->
      let tend_row = tend.Fields.tend_tracers.(k) in
      iter_pointwise pool ?on m.n_cells (fun c ->
          row.(c) <- row.(c) +. (coef *. tend_row.(c))))
    accum.Fields.tracers

let finalize_tracers ?pool ?on (m : Mesh.t) ~(state : Fields.state) =
  Array.iter
    (fun row ->
      iter_pointwise pool ?on m.n_cells (fun c ->
          row.(c) <- row.(c) /. state.Fields.h.(c)))
    state.Fields.tracers

(* Convex/affine state blend for multi-stage integrators:
   out = a*base + b*other + c*tend.  Tracer rows blend in conservative
   (h * tracer) form, so [out.h] is written first. *)
let blend ?pool ?on_cells ?on_edges (m : Mesh.t) ~a ~(base : Fields.state) ~b
    ~(other : Fields.state) ~c ~(tend : Fields.tendencies)
    ~(out : Fields.state) =
  iter_pointwise pool ?on:on_cells m.n_cells (fun i ->
      out.Fields.h.(i) <-
        (a *. base.Fields.h.(i)) +. (b *. other.Fields.h.(i))
        +. (c *. tend.Fields.tend_h.(i)));
  iter_pointwise pool ?on:on_edges m.n_edges (fun i ->
      out.Fields.u.(i) <-
        (a *. base.Fields.u.(i)) +. (b *. other.Fields.u.(i))
        +. (c *. tend.Fields.tend_u.(i)));
  Array.iteri
    (fun k row ->
      let base_row = base.Fields.tracers.(k) in
      let other_row = other.Fields.tracers.(k) in
      let tend_row = tend.Fields.tend_tracers.(k) in
      iter_pointwise pool ?on:on_cells m.n_cells (fun i ->
          row.(i) <-
            ((a *. base.Fields.h.(i) *. base_row.(i))
            +. (b *. other.Fields.h.(i) *. other_row.(i))
            +. (c *. tend_row.(i)))
            /. out.Fields.h.(i)))
    out.Fields.tracers
