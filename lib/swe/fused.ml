open Mpas_mesh

(* Fused super-kernels for the task runtime: each function runs a legal
   kernel chain (as packed by the runtime's spec planner) over one
   contiguous tile [lo, hi) of its index space, carrying intermediate
   values in registers where a member point-reads what the previous
   member just wrote.  Every member's output array is still written in
   full — the analysis layer (footprint inference, race replay) keeps
   seeing the union footprint of the chain.

   Bit-identity with the member-sequential kernels in {!Operators} is
   load-bearing: every accumulation walks the same CSR rows in the same
   order and every expression keeps the member kernel's operation
   order, so a register-carried value is the very float64 the member
   would have re-loaded. *)

let check_len kernel name a n =
  if Array.length a < n then
    invalid_arg
      (Printf.sprintf "Fused.%s: %s has %d elements, need %d" kernel name
         (Array.length a) n)

(* A1 [+X4]: height tendency over cells [lo, hi); [x4 = Some (coef,
   accum_h, publish)] rides the accumulative update on the same sweep
   and, in the final substep, publishes the slice into the state. *)
let tend_h_chain (m : Mesh.t) ~h_edge ~u ~out ~x4 ~lo ~hi =
  let csr : Mesh.csr = Mesh.csr m in
  check_len "tend_h_chain" "h_edge" h_edge m.n_edges;
  check_len "tend_h_chain" "u" u m.n_edges;
  check_len "tend_h_chain" "out" out m.n_cells;
  let offsets = csr.cell_offsets
  and edges = csr.cell_edges
  and signs = csr.cell_edge_signs in
  let dv = m.dv_edge and area = m.area_cell in
  match x4 with
  | None ->
      for c = lo to hi - 1 do
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
      done
  | Some (coef, accum_h, publish) ->
      check_len "tend_h_chain" "accum_h" accum_h m.n_cells;
      for c = lo to hi - 1 do
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
        let th = -.(!acc) /. Array.unsafe_get area c in
        Array.unsafe_set out c th;
        let a = Array.unsafe_get accum_h c +. (coef *. th) in
        Array.unsafe_set accum_h c a;
        match publish with
        | None -> ()
        | Some state_h -> Array.unsafe_set state_h c a
      done

(* B1 [+C1] [+X1] [+X2] [+X5]: velocity tendency over edges [lo, hi)
   with the optional dissipation, bottom drag, boundary enforcement and
   accumulative update folded into the same sweep.  The gated members
   pass [None]/[false] when their coefficient is zero (the member
   kernels are no-ops then), so the fused loop stays branch-light. *)
let tend_u_chain (m : Mesh.t) ~pv_average ~gravity ~h ~b ~ke ~h_edge ~u
    ~pv_edge ~out ~dissip ~drag ~boundary ~x5 ~lo ~hi =
  let csr : Mesh.csr = Mesh.csr m in
  check_len "tend_u_chain" "h" h m.n_cells;
  check_len "tend_u_chain" "b" b m.n_cells;
  check_len "tend_u_chain" "ke" ke m.n_cells;
  check_len "tend_u_chain" "h_edge" h_edge m.n_edges;
  check_len "tend_u_chain" "u" u m.n_edges;
  check_len "tend_u_chain" "pv_edge" pv_edge m.n_edges;
  check_len "tend_u_chain" "out" out m.n_edges;
  let offsets = csr.eoe_offsets
  and eoe = csr.eoe_edges
  and w = csr.eoe_weights
  and ec = csr.edge_cells
  and ev = csr.edge_vertices in
  let dc = m.dc_edge and dv = m.dv_edge in
  let bnd = m.boundary_edge in
  let symmetric = pv_average = Config.Symmetric in
  for e = lo to hi - 1 do
    let i0 = Array.unsafe_get offsets e
    and i1 = Array.unsafe_get offsets (e + 1) in
    let q_flux = ref 0. in
    if symmetric then begin
      let pe = Array.unsafe_get pv_edge e in
      for i = i0 to i1 - 1 do
        let e' = Array.unsafe_get eoe i in
        let q = 0.5 *. (pe +. Array.unsafe_get pv_edge e') in
        q_flux :=
          !q_flux
          +. (Array.unsafe_get w i *. Array.unsafe_get u e'
              *. Array.unsafe_get h_edge e' *. q)
      done
    end
    else begin
      let q = Array.unsafe_get pv_edge e in
      for i = i0 to i1 - 1 do
        let e' = Array.unsafe_get eoe i in
        q_flux :=
          !q_flux
          +. (Array.unsafe_get w i *. Array.unsafe_get u e'
              *. Array.unsafe_get h_edge e' *. q)
      done
    end;
    let c1 = Array.unsafe_get ec (2 * e)
    and c2 = Array.unsafe_get ec ((2 * e) + 1) in
    let e1 =
      (gravity *. (Array.unsafe_get h c1 +. Array.unsafe_get b c1))
      +. Array.unsafe_get ke c1
    and e2 =
      (gravity *. (Array.unsafe_get h c2 +. Array.unsafe_get b c2))
      +. Array.unsafe_get ke c2
    in
    let grad = (e2 -. e1) /. Array.unsafe_get dc e in
    let t = ref (!q_flux -. grad) in
    (match dissip with
    | None -> ()
    | Some (visc2, divergence, vorticity) ->
        let v1 = Array.unsafe_get ev (2 * e)
        and v2 = Array.unsafe_get ev ((2 * e) + 1) in
        let lap =
          ((Array.unsafe_get divergence c2 -. Array.unsafe_get divergence c1)
          /. Array.unsafe_get dc e)
          -. ((Array.unsafe_get vorticity v2 -. Array.unsafe_get vorticity v1)
             /. Array.unsafe_get dv e)
        in
        t := !t +. (visc2 *. lap));
    if drag <> 0. then t := !t -. (drag *. Array.unsafe_get u e);
    if boundary && Array.unsafe_get bnd e then t := 0.;
    Array.unsafe_set out e !t;
    match x5 with
    | None -> ()
    | Some (coef, accum_u, publish) -> (
        let a = Array.unsafe_get accum_u e +. (coef *. !t) in
        Array.unsafe_set accum_u e a;
        match publish with
        | None -> ()
        | Some state_u -> Array.unsafe_set state_u e a)
  done

(* [H2] [+A2] [+A3] [+X4]: the cell-space diagnostics share one walk of
   the cell-edge CSR row; [d2 = None] when the advection order is
   second (H2 is a no-op then) and each member's output is optional so
   partial chains compile to the same loop. *)
let diag_cells_chain (m : Mesh.t) ~h ~u ~d2 ~ke_out ~div_out ~x4 ~tend_h ~lo
    ~hi =
  let csr : Mesh.csr = Mesh.csr m in
  check_len "diag_cells_chain" "h" h m.n_cells;
  check_len "diag_cells_chain" "u" u m.n_edges;
  let offsets = csr.cell_offsets
  and edges = csr.cell_edges
  and signs = csr.cell_edge_signs
  and nbors = csr.cell_neighbors in
  let dc = m.dc_edge and dv = m.dv_edge and area = m.area_cell in
  (match d2 with Some o -> check_len "diag_cells_chain" "d2" o m.n_cells | None -> ());
  (match ke_out with Some o -> check_len "diag_cells_chain" "ke_out" o m.n_cells | None -> ());
  (match div_out with Some o -> check_len "diag_cells_chain" "div_out" o m.n_cells | None -> ());
  for c = lo to hi - 1 do
    let j0 = Array.unsafe_get offsets c
    and j1 = Array.unsafe_get offsets (c + 1) in
    (match d2 with
    | None -> ()
    | Some out ->
        let hc = Array.unsafe_get h c in
        let acc = ref 0. in
        for j = j0 to j1 - 1 do
          let e = Array.unsafe_get edges j in
          let c' = Array.unsafe_get nbors j in
          acc :=
            !acc
            +. (Array.unsafe_get dv e
                *. (Array.unsafe_get h c' -. hc)
                /. Array.unsafe_get dc e)
        done;
        Array.unsafe_set out c (!acc /. Array.unsafe_get area c));
    (match ke_out with
    | None -> ()
    | Some out ->
        let acc = ref 0. in
        for j = j0 to j1 - 1 do
          let e = Array.unsafe_get edges j in
          let ue = Array.unsafe_get u e in
          acc :=
            !acc
            +. (0.25 *. Array.unsafe_get dc e *. Array.unsafe_get dv e *. ue
                *. ue)
        done;
        Array.unsafe_set out c (!acc /. Array.unsafe_get area c));
    (match div_out with
    | None -> ()
    | Some out ->
        let acc = ref 0. in
        for j = j0 to j1 - 1 do
          let e = Array.unsafe_get edges j in
          acc :=
            !acc
            +. (Array.unsafe_get signs j *. Array.unsafe_get u e
                *. Array.unsafe_get dv e)
        done;
        Array.unsafe_set out c (!acc /. Array.unsafe_get area c));
    match x4 with
    | None -> ()
    | Some (coef, accum_h, publish) -> (
        let a =
          Array.unsafe_get accum_h c +. (coef *. Array.unsafe_get tend_h c)
        in
        Array.unsafe_set accum_h c a;
        match publish with
        | None -> ()
        | Some state_h -> Array.unsafe_set state_h c a)
  done

(* B2 [+G] [+X5]: edge-space diagnostics; G's tangential-velocity row
   walk and X5's accumulative update ride the h_edge sweep. *)
let diag_edges_chain (m : Mesh.t) ~order ~h ~d2fdx2_cell ~h_edge_out ~g ~x5
    ~tend_u ~lo ~hi =
  let csr : Mesh.csr = Mesh.csr m in
  check_len "diag_edges_chain" "h" h m.n_cells;
  check_len "diag_edges_chain" "h_edge_out" h_edge_out m.n_edges;
  let ec = csr.edge_cells in
  let offsets = csr.eoe_offsets and eoe = csr.eoe_edges and w = csr.eoe_weights in
  let dc = m.dc_edge in
  let fourth = order = Config.Fourth in
  if fourth then check_len "diag_edges_chain" "d2fdx2_cell" d2fdx2_cell m.n_cells;
  for e = lo to hi - 1 do
    let c1 = Array.unsafe_get ec (2 * e)
    and c2 = Array.unsafe_get ec ((2 * e) + 1) in
    (if fourth then begin
       let dce = Array.unsafe_get dc e in
       Array.unsafe_set h_edge_out e
         ((0.5 *. (Array.unsafe_get h c1 +. Array.unsafe_get h c2))
         -. (dce *. dce /. 24.
             *. (Array.unsafe_get d2fdx2_cell c1
                +. Array.unsafe_get d2fdx2_cell c2)))
     end
     else
       Array.unsafe_set h_edge_out e
         (0.5 *. (Array.unsafe_get h c1 +. Array.unsafe_get h c2)));
    (match g with
    | None -> ()
    | Some (u, v_out) ->
        let i0 = Array.unsafe_get offsets e
        and i1 = Array.unsafe_get offsets (e + 1) in
        let acc = ref 0. in
        for i = i0 to i1 - 1 do
          acc :=
            !acc
            +. (Array.unsafe_get w i
                *. Array.unsafe_get u (Array.unsafe_get eoe i))
        done;
        Array.unsafe_set v_out e !acc);
    match x5 with
    | None -> ()
    | Some (coef, accum_u, publish) -> (
        let a =
          Array.unsafe_get accum_u e +. (coef *. Array.unsafe_get tend_u e)
        in
        Array.unsafe_set accum_u e a;
        match publish with
        | None -> ()
        | Some state_u -> Array.unsafe_set state_u e a)
  done

(* D1 [+C2] [+D2]: the vertex-space diagnostics share the stride-3
   vertex rows; D2 reads the circulation and thickness it just
   computed from registers. *)
let vortex_chain (m : Mesh.t) ~u ~h ~vort_out ~hv_out ~pv_out ~lo ~hi =
  let csr : Mesh.csr = Mesh.csr m in
  check_len "vortex_chain" "u" u m.n_edges;
  check_len "vortex_chain" "h" h m.n_cells;
  check_len "vortex_chain" "vort_out" vort_out m.n_vertices;
  let ve = csr.vertex_edges
  and esigns = csr.vertex_edge_signs
  and vc = csr.vertex_cells
  and kites = csr.vertex_kite_areas in
  let dc = m.dc_edge and area = m.area_triangle and fv = m.f_vertex in
  (match hv_out with Some o -> check_len "vortex_chain" "hv_out" o m.n_vertices | None -> ());
  (match pv_out with Some o -> check_len "vortex_chain" "pv_out" o m.n_vertices | None -> ());
  for v = lo to hi - 1 do
    let b = 3 * v in
    let acc = ref 0. in
    for k = b to b + 2 do
      let e = Array.unsafe_get ve k in
      acc :=
        !acc
        +. (Array.unsafe_get esigns k *. Array.unsafe_get u e
            *. Array.unsafe_get dc e)
    done;
    let vort = !acc /. Array.unsafe_get area v in
    Array.unsafe_set vort_out v vort;
    let hv =
      match hv_out with
      | None -> 0.
      | Some out ->
          let acc = ref 0. in
          for k = b to b + 2 do
            acc :=
              !acc
              +. (Array.unsafe_get kites k
                  *. Array.unsafe_get h (Array.unsafe_get vc k))
          done;
          let hv = !acc /. Array.unsafe_get area v in
          Array.unsafe_set out v hv;
          hv
    in
    match pv_out with
    | None -> ()
    | Some out ->
        Array.unsafe_set out v ((Array.unsafe_get fv v +. vort) /. hv)
  done

(* [G+] H1 [+F]: the potential-vorticity edge chain.  H1's gradients
   and G's tangential velocity stay in registers for F's APVM
   correction; all member outputs are still stored. *)
let pv_edge_chain (m : Mesh.t) ~g ~pv_cell ~pv_vertex ~gn_out ~gt_out ~f ~lo
    ~hi =
  let csr : Mesh.csr = Mesh.csr m in
  check_len "pv_edge_chain" "pv_cell" pv_cell m.n_cells;
  check_len "pv_edge_chain" "pv_vertex" pv_vertex m.n_vertices;
  check_len "pv_edge_chain" "gn_out" gn_out m.n_edges;
  check_len "pv_edge_chain" "gt_out" gt_out m.n_edges;
  let ec = csr.edge_cells and ev = csr.edge_vertices in
  let offsets = csr.eoe_offsets and eoe = csr.eoe_edges and w = csr.eoe_weights in
  let dc = m.dc_edge and dv = m.dv_edge in
  for e = lo to hi - 1 do
    let v1 = Array.unsafe_get ev (2 * e)
    and v2 = Array.unsafe_get ev ((2 * e) + 1) in
    let tv =
      match g with
      | None -> 0.
      | Some (u, v_out) ->
          let i0 = Array.unsafe_get offsets e
          and i1 = Array.unsafe_get offsets (e + 1) in
          let acc = ref 0. in
          for i = i0 to i1 - 1 do
            acc :=
              !acc
              +. (Array.unsafe_get w i
                  *. Array.unsafe_get u (Array.unsafe_get eoe i))
          done;
          Array.unsafe_set v_out e !acc;
          !acc
    in
    let c1 = Array.unsafe_get ec (2 * e)
    and c2 = Array.unsafe_get ec ((2 * e) + 1) in
    let gn =
      (Array.unsafe_get pv_cell c2 -. Array.unsafe_get pv_cell c1)
      /. Array.unsafe_get dc e
    and gt =
      (Array.unsafe_get pv_vertex v2 -. Array.unsafe_get pv_vertex v1)
      /. Array.unsafe_get dv e
    in
    Array.unsafe_set gn_out e gn;
    Array.unsafe_set gt_out e gt;
    match f with
    | None -> ()
    | Some (apvm_factor, dt, u, v_tangential, out) ->
        let tv =
          match g with None -> Array.unsafe_get v_tangential e | Some _ -> tv
        in
        let base =
          0.5 *. (Array.unsafe_get pv_vertex v1 +. Array.unsafe_get pv_vertex v2)
        in
        let advect = (Array.unsafe_get u e *. gn) +. (tv *. gt) in
        Array.unsafe_set out e (base -. (apvm_factor *. dt *. advect))
  done

(* The A4 [+X6] reconstruction chain lives in {!Reconstruct.run_range}:
   its coefficient table is abstract, so the scalarized fused loop is
   implemented next to it. *)
