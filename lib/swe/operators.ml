open Mpas_mesh
open Mpas_par

(* Chunk runner of every kernel: [body ~lo ~hi] gets index runs that
   cover the full range [0, n) or, with [on], the span set — span by
   span without a pool, in chunks with one.  Every gather stencil
   writes its per-element work once, as a top-level [[@inline always]]
   body [<name>_at] taking the CSR tables and geometry arrays it reads
   as arguments; a kernel binds those arrays once and drives the body
   from the single loop header [for i = lo to hi - 1] inside [body], so
   both walks compile to the same straight loop with no call per
   element.  The fused chains below run the same bodies under the same
   runner.  A body may not define a local closure, which would block
   the inlining. *)
let range ?chunk pool ?on n body =
  match (on, pool) with
  | None, None -> if n > 0 then body ~lo:0 ~hi:n
  | None, Some p -> Pool.parallel_for_chunks ?chunk p ~lo:0 ~hi:n body
  | Some s, _ -> Span.runs ?chunk pool s body

(* Cheap point-wise loops (the X-pattern instances) are dominated by
   scheduling overhead at the default granularity; hand out two big
   chunks per domain instead. *)
let pointwise pool ?on n body =
  let chunk =
    match pool with
    | None -> None
    | Some p ->
        let len = match on with None -> n | Some s -> Span.cardinal s in
        Some (Int.max 1 (len / (2 * Pool.size p)))
  in
  range ?chunk pool ?on n body

(* Point-wise kernels whose body is a per-element closure. *)
let iter pool ?on n f =
  pointwise pool ?on n (fun ~lo ~hi ->
      for i = lo to hi - 1 do
        f i
      done)

(* The CSR kernels index caller-provided fields with [Array.unsafe_get];
   the mesh side is validated once by [Mesh.make], the field side here. *)
let check_len kernel name a n =
  if Array.length a < n then
    invalid_arg
      (Printf.sprintf "Operators.%s: %s has %d elements, need %d" kernel name
         (Array.length a) n)

let check_lens kernel n fields =
  List.iter (fun (name, a) -> check_len kernel name a n) fields

let check_opt kernel name a n =
  Option.iter (fun a -> check_len kernel name a n) a

(* A span set walk writes [out.(i)] unchecked for every index in the
   set, so the set is confined to the output space at entry, before any
   write.  A span set is sorted and non-negative by construction, so
   the check is one comparison. *)
let check_on kernel on n =
  match on with
  | Some s when Span.bound s > n -> Span.within ("Operators." ^ kernel) s n
  | _ -> ()

(* --- compute_solve_diagnostics ---------------------------------------- *)

let[@inline always] d2fdx2_at cell_offsets cell_edges cell_neighbors dv_edge
    dc_edge area_cell h c =
  let j0 = Array.unsafe_get cell_offsets c
  and j1 = Array.unsafe_get cell_offsets (c + 1) in
  let hc = Array.unsafe_get h c in
  let acc = ref 0. in
  for j = j0 to j1 - 1 do
    let e = Array.unsafe_get cell_edges j in
    acc :=
      !acc
      +. (Array.unsafe_get dv_edge e
          *. (Array.unsafe_get h (Array.unsafe_get cell_neighbors j) -. hc)
          /. Array.unsafe_get dc_edge e)
  done;
  !acc /. Array.unsafe_get area_cell c

let d2fdx2 ?pool ?on (m : Mesh.t) ~h ~out =
  let csr = m.Mesh.csr in
  check_lens "d2fdx2" m.n_cells [ ("h", h); ("out", out) ];
  check_on "d2fdx2" on m.n_cells;
  let cell_offsets = csr.cell_offsets
  and cell_edges = csr.cell_edges
  and cell_neighbors = csr.cell_neighbors in
  let dv_edge = m.dv_edge and dc_edge = m.dc_edge and area_cell = m.area_cell in
  range pool ?on m.n_cells (fun ~lo ~hi ->
      for c = lo to hi - 1 do
        Array.unsafe_set out c
          (d2fdx2_at cell_offsets cell_edges cell_neighbors dv_edge dc_edge
             area_cell h c)
      done)

let d2fdx2_scatter (m : Mesh.t) ~h ~out =
  Array.fill out 0 m.n_cells 0.;
  let ec = m.csr.edge_cells in
  for e = 0 to m.n_edges - 1 do
    let c1 = ec.(2 * e) and c2 = ec.((2 * e) + 1) in
    let flux = m.dv_edge.(e) *. (h.(c2) -. h.(c1)) /. m.dc_edge.(e) in
    out.(c1) <- out.(c1) +. (flux /. m.area_cell.(c1));
    out.(c2) <- out.(c2) -. (flux /. m.area_cell.(c2))
  done

(* [fourth] selects the fourth-order correction; [d2fdx2_cell] is read
   only then. *)
let[@inline always] h_edge_at fourth edge_cells dc_edge h d2fdx2_cell e =
  let c1 = Array.unsafe_get edge_cells (2 * e)
  and c2 = Array.unsafe_get edge_cells ((2 * e) + 1) in
  let mean = 0.5 *. (Array.unsafe_get h c1 +. Array.unsafe_get h c2) in
  if fourth then
    let dc = Array.unsafe_get dc_edge e in
    mean
    -. (dc *. dc /. 24.
        *. (Array.unsafe_get d2fdx2_cell c1 +. Array.unsafe_get d2fdx2_cell c2))
  else mean

let h_edge ?pool ?on (m : Mesh.t) ~order ~h ~d2fdx2_cell ~out =
  let csr = m.Mesh.csr in
  let fourth = (order : Config.h_adv_order) = Config.Fourth in
  check_len "h_edge" "h" h m.n_cells;
  if fourth then check_len "h_edge" "d2fdx2_cell" d2fdx2_cell m.n_cells;
  check_len "h_edge" "out" out m.n_edges;
  check_on "h_edge" on m.n_edges;
  let edge_cells = csr.edge_cells and dc_edge = m.dc_edge in
  range pool ?on m.n_edges (fun ~lo ~hi ->
      for e = lo to hi - 1 do
        Array.unsafe_set out e
          (h_edge_at fourth edge_cells dc_edge h d2fdx2_cell e)
      done)

let[@inline always] kinetic_energy_at cell_offsets cell_edges dc_edge dv_edge
    area_cell u c =
  let j0 = Array.unsafe_get cell_offsets c
  and j1 = Array.unsafe_get cell_offsets (c + 1) in
  let acc = ref 0. in
  for j = j0 to j1 - 1 do
    let e = Array.unsafe_get cell_edges j in
    let ue = Array.unsafe_get u e in
    acc :=
      !acc
      +. (0.25 *. Array.unsafe_get dc_edge e *. Array.unsafe_get dv_edge e *. ue
          *. ue)
  done;
  !acc /. Array.unsafe_get area_cell c

let kinetic_energy ?pool ?on (m : Mesh.t) ~u ~out =
  let csr = m.Mesh.csr in
  check_len "kinetic_energy" "u" u m.n_edges;
  check_len "kinetic_energy" "out" out m.n_cells;
  check_on "kinetic_energy" on m.n_cells;
  let cell_offsets = csr.cell_offsets and cell_edges = csr.cell_edges in
  let dc_edge = m.dc_edge and dv_edge = m.dv_edge and area_cell = m.area_cell in
  range pool ?on m.n_cells (fun ~lo ~hi ->
      for c = lo to hi - 1 do
        Array.unsafe_set out c
          (kinetic_energy_at cell_offsets cell_edges dc_edge dv_edge area_cell u
             c)
      done)

let kinetic_energy_scatter (m : Mesh.t) ~u ~out =
  Array.fill out 0 m.n_cells 0.;
  let ec = m.csr.edge_cells in
  for e = 0 to m.n_edges - 1 do
    let c1 = ec.(2 * e) and c2 = ec.((2 * e) + 1) in
    let contrib = 0.25 *. m.dc_edge.(e) *. m.dv_edge.(e) *. u.(e) *. u.(e) in
    out.(c1) <- out.(c1) +. (contrib /. m.area_cell.(c1));
    out.(c2) <- out.(c2) +. (contrib /. m.area_cell.(c2))
  done

let[@inline always] divergence_at cell_offsets cell_edges cell_edge_signs
    dv_edge area_cell u c =
  let j0 = Array.unsafe_get cell_offsets c
  and j1 = Array.unsafe_get cell_offsets (c + 1) in
  let acc = ref 0. in
  for j = j0 to j1 - 1 do
    let e = Array.unsafe_get cell_edges j in
    acc :=
      !acc
      +. (Array.unsafe_get cell_edge_signs j *. Array.unsafe_get u e
          *. Array.unsafe_get dv_edge e)
  done;
  !acc /. Array.unsafe_get area_cell c

let divergence ?pool ?on (m : Mesh.t) ~u ~out =
  let csr = m.Mesh.csr in
  check_len "divergence" "u" u m.n_edges;
  check_len "divergence" "out" out m.n_cells;
  check_on "divergence" on m.n_cells;
  let cell_offsets = csr.cell_offsets
  and cell_edges = csr.cell_edges
  and cell_edge_signs = csr.cell_edge_signs in
  let dv_edge = m.dv_edge and area_cell = m.area_cell in
  range pool ?on m.n_cells (fun ~lo ~hi ->
      for c = lo to hi - 1 do
        Array.unsafe_set out c
          (divergence_at cell_offsets cell_edges cell_edge_signs dv_edge
             area_cell u c)
      done)

let divergence_scatter (m : Mesh.t) ~u ~out =
  Array.fill out 0 m.n_cells 0.;
  let ec = m.csr.edge_cells in
  for e = 0 to m.n_edges - 1 do
    let c1 = ec.(2 * e) and c2 = ec.((2 * e) + 1) in
    let flux = u.(e) *. m.dv_edge.(e) in
    out.(c1) <- out.(c1) +. (flux /. m.area_cell.(c1));
    out.(c2) <- out.(c2) -. (flux /. m.area_cell.(c2))
  done

let[@inline always] vorticity_at vertex_edges vertex_edge_signs dc_edge
    area_triangle u v =
  let b = 3 * v in
  let acc = ref 0. in
  for k = b to b + 2 do
    let e = Array.unsafe_get vertex_edges k in
    acc :=
      !acc
      +. (Array.unsafe_get vertex_edge_signs k *. Array.unsafe_get u e
          *. Array.unsafe_get dc_edge e)
  done;
  !acc /. Array.unsafe_get area_triangle v

let vorticity ?pool ?on (m : Mesh.t) ~u ~out =
  let csr = m.Mesh.csr in
  check_len "vorticity" "u" u m.n_edges;
  check_len "vorticity" "out" out m.n_vertices;
  check_on "vorticity" on m.n_vertices;
  let vertex_edges = csr.vertex_edges
  and vertex_edge_signs = csr.vertex_edge_signs in
  let dc_edge = m.dc_edge and area_triangle = m.area_triangle in
  range pool ?on m.n_vertices (fun ~lo ~hi ->
      for v = lo to hi - 1 do
        Array.unsafe_set out v
          (vorticity_at vertex_edges vertex_edge_signs dc_edge area_triangle u
             v)
      done)

let vorticity_scatter (m : Mesh.t) ~u ~out =
  let csr = m.csr in
  Array.fill out 0 m.n_vertices 0.;
  for e = 0 to m.n_edges - 1 do
    (* The edge's circulation contribution is +u dc along the normal
       direction; find its sign for each adjacent vertex. *)
    let circ = u.(e) *. m.dc_edge.(e) in
    for i = 2 * e to (2 * e) + 1 do
      let v = csr.edge_vertices.(i) in
      let k =
        if csr.vertex_edges.(3 * v) = e then 3 * v
        else if csr.vertex_edges.((3 * v) + 1) = e then (3 * v) + 1
        else (3 * v) + 2
      in
      out.(v) <-
        out.(v) +. (csr.vertex_edge_signs.(k) *. circ /. m.area_triangle.(v))
    done
  done

let[@inline always] h_vertex_at vertex_cells vertex_kite_areas area_triangle h
    v =
  let b = 3 * v in
  let acc = ref 0. in
  for k = b to b + 2 do
    acc :=
      !acc
      +. (Array.unsafe_get vertex_kite_areas k
          *. Array.unsafe_get h (Array.unsafe_get vertex_cells k))
  done;
  !acc /. Array.unsafe_get area_triangle v

let h_vertex ?pool ?on (m : Mesh.t) ~h ~out =
  let csr = m.Mesh.csr in
  check_len "h_vertex" "h" h m.n_cells;
  check_len "h_vertex" "out" out m.n_vertices;
  check_on "h_vertex" on m.n_vertices;
  let vertex_cells = csr.vertex_cells
  and vertex_kite_areas = csr.vertex_kite_areas in
  let area_triangle = m.area_triangle in
  range pool ?on m.n_vertices (fun ~lo ~hi ->
      for v = lo to hi - 1 do
        Array.unsafe_set out v
          (h_vertex_at vertex_cells vertex_kite_areas area_triangle h v)
      done)

let pv_vertex ?pool ?on (m : Mesh.t) ~vorticity ~h_vertex ~out =
  check_on "pv_vertex" on m.n_vertices;
  iter pool ?on m.n_vertices (fun v ->
      out.(v) <- (m.f_vertex.(v) +. vorticity.(v)) /. h_vertex.(v))

let[@inline always] pv_cell_at cell_offsets cell_vertices cell_kite_areas
    area_cell pv_vertex c =
  let acc = ref 0. in
  for j = Array.unsafe_get cell_offsets c
      to Array.unsafe_get cell_offsets (c + 1) - 1 do
    acc :=
      !acc
      +. (Array.unsafe_get cell_kite_areas j
          *. Array.unsafe_get pv_vertex (Array.unsafe_get cell_vertices j))
  done;
  !acc /. Array.unsafe_get area_cell c

let pv_cell ?pool ?on (m : Mesh.t) ~pv_vertex ~out =
  let csr = m.Mesh.csr in
  check_len "pv_cell" "pv_vertex" pv_vertex m.n_vertices;
  check_len "pv_cell" "out" out m.n_cells;
  check_on "pv_cell" on m.n_cells;
  let cell_offsets = csr.cell_offsets
  and cell_vertices = csr.cell_vertices
  and cell_kite_areas = csr.cell_kite_areas in
  let area_cell = m.area_cell in
  range pool ?on m.n_cells (fun ~lo ~hi ->
      for c = lo to hi - 1 do
        Array.unsafe_set out c
          (pv_cell_at cell_offsets cell_vertices cell_kite_areas area_cell
             pv_vertex c)
      done)

let pv_cell_scatter (m : Mesh.t) ~pv_vertex ~out =
  Array.fill out 0 m.n_cells 0.;
  let csr = m.csr in
  for v = 0 to m.n_vertices - 1 do
    for k = 3 * v to (3 * v) + 2 do
      let c = csr.vertex_cells.(k) in
      out.(c) <-
        out.(c)
        +. (csr.vertex_kite_areas.(k) *. pv_vertex.(v) /. m.area_cell.(c))
    done
  done

let[@inline always] tangential_velocity_at eoe_offsets eoe_edges eoe_weights u
    e =
  let i0 = Array.unsafe_get eoe_offsets e
  and i1 = Array.unsafe_get eoe_offsets (e + 1) in
  let acc = ref 0. in
  for i = i0 to i1 - 1 do
    acc :=
      !acc
      +. (Array.unsafe_get eoe_weights i
          *. Array.unsafe_get u (Array.unsafe_get eoe_edges i))
  done;
  !acc

let tangential_velocity ?pool ?on (m : Mesh.t) ~u ~out =
  let csr = m.Mesh.csr in
  check_lens "tangential_velocity" m.n_edges [ ("u", u); ("out", out) ];
  check_on "tangential_velocity" on m.n_edges;
  let eoe_offsets = csr.eoe_offsets
  and eoe_edges = csr.eoe_edges
  and eoe_weights = csr.eoe_weights in
  range pool ?on m.n_edges (fun ~lo ~hi ->
      for e = lo to hi - 1 do
        Array.unsafe_set out e
          (tangential_velocity_at eoe_offsets eoe_edges eoe_weights u e)
      done)

(* The two edge-gradient shapes: the difference of a cell field across
   the edge over [dc], and of a vertex field along it over [dv].  H1 is
   one of each; the velocity Laplacian is their difference. *)
let[@inline always] grad_n_at edge_cells dc_edge x e =
  (Array.unsafe_get x (Array.unsafe_get edge_cells ((2 * e) + 1))
  -. Array.unsafe_get x (Array.unsafe_get edge_cells (2 * e)))
  /. Array.unsafe_get dc_edge e

let[@inline always] grad_t_at edge_vertices dv_edge x e =
  (Array.unsafe_get x (Array.unsafe_get edge_vertices ((2 * e) + 1))
  -. Array.unsafe_get x (Array.unsafe_get edge_vertices (2 * e)))
  /. Array.unsafe_get dv_edge e

let grad_pv ?pool ?on (m : Mesh.t) ~pv_cell ~pv_vertex ~out_n ~out_t =
  let csr = m.Mesh.csr in
  check_len "grad_pv" "pv_cell" pv_cell m.n_cells;
  check_len "grad_pv" "pv_vertex" pv_vertex m.n_vertices;
  check_lens "grad_pv" m.n_edges [ ("out_n", out_n); ("out_t", out_t) ];
  check_on "grad_pv" on m.n_edges;
  let edge_cells = csr.edge_cells and edge_vertices = csr.edge_vertices in
  let dc_edge = m.dc_edge and dv_edge = m.dv_edge in
  range pool ?on m.n_edges (fun ~lo ~hi ->
      for e = lo to hi - 1 do
        Array.unsafe_set out_n e (grad_n_at edge_cells dc_edge pv_cell e);
        Array.unsafe_set out_t e (grad_t_at edge_vertices dv_edge pv_vertex e)
      done)

(* F's point-wise operands arrive as values so the PV edge chain can
   pass the gradients and tangential velocity it just computed. *)
let[@inline always] pv_edge_at edge_vertices pv_vertex ~apvm_factor ~dt ~u
    ~grad_n ~v ~grad_t e =
  let base =
    0.5
    *. (Array.unsafe_get pv_vertex (Array.unsafe_get edge_vertices (2 * e))
       +. Array.unsafe_get pv_vertex
            (Array.unsafe_get edge_vertices ((2 * e) + 1)))
  in
  base -. (apvm_factor *. dt *. ((u *. grad_n) +. (v *. grad_t)))

let pv_edge ?pool ?on (m : Mesh.t) ~apvm_factor ~dt ~pv_vertex ~grad_pv_n
    ~grad_pv_t ~u ~v_tangential ~out =
  let csr = m.Mesh.csr in
  check_len "pv_edge" "pv_vertex" pv_vertex m.n_vertices;
  check_lens "pv_edge" m.n_edges
    [ ("grad_pv_n", grad_pv_n); ("grad_pv_t", grad_pv_t); ("u", u);
      ("v_tangential", v_tangential); ("out", out) ];
  check_on "pv_edge" on m.n_edges;
  let edge_vertices = csr.edge_vertices in
  range pool ?on m.n_edges (fun ~lo ~hi ->
      for e = lo to hi - 1 do
        Array.unsafe_set out e
          (pv_edge_at edge_vertices pv_vertex ~apvm_factor ~dt
             ~u:(Array.unsafe_get u e)
             ~grad_n:(Array.unsafe_get grad_pv_n e)
             ~v:(Array.unsafe_get v_tangential e)
             ~grad_t:(Array.unsafe_get grad_pv_t e)
             e)
      done)

(* --- compute_tend ------------------------------------------------------ *)

let[@inline always] tend_h_at cell_offsets cell_edges cell_edge_signs dv_edge
    area_cell h_edge u c =
  let j0 = Array.unsafe_get cell_offsets c
  and j1 = Array.unsafe_get cell_offsets (c + 1) in
  let acc = ref 0. in
  for j = j0 to j1 - 1 do
    let e = Array.unsafe_get cell_edges j in
    acc :=
      !acc
      +. (Array.unsafe_get cell_edge_signs j *. Array.unsafe_get h_edge e
          *. Array.unsafe_get u e *. Array.unsafe_get dv_edge e)
  done;
  -.(!acc) /. Array.unsafe_get area_cell c

let tend_h ?pool ?on (m : Mesh.t) ~h_edge ~u ~out =
  let csr = m.Mesh.csr in
  check_lens "tend_h" m.n_edges [ ("h_edge", h_edge); ("u", u) ];
  check_len "tend_h" "out" out m.n_cells;
  check_on "tend_h" on m.n_cells;
  let cell_offsets = csr.cell_offsets
  and cell_edges = csr.cell_edges
  and cell_edge_signs = csr.cell_edge_signs in
  let dv_edge = m.dv_edge and area_cell = m.area_cell in
  range pool ?on m.n_cells (fun ~lo ~hi ->
      for c = lo to hi - 1 do
        Array.unsafe_set out c
          (tend_h_at cell_offsets cell_edges cell_edge_signs dv_edge area_cell
             h_edge u c)
      done)

let tend_h_scatter (m : Mesh.t) ~h_edge ~u ~out =
  Array.fill out 0 m.n_cells 0.;
  let ec = m.csr.edge_cells in
  for e = 0 to m.n_edges - 1 do
    let c1 = ec.(2 * e) and c2 = ec.((2 * e) + 1) in
    let flux = h_edge.(e) *. u.(e) *. m.dv_edge.(e) in
    out.(c1) <- out.(c1) -. (flux /. m.area_cell.(c1));
    out.(c2) <- out.(c2) +. (flux /. m.area_cell.(c2))
  done

let[@inline always] tend_u_at pv_average eoe_offsets eoe_edges eoe_weights
    edge_cells dc_edge gravity h b ke h_edge u pv_edge e =
  (* Perp flux; the symmetric potential-vorticity average makes the
     Coriolis force exactly energy-neutral. *)
  let i0 = Array.unsafe_get eoe_offsets e
  and i1 = Array.unsafe_get eoe_offsets (e + 1) in
  let q_flux = ref 0. in
  (match (pv_average : Config.pv_average) with
  | Config.Symmetric ->
      let pe = Array.unsafe_get pv_edge e in
      for i = i0 to i1 - 1 do
        let e' = Array.unsafe_get eoe_edges i in
        let q = 0.5 *. (pe +. Array.unsafe_get pv_edge e') in
        q_flux :=
          !q_flux
          +. (Array.unsafe_get eoe_weights i *. Array.unsafe_get u e'
              *. Array.unsafe_get h_edge e' *. q)
      done
  | Config.Edge_only ->
      let q = Array.unsafe_get pv_edge e in
      for i = i0 to i1 - 1 do
        let e' = Array.unsafe_get eoe_edges i in
        q_flux :=
          !q_flux
          +. (Array.unsafe_get eoe_weights i *. Array.unsafe_get u e'
              *. Array.unsafe_get h_edge e' *. q)
      done);
  let c1 = Array.unsafe_get edge_cells (2 * e)
  and c2 = Array.unsafe_get edge_cells ((2 * e) + 1) in
  (* Energies spelled out: a local closure here would keep the body
     from being inlined. *)
  let e1 =
    (gravity *. (Array.unsafe_get h c1 +. Array.unsafe_get b c1))
    +. Array.unsafe_get ke c1
  and e2 =
    (gravity *. (Array.unsafe_get h c2 +. Array.unsafe_get b c2))
    +. Array.unsafe_get ke c2
  in
  !q_flux -. ((e2 -. e1) /. Array.unsafe_get dc_edge e)

let tend_u ?pool ?on ?(pv_average = Config.Symmetric) (m : Mesh.t) ~gravity ~h
    ~b ~ke ~h_edge ~u ~pv_edge ~out =
  let csr = m.Mesh.csr in
  check_lens "tend_u" m.n_cells [ ("h", h); ("b", b); ("ke", ke) ];
  check_lens "tend_u" m.n_edges
    [ ("h_edge", h_edge); ("u", u); ("pv_edge", pv_edge); ("out", out) ];
  check_on "tend_u" on m.n_edges;
  let eoe_offsets = csr.eoe_offsets
  and eoe_edges = csr.eoe_edges
  and eoe_weights = csr.eoe_weights
  and edge_cells = csr.edge_cells in
  let dc_edge = m.dc_edge in
  range pool ?on m.n_edges (fun ~lo ~hi ->
      for e = lo to hi - 1 do
        Array.unsafe_set out e
          (tend_u_at pv_average eoe_offsets eoe_edges eoe_weights edge_cells
             dc_edge gravity h b ke h_edge u pv_edge e)
      done)

(* The vector Laplacian of the velocity at edges,
   [grad(divergence) - curl(vorticity)]: C1, the biharmonic term and
   [velocity_laplacian] all evaluate it through this body. *)
let[@inline always] laplacian_at edge_cells edge_vertices dc_edge dv_edge
    divergence vorticity e =
  grad_n_at edge_cells dc_edge divergence e
  -. grad_t_at edge_vertices dv_edge vorticity e

let dissipation ?pool ?on (m : Mesh.t) ~visc2 ~divergence ~vorticity ~tend_u =
  if visc2 <> 0. then begin
    let csr = m.Mesh.csr in
    check_len "dissipation" "divergence" divergence m.n_cells;
    check_len "dissipation" "vorticity" vorticity m.n_vertices;
    check_len "dissipation" "tend_u" tend_u m.n_edges;
    check_on "dissipation" on m.n_edges;
    let edge_cells = csr.edge_cells and edge_vertices = csr.edge_vertices in
    let dc_edge = m.dc_edge and dv_edge = m.dv_edge in
    range pool ?on m.n_edges (fun ~lo ~hi ->
        for e = lo to hi - 1 do
          Array.unsafe_set tend_u e
            (Array.unsafe_get tend_u e
            +. visc2
               *. laplacian_at edge_cells edge_vertices dc_edge dv_edge
                    divergence vorticity e)
        done)
  end

let local_forcing ?pool ?on (m : Mesh.t) ~drag ~u ~tend_u =
  if drag <> 0. then begin
    check_on "local_forcing" on m.n_edges;
    iter pool ?on m.n_edges (fun e ->
        tend_u.(e) <- tend_u.(e) -. (drag *. u.(e)))
  end

(* --- remaining kernels -------------------------------------------------- *)

let enforce_boundary_edge ?pool ?on (m : Mesh.t) ~tend_u =
  if m.has_boundary then begin
    check_on "enforce_boundary_edge" on m.n_edges;
    iter pool ?on m.n_edges (fun e ->
        if m.boundary_edge.(e) then tend_u.(e) <- 0.)
  end

let next_substep_state ?pool ?on_cells ?on_edges (m : Mesh.t) ~coef
    ~(base : Fields.state) ~(tend : Fields.tendencies)
    ~(provis : Fields.state) =
  check_on "next_substep_state" on_cells m.n_cells;
  check_on "next_substep_state" on_edges m.n_edges;
  let bh = base.h and th = tend.tend_h and ph = provis.h in
  pointwise pool ?on:on_cells m.n_cells (fun ~lo ~hi ->
      for c = lo to hi - 1 do
        ph.(c) <- bh.(c) +. (coef *. th.(c))
      done);
  let bu = base.u and tu = tend.tend_u and pu = provis.u in
  pointwise pool ?on:on_edges m.n_edges (fun ~lo ~hi ->
      for e = lo to hi - 1 do
        pu.(e) <- bu.(e) +. (coef *. tu.(e))
      done)

(* [accum += coef * t] over one space; with [publish] the sum is stored
   into the state row as well (the final substep). *)
let accumulate_row pool on n ~coef ~tend ~accum ~publish =
  match publish with
  | None ->
      pointwise pool ?on n (fun ~lo ~hi ->
          for i = lo to hi - 1 do
            accum.(i) <- accum.(i) +. (coef *. tend.(i))
          done)
  | Some state ->
      pointwise pool ?on n (fun ~lo ~hi ->
          for i = lo to hi - 1 do
            let a = accum.(i) +. (coef *. tend.(i)) in
            accum.(i) <- a;
            state.(i) <- a
          done)

let accumulate ?pool ?on_cells ?on_edges ?publish (m : Mesh.t) ~coef
    ~(tend : Fields.tendencies) ~(accum : Fields.state) =
  check_on "accumulate" on_cells m.n_cells;
  check_on "accumulate" on_edges m.n_edges;
  let publish_h = Option.map (fun (p : Fields.state) -> p.h) publish
  and publish_u = Option.map (fun (p : Fields.state) -> p.u) publish in
  accumulate_row pool on_cells m.n_cells ~coef ~tend:tend.tend_h
    ~accum:accum.h ~publish:publish_h;
  accumulate_row pool on_edges m.n_edges ~coef ~tend:tend.tend_u
    ~accum:accum.u ~publish:publish_u

(* --- extensions beyond the paper's Table I ------------------------------ *)

let[@inline always] tracer_edge_at scheme edge_cells tracer u e =
  let c1 = Array.unsafe_get edge_cells (2 * e)
  and c2 = Array.unsafe_get edge_cells ((2 * e) + 1) in
  match (scheme : Config.tracer_adv) with
  | Config.Centered ->
      0.5 *. (Array.unsafe_get tracer c1 +. Array.unsafe_get tracer c2)
  | Config.Upwind ->
      if Array.unsafe_get u e >= 0. then Array.unsafe_get tracer c1
      else Array.unsafe_get tracer c2

let tracer_edge ?pool ?on (m : Mesh.t) ~scheme ~tracer ~u ~out =
  let csr = m.Mesh.csr in
  check_len "tracer_edge" "tracer" tracer m.n_cells;
  check_lens "tracer_edge" m.n_edges [ ("u", u); ("out", out) ];
  check_on "tracer_edge" on m.n_edges;
  let edge_cells = csr.edge_cells in
  range pool ?on m.n_edges (fun ~lo ~hi ->
      for e = lo to hi - 1 do
        Array.unsafe_set out e (tracer_edge_at scheme edge_cells tracer u e)
      done)

let[@inline always] tend_tracer_at cell_offsets cell_edges cell_edge_signs
    dv_edge area_cell h_edge tracer_edge u c =
  let j0 = Array.unsafe_get cell_offsets c
  and j1 = Array.unsafe_get cell_offsets (c + 1) in
  let acc = ref 0. in
  for j = j0 to j1 - 1 do
    let e = Array.unsafe_get cell_edges j in
    acc :=
      !acc
      +. (Array.unsafe_get cell_edge_signs j *. Array.unsafe_get h_edge e
          *. Array.unsafe_get tracer_edge e *. Array.unsafe_get u e
          *. Array.unsafe_get dv_edge e)
  done;
  -.(!acc) /. Array.unsafe_get area_cell c

let tend_tracer ?pool ?on (m : Mesh.t) ~h_edge ~u ~tracer_edge ~out =
  let csr = m.Mesh.csr in
  check_lens "tend_tracer" m.n_edges
    [ ("h_edge", h_edge); ("u", u); ("tracer_edge", tracer_edge) ];
  check_len "tend_tracer" "out" out m.n_cells;
  check_on "tend_tracer" on m.n_cells;
  let cell_offsets = csr.cell_offsets
  and cell_edges = csr.cell_edges
  and cell_edge_signs = csr.cell_edge_signs in
  let dv_edge = m.dv_edge and area_cell = m.area_cell in
  range pool ?on m.n_cells (fun ~lo ~hi ->
      for c = lo to hi - 1 do
        Array.unsafe_set out c
          (tend_tracer_at cell_offsets cell_edges cell_edge_signs dv_edge
             area_cell h_edge tracer_edge u c)
      done)

let tend_tracer_scatter (m : Mesh.t) ~h_edge ~u ~tracer_edge ~out =
  Array.fill out 0 m.n_cells 0.;
  let ec = m.csr.edge_cells in
  for e = 0 to m.n_edges - 1 do
    let c1 = ec.(2 * e) and c2 = ec.((2 * e) + 1) in
    let flux = h_edge.(e) *. tracer_edge.(e) *. u.(e) *. m.dv_edge.(e) in
    out.(c1) <- out.(c1) -. (flux /. m.area_cell.(c1));
    out.(c2) <- out.(c2) +. (flux /. m.area_cell.(c2))
  done

let velocity_laplacian ?pool ?on (m : Mesh.t) ~divergence ~vorticity ~out =
  let csr = m.Mesh.csr in
  check_len "velocity_laplacian" "divergence" divergence m.n_cells;
  check_len "velocity_laplacian" "vorticity" vorticity m.n_vertices;
  check_len "velocity_laplacian" "out" out m.n_edges;
  check_on "velocity_laplacian" on m.n_edges;
  let edge_cells = csr.edge_cells and edge_vertices = csr.edge_vertices in
  let dc_edge = m.dc_edge and dv_edge = m.dv_edge in
  range pool ?on m.n_edges (fun ~lo ~hi ->
      for e = lo to hi - 1 do
        Array.unsafe_set out e
          (laplacian_at edge_cells edge_vertices dc_edge dv_edge divergence
             vorticity e)
      done)

let del4_dissipation ?pool ?on (m : Mesh.t) ~visc4 ~div_lap ~vort_lap ~tend_u =
  if visc4 <> 0. then begin
    let csr = m.Mesh.csr in
    check_len "del4_dissipation" "div_lap" div_lap m.n_cells;
    check_len "del4_dissipation" "vort_lap" vort_lap m.n_vertices;
    check_len "del4_dissipation" "tend_u" tend_u m.n_edges;
    check_on "del4_dissipation" on m.n_edges;
    let edge_cells = csr.edge_cells and edge_vertices = csr.edge_vertices in
    let dc_edge = m.dc_edge and dv_edge = m.dv_edge in
    range pool ?on m.n_edges (fun ~lo ~hi ->
        for e = lo to hi - 1 do
          Array.unsafe_set tend_u e
            (Array.unsafe_get tend_u e
            -. visc4
               *. laplacian_at edge_cells edge_vertices dc_edge dv_edge div_lap
                    vort_lap e)
        done)
  end

(* --- fused chains ------------------------------------------------------- *)

(* Each chain runs a legal kernel chain, as packed by the runtime's
   spec planner, over a span set of its index space: a whole rank, a
   runtime tile (one span) or the full range.  The loop over spans sits
   inside the chain, under the kernels' own runner, so one call covers
   the set.  Per element it calls the member bodies above in chain
   order, carrying a value in a register where a member point-reads
   what the previous member just wrote.  Every member output array is
   still written, so the chain's union footprint stays observable, and
   the result is bitwise that of the member kernels run back to back
   over the set: the bodies are the very ones the kernels run.  The
   chains index unchecked, so the set and every array a selected member
   touches are checked at entry, before any write. *)

(* [x = Some (coef, accum, publish)]: the accumulative update (X4/X5)
   riding a chain. *)
let check_accum kernel x n =
  Option.iter
    (fun (_, accum, publish) ->
      check_len kernel "accum" accum n;
      check_opt kernel "publish" publish n)
    x

(* [accum += coef * t]; in the final substep the sum is published into
   the state as well. *)
let[@inline always] accumulate_at accum publish coef t i =
  let a = Array.unsafe_get accum i +. (coef *. t) in
  Array.unsafe_set accum i a;
  match publish with None -> () | Some state -> Array.unsafe_set state i a

let tend_h_chain ?pool (m : Mesh.t) ~h_edge ~u ~out ~x4 ~on =
  let csr = m.Mesh.csr in
  check_on "tend_h_chain" (Some on) m.n_cells;
  check_lens "tend_h_chain" m.n_edges [ ("h_edge", h_edge); ("u", u) ];
  check_len "tend_h_chain" "out" out m.n_cells;
  check_accum "tend_h_chain" x4 m.n_cells;
  let cell_offsets = csr.cell_offsets
  and cell_edges = csr.cell_edges
  and cell_edge_signs = csr.cell_edge_signs in
  let dv_edge = m.dv_edge and area_cell = m.area_cell in
  range pool ~on m.n_cells (fun ~lo ~hi ->
      for c = lo to hi - 1 do
        let t =
          tend_h_at cell_offsets cell_edges cell_edge_signs dv_edge area_cell
            h_edge u c
        in
        Array.unsafe_set out c t;
        match x4 with
        | None -> ()
        | Some (coef, accum, publish) -> accumulate_at accum publish coef t c
      done)

let tend_u_chain ?pool (m : Mesh.t) ~pv_average ~gravity ~h ~b ~ke ~h_edge ~u
    ~pv_edge ~out ~dissip ~drag ~boundary ~x5 ~on =
  let csr = m.Mesh.csr in
  check_on "tend_u_chain" (Some on) m.n_edges;
  check_lens "tend_u_chain" m.n_cells [ ("h", h); ("b", b); ("ke", ke) ];
  check_lens "tend_u_chain" m.n_edges
    [ ("h_edge", h_edge); ("u", u); ("pv_edge", pv_edge); ("out", out) ];
  Option.iter
    (fun (_, divergence, vorticity) ->
      check_len "tend_u_chain" "divergence" divergence m.n_cells;
      check_len "tend_u_chain" "vorticity" vorticity m.n_vertices)
    dissip;
  check_accum "tend_u_chain" x5 m.n_edges;
  let eoe_offsets = csr.eoe_offsets
  and eoe_edges = csr.eoe_edges
  and eoe_weights = csr.eoe_weights
  and edge_cells = csr.edge_cells
  and edge_vertices = csr.edge_vertices in
  let dc_edge = m.dc_edge and dv_edge = m.dv_edge in
  let boundary_edge = m.boundary_edge in
  range pool ~on m.n_edges (fun ~lo ~hi ->
      for e = lo to hi - 1 do
        let t =
          ref
            (tend_u_at pv_average eoe_offsets eoe_edges eoe_weights edge_cells
               dc_edge gravity h b ke h_edge u pv_edge e)
        in
        (match dissip with
        | None -> ()
        | Some (visc2, divergence, vorticity) ->
            t :=
              !t
              +. visc2
                 *. laplacian_at edge_cells edge_vertices dc_edge dv_edge
                      divergence vorticity e);
        if drag <> 0. then t := !t -. (drag *. Array.unsafe_get u e);
        if boundary && Array.unsafe_get boundary_edge e then t := 0.;
        Array.unsafe_set out e !t;
        match x5 with
        | None -> ()
        | Some (coef, accum, publish) -> accumulate_at accum publish coef !t e
      done)

let diag_cells_chain ?pool (m : Mesh.t) ~h ~u ~d2 ~ke_out ~div_out ~x4 ~tend_h
    ~on =
  let csr = m.Mesh.csr in
  check_on "diag_cells_chain" (Some on) m.n_cells;
  check_len "diag_cells_chain" "h" h m.n_cells;
  check_len "diag_cells_chain" "u" u m.n_edges;
  check_opt "diag_cells_chain" "d2" d2 m.n_cells;
  check_opt "diag_cells_chain" "ke_out" ke_out m.n_cells;
  check_opt "diag_cells_chain" "div_out" div_out m.n_cells;
  check_accum "diag_cells_chain" x4 m.n_cells;
  if Option.is_some x4 then
    check_len "diag_cells_chain" "tend_h" tend_h m.n_cells;
  let cell_offsets = csr.cell_offsets
  and cell_edges = csr.cell_edges
  and cell_edge_signs = csr.cell_edge_signs
  and cell_neighbors = csr.cell_neighbors in
  let dc_edge = m.dc_edge and dv_edge = m.dv_edge and area_cell = m.area_cell in
  range pool ~on m.n_cells (fun ~lo ~hi ->
      for c = lo to hi - 1 do
        (match d2 with
        | None -> ()
        | Some d2 ->
            Array.unsafe_set d2 c
              (d2fdx2_at cell_offsets cell_edges cell_neighbors dv_edge dc_edge
                 area_cell h c));
        (match ke_out with
        | None -> ()
        | Some ke_out ->
            Array.unsafe_set ke_out c
              (kinetic_energy_at cell_offsets cell_edges dc_edge dv_edge
                 area_cell u c));
        (match div_out with
        | None -> ()
        | Some div_out ->
            Array.unsafe_set div_out c
              (divergence_at cell_offsets cell_edges cell_edge_signs dv_edge
                 area_cell u c));
        match x4 with
        | None -> ()
        | Some (coef, accum, publish) ->
            accumulate_at accum publish coef (Array.unsafe_get tend_h c) c
      done)

let diag_edges_chain ?pool (m : Mesh.t) ~order ~h ~d2fdx2_cell ~h_edge_out ~g
    ~x5 ~tend_u ~on =
  let csr = m.Mesh.csr in
  let fourth = (order : Config.h_adv_order) = Config.Fourth in
  check_on "diag_edges_chain" (Some on) m.n_edges;
  check_len "diag_edges_chain" "h" h m.n_cells;
  if fourth then
    check_len "diag_edges_chain" "d2fdx2_cell" d2fdx2_cell m.n_cells;
  check_len "diag_edges_chain" "h_edge_out" h_edge_out m.n_edges;
  Option.iter
    (fun (u, v_out) ->
      check_lens "diag_edges_chain" m.n_edges [ ("u", u); ("v_out", v_out) ])
    g;
  check_accum "diag_edges_chain" x5 m.n_edges;
  if Option.is_some x5 then
    check_len "diag_edges_chain" "tend_u" tend_u m.n_edges;
  let edge_cells = csr.edge_cells
  and eoe_offsets = csr.eoe_offsets
  and eoe_edges = csr.eoe_edges
  and eoe_weights = csr.eoe_weights in
  let dc_edge = m.dc_edge in
  range pool ~on m.n_edges (fun ~lo ~hi ->
      for e = lo to hi - 1 do
        Array.unsafe_set h_edge_out e
          (h_edge_at fourth edge_cells dc_edge h d2fdx2_cell e);
        (match g with
        | None -> ()
        | Some (u, v_out) ->
            Array.unsafe_set v_out e
              (tangential_velocity_at eoe_offsets eoe_edges eoe_weights u e));
        match x5 with
        | None -> ()
        | Some (coef, accum, publish) ->
            accumulate_at accum publish coef (Array.unsafe_get tend_u e) e
      done)

let vortex_chain ?pool (m : Mesh.t) ~u ~h ~vort_out ~hv_out ~pv_out ~on =
  let csr = m.Mesh.csr in
  check_on "vortex_chain" (Some on) m.n_vertices;
  check_len "vortex_chain" "u" u m.n_edges;
  check_len "vortex_chain" "h" h m.n_cells;
  check_len "vortex_chain" "vort_out" vort_out m.n_vertices;
  check_opt "vortex_chain" "hv_out" hv_out m.n_vertices;
  check_opt "vortex_chain" "pv_out" pv_out m.n_vertices;
  if Option.is_some pv_out && Option.is_none hv_out then
    invalid_arg "Operators.vortex_chain: pv_out requires hv_out";
  let vertex_edges = csr.vertex_edges
  and vertex_edge_signs = csr.vertex_edge_signs
  and vertex_cells = csr.vertex_cells
  and vertex_kite_areas = csr.vertex_kite_areas in
  let dc_edge = m.dc_edge
  and area_triangle = m.area_triangle
  and f_vertex = m.f_vertex in
  range pool ~on m.n_vertices (fun ~lo ~hi ->
      for v = lo to hi - 1 do
        let vort =
          vorticity_at vertex_edges vertex_edge_signs dc_edge area_triangle u v
        in
        Array.unsafe_set vort_out v vort;
        match hv_out with
        | None -> ()
        | Some hv_out -> (
            let hv =
              h_vertex_at vertex_cells vertex_kite_areas area_triangle h v
            in
            Array.unsafe_set hv_out v hv;
            match pv_out with
            | None -> ()
            | Some pv_out ->
                Array.unsafe_set pv_out v
                  ((Array.unsafe_get f_vertex v +. vort) /. hv))
      done)

let pv_edge_chain ?pool (m : Mesh.t) ~g ~pv_cell ~pv_vertex ~gn_out ~gt_out ~f
    ~on =
  let csr = m.Mesh.csr in
  check_on "pv_edge_chain" (Some on) m.n_edges;
  check_len "pv_edge_chain" "pv_cell" pv_cell m.n_cells;
  check_len "pv_edge_chain" "pv_vertex" pv_vertex m.n_vertices;
  check_lens "pv_edge_chain" m.n_edges
    [ ("gn_out", gn_out); ("gt_out", gt_out) ];
  Option.iter
    (fun (u, v_out) ->
      check_lens "pv_edge_chain" m.n_edges [ ("u", u); ("v_out", v_out) ])
    g;
  Option.iter
    (fun (_, _, u, v_tangential, out) ->
      check_lens "pv_edge_chain" m.n_edges
        [ ("u", u); ("v_tangential", v_tangential); ("out", out) ])
    f;
  let edge_cells = csr.edge_cells
  and edge_vertices = csr.edge_vertices
  and eoe_offsets = csr.eoe_offsets
  and eoe_edges = csr.eoe_edges
  and eoe_weights = csr.eoe_weights in
  let dc_edge = m.dc_edge and dv_edge = m.dv_edge in
  range pool ~on m.n_edges (fun ~lo ~hi ->
      for e = lo to hi - 1 do
        (match g with
        | None -> ()
        | Some (u, v_out) ->
            Array.unsafe_set v_out e
              (tangential_velocity_at eoe_offsets eoe_edges eoe_weights u e));
        let gn = grad_n_at edge_cells dc_edge pv_cell e
        and gt = grad_t_at edge_vertices dv_edge pv_vertex e in
        Array.unsafe_set gn_out e gn;
        Array.unsafe_set gt_out e gt;
        match f with
        | None -> ()
        | Some (apvm_factor, dt, u, v_tangential, out) ->
            Array.unsafe_set out e
              (pv_edge_at edge_vertices pv_vertex ~apvm_factor ~dt
                 ~u:(Array.unsafe_get u e) ~grad_n:gn
                 ~v:(Array.unsafe_get v_tangential e)
                 ~grad_t:gt e)
      done)

(* The A4 [+X6] reconstruction chain is {!Reconstruct.run} on the
   tile's span set: its coefficient table is abstract, so the
   scalarized loop lives next to it. *)

let next_substep_tracers ?pool ?on (m : Mesh.t) ~coef ~(base : Fields.state)
    ~(tend : Fields.tendencies) ~(provis : Fields.state) =
  check_on "next_substep_tracers" on m.n_cells;
  Array.iteri
    (fun k row ->
      let base_row = base.Fields.tracers.(k) in
      let tend_row = tend.Fields.tend_tracers.(k) in
      iter pool ?on m.n_cells (fun c ->
          row.(c) <-
            ((base.Fields.h.(c) *. base_row.(c)) +. (coef *. tend_row.(c)))
            /. provis.Fields.h.(c)))
    provis.Fields.tracers

(* The accumulator rows hold the conservative quantity h * tracer during
   the step; [finalize_tracers] converts back to concentrations. *)
let seed_tracer_accumulator ?pool ?on (m : Mesh.t) ~(state : Fields.state)
    ~(accum : Fields.state) =
  check_on "seed_tracer_accumulator" on m.n_cells;
  Array.iteri
    (fun k row ->
      let state_row = state.Fields.tracers.(k) in
      iter pool ?on m.n_cells (fun c ->
          row.(c) <- state.Fields.h.(c) *. state_row.(c)))
    accum.Fields.tracers

let accumulate_tracers ?pool ?on (m : Mesh.t) ~coef
    ~(tend : Fields.tendencies) ~(accum : Fields.state) =
  check_on "accumulate_tracers" on m.n_cells;
  Array.iteri
    (fun k row ->
      accumulate_row pool on m.n_cells ~coef ~tend:tend.Fields.tend_tracers.(k)
        ~accum:row ~publish:None)
    accum.Fields.tracers

let finalize_tracers ?pool ?on (m : Mesh.t) ~(accum : Fields.state)
    ~(state : Fields.state) =
  check_on "finalize_tracers" on m.n_cells;
  Array.iteri
    (fun k row ->
      let acc_row = accum.Fields.tracers.(k) in
      iter pool ?on m.n_cells (fun c ->
          row.(c) <- acc_row.(c) /. state.Fields.h.(c)))
    state.Fields.tracers

(* Convex/affine state blend for multi-stage integrators:
   out = a*base + b*other + c*tend.  Tracer rows blend in conservative
   (h * tracer) form, so [out.h] is written first. *)
let blend ?pool ?on_cells ?on_edges (m : Mesh.t) ~a ~(base : Fields.state) ~b
    ~(other : Fields.state) ~c ~(tend : Fields.tendencies)
    ~(out : Fields.state) =
  check_on "blend" on_cells m.n_cells;
  check_on "blend" on_edges m.n_edges;
  iter pool ?on:on_cells m.n_cells (fun i ->
      out.Fields.h.(i) <-
        (a *. base.Fields.h.(i)) +. (b *. other.Fields.h.(i))
        +. (c *. tend.Fields.tend_h.(i)));
  iter pool ?on:on_edges m.n_edges (fun i ->
      out.Fields.u.(i) <-
        (a *. base.Fields.u.(i)) +. (b *. other.Fields.u.(i))
        +. (c *. tend.Fields.tend_u.(i)));
  Array.iteri
    (fun k row ->
      let base_row = base.Fields.tracers.(k) in
      let other_row = other.Fields.tracers.(k) in
      let tend_row = tend.Fields.tend_tracers.(k) in
      iter pool ?on:on_cells m.n_cells (fun i ->
          row.(i) <-
            ((a *. base.Fields.h.(i) *. base_row.(i))
            +. (b *. other.Fields.h.(i) *. other_row.(i))
            +. (c *. tend_row.(i)))
            /. out.Fields.h.(i)))
    out.Fields.tracers
