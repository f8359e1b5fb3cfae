open Mpas_mesh
open Mpas_par

let pfor pool lo hi f =
  match pool with
  | None ->
      for i = lo to hi - 1 do
        f i
      done
  | Some p -> Pool.parallel_for p ~lo ~hi f

let edge_to_cell_scatter (m : Mesh.t) ~x ~y =
  let ec = m.csr.edge_cells in
  Array.fill y 0 m.n_cells 0.;
  for e = 0 to m.n_edges - 1 do
    let c1 = ec.(2 * e) and c2 = ec.((2 * e) + 1) in
    y.(c1) <- y.(c1) +. x.(e);
    y.(c2) <- y.(c2) -. x.(e)
  done

let edge_to_cell_gather ?pool (m : Mesh.t) ~x ~y =
  let csr = m.csr in
  pfor pool 0 m.n_cells (fun c ->
      let acc = ref 0. in
      for j = csr.cell_offsets.(c) to csr.cell_offsets.(c + 1) - 1 do
        let e = csr.cell_edges.(j) in
        if c = csr.edge_cells.(2 * e) then acc := !acc +. x.(e)
        else acc := !acc -. x.(e)
      done;
      y.(c) <- !acc)

type label_matrix = float array array

let label_matrix (m : Mesh.t) =
  let csr = m.csr in
  Array.init m.n_cells (fun c ->
      let o = csr.cell_offsets.(c) in
      Array.init m.n_edges_on_cell.(c) (fun j ->
          if c = csr.edge_cells.(2 * csr.cell_edges.(o + j)) then 1. else -1.))

let edge_to_cell_branch_free ?pool (m : Mesh.t) l ~x ~y =
  let csr = m.csr in
  pfor pool 0 m.n_cells (fun c ->
      let acc = ref 0. in
      let labels = l.(c) and o = csr.cell_offsets.(c) in
      for j = 0 to m.n_edges_on_cell.(c) - 1 do
        acc := !acc +. (labels.(j) *. x.(csr.cell_edges.(o + j)))
      done;
      y.(c) <- !acc)

(* Flat-layout variant of Algorithm 4: the packed [Mesh.csr] view
   already stores the +-1 label matrix ([cell_edge_signs], which equals
   [label_matrix] entry for entry) next to the packed edge ids, so the
   branch-free loop walks flat arrays with unit stride. *)
let edge_to_cell_csr ?pool (m : Mesh.t) ~x ~y =
  let csr = m.Mesh.csr in
  if Array.length x < m.n_edges then
    invalid_arg "Refactor.edge_to_cell_csr: x shorter than n_edges";
  if Array.length y < m.n_cells then
    invalid_arg "Refactor.edge_to_cell_csr: y shorter than n_cells";
  let offsets = csr.cell_offsets
  and edges = csr.cell_edges
  and signs = csr.cell_edge_signs in
  let body ~lo ~hi =
    for c = lo to hi - 1 do
      let j0 = Array.unsafe_get offsets c
      and j1 = Array.unsafe_get offsets (c + 1) in
      let acc = ref 0. in
      for j = j0 to j1 - 1 do
        acc :=
          !acc
          +. (Array.unsafe_get signs j
              *. Array.unsafe_get x (Array.unsafe_get edges j))
      done;
      Array.unsafe_set y c !acc
    done
  in
  match pool with
  | None -> if m.n_cells > 0 then body ~lo:0 ~hi:m.n_cells
  | Some p -> Pool.parallel_for_chunks p ~lo:0 ~hi:m.n_cells body

let labels l = l
