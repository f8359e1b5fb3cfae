(* The regularity-aware loop refactoring of the paper (Algorithms 2, 3
   and 4) on a real mesh: the edge-order scatter races under
   multithreading, the cell-order gather does not, and the label-matrix
   form removes the branch.  This example times all three forms on this
   machine and verifies their equivalence.

   Run with: dune exec examples/refactoring_demo.exe *)

open Mpas_numerics
open Mpas_mesh
open Mpas_patterns

let time_it f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

let () =
  let mesh = Build.icosahedral ~level:6 () in
  Printf.printf "mesh: %d cells, %d edges (the paper's 120-km mesh)\n\n"
    mesh.n_cells mesh.n_edges;
  let rng = Rng.create 7L in
  let x = Array.init mesh.n_edges (fun _ -> Rng.uniform rng (-1.) 1.) in
  let y_scatter = Array.make mesh.n_cells 0. in
  let y_gather = Array.make mesh.n_cells 0. in
  let y_branch_free = Array.make mesh.n_cells 0. in
  let labels = Refactor.label_matrix mesh in

  let reps = 20 in
  let bench name f =
    let t = time_it (fun () -> for _ = 1 to reps do f () done) in
    Printf.printf "  %-34s %8.2f ms/sweep\n" name (1000. *. t /. float_of_int reps)
  in
  print_endline "edge-to-cell reduction, one sweep over the mesh:";
  bench "Algorithm 2 (edge-order scatter)" (fun () ->
      Refactor.edge_to_cell_scatter mesh ~x ~y:y_scatter);
  bench "Algorithm 3 (cell-order gather)" (fun () ->
      Refactor.edge_to_cell_gather mesh ~x ~y:y_gather);
  bench "Algorithm 4 (branch-free, label L)" (fun () ->
      Refactor.edge_to_cell_branch_free mesh labels ~x ~y:y_branch_free);
  Mpas_par.Pool.with_pool ~n_domains:4 (fun pool ->
      bench "Algorithm 4 on a 4-domain pool" (fun () ->
          Refactor.edge_to_cell_branch_free ~pool mesh labels ~x
            ~y:y_branch_free));

  Printf.printf "\nequivalence: scatter vs gather %.2e, gather vs branch-free %.2e\n"
    (Stats.max_abs_diff y_scatter y_gather)
    (Stats.max_abs_diff y_gather y_branch_free);

  (* The label matrix is exactly the mesh's packed cell_edge_signs row
     by row — the paper's L(i,j) in Algorithm 4. *)
  let l = Refactor.labels labels in
  let csr = mesh.csr in
  let same = ref true in
  for c = 0 to mesh.n_cells - 1 do
    for j = 0 to mesh.n_edges_on_cell.(c) - 1 do
      if l.(c).(j) <> csr.cell_edge_signs.(csr.cell_offsets.(c) + j) then
        same := false
    done
  done;
  Printf.printf "label matrix equals cell_edge_signs: %b\n" !same
