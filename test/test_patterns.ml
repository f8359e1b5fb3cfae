open Mpas_numerics
open Mpas_patterns

let mesh = lazy (Mpas_mesh.Build.icosahedral ~level:3 ())

(* --- taxonomy -------------------------------------------------------------- *)

let test_eight_letters () =
  Alcotest.(check int) "eight letters" 8 (List.length Pattern.all_letters)

let test_shapes_cover_combinations () =
  (* The eight letters cover all 3x3 point combinations except
     vorticity <- vorticity (paper SSIII-A). *)
  let points = [ Pattern.Mass; Pattern.Velocity; Pattern.Vorticity ] in
  let combos =
    List.concat_map (fun o -> List.map (fun i -> (o, i)) points) points
  in
  let covered =
    List.filter
      (fun (o, i) -> Pattern.letter_of_shape ~output:o ~input:i <> None)
      combos
  in
  Alcotest.(check int) "eight combinations covered" 8 (List.length covered);
  Alcotest.(check bool)
    "vorticity<-vorticity absent" true
    (Pattern.letter_of_shape ~output:Pattern.Vorticity
       ~input:Pattern.Vorticity
    = None)

let test_shapes_unique () =
  let shapes = List.map Pattern.shape Pattern.all_letters in
  Alcotest.(check int)
    "no two letters share a shape"
    (List.length shapes)
    (List.length (List.sort_uniq compare shapes))

(* --- registry --------------------------------------------------------------- *)

let test_registry_checks () =
  Alcotest.(check (list string)) "registry well formed" [] (Registry.check ())

let test_registry_size () =
  Alcotest.(check int) "21 instances" 21 (List.length Registry.instances)

let test_letter_census () =
  (* A:4 B:2 C:2 D:2 E:1 F:1 G:1 H:2 — the Figure 4 inventory. *)
  Alcotest.(check (list (pair string int)))
    "census"
    [ ("A", 4); ("B", 2); ("C", 2); ("D", 2); ("E", 1); ("F", 1); ("G", 1);
      ("H", 2) ]
    (List.map
       (fun (l, n) -> (Pattern.letter_name l, n))
       (Registry.letter_census ()))

let test_locals_count () =
  let locals =
    List.filter (fun i -> i.Pattern.kind = Pattern.Local) Registry.instances
  in
  Alcotest.(check int) "six local computations X1-X6" 6 (List.length locals)

let test_every_kernel_nonempty () =
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Pattern.kernel_name k ^ " has instances")
        true
        (Registry.of_kernel k <> []))
    Pattern.all_kernels

let test_irregular_set () =
  (* Exactly the loops the paper refactors: cell/vertex reductions fed
     from edges or vertices. *)
  let irregular =
    List.filter_map
      (fun i -> if i.Pattern.irregular then Some i.Pattern.id else None)
      Registry.instances
  in
  Alcotest.(check (list string))
    "irregular instances"
    [ "A1"; "H2"; "A2"; "A3"; "D1"; "E" ]
    irregular

let test_instance_lookup () =
  let b1 = Registry.instance "B1" in
  Alcotest.(check string) "id" "B1" b1.Pattern.id;
  Alcotest.(check bool)
    "unknown raises" true
    (match Registry.instance "Z9" with
    | _ -> false
    | exception Not_found -> true)

(* --- refactoring ------------------------------------------------------------ *)

let random_edge_field seed =
  let m = Lazy.force mesh in
  let r = Rng.create seed in
  Array.init m.n_edges (fun _ -> Rng.uniform r (-5.) 5.)

let test_refactoring_forms_agree () =
  let m = Lazy.force mesh in
  let x = random_edge_field 3L in
  let y2 = Array.make m.n_cells 0. in
  let y3 = Array.make m.n_cells 0. in
  let y4 = Array.make m.n_cells 0. in
  Refactor.edge_to_cell_scatter m ~x ~y:y2;
  Refactor.edge_to_cell_gather m ~x ~y:y3;
  Refactor.edge_to_cell_branch_free m (Refactor.label_matrix m) ~x ~y:y4;
  Alcotest.(check bool)
    "alg2 = alg3" true
    (Stats.max_abs_diff y2 y3 < 1e-12);
  (* Gather and branch-free sum in the same order: bitwise equal. *)
  Alcotest.(check bool)
    "alg3 = alg4 bitwise" true
    (Array.for_all Fun.id (Array.init m.n_cells (fun c -> Float.equal y3.(c) y4.(c))))

let test_label_matrix_is_edge_sign () =
  let m = Lazy.force mesh in
  let l = Refactor.labels (Refactor.label_matrix m) in
  let csr = m.csr in
  let same = ref true in
  for c = 0 to m.n_cells - 1 do
    for j = 0 to m.n_edges_on_cell.(c) - 1 do
      if l.(c).(j) <> csr.cell_edge_signs.(csr.cell_offsets.(c) + j) then
        same := false
    done
  done;
  Alcotest.(check bool) "L = cell_edge_signs" true !same

let test_refactored_parallel_bitwise () =
  let m = Lazy.force mesh in
  let x = random_edge_field 4L in
  let serial = Array.make m.n_cells 0. in
  let labels = Refactor.label_matrix m in
  Refactor.edge_to_cell_branch_free m labels ~x ~y:serial;
  Mpas_par.Pool.with_pool ~n_domains:4 (fun pool ->
      let par = Array.make m.n_cells 0. in
      Refactor.edge_to_cell_branch_free ~pool m labels ~x ~y:par;
      Alcotest.(check bool)
        "parallel bitwise equal" true
        (Array.for_all Fun.id
           (Array.init m.n_cells (fun c -> Float.equal serial.(c) par.(c)))))

let test_csr_form_bitwise () =
  (* The CSR fast path of Algorithm 4 walks the packed sign array in the
     same order as the ragged label matrix: bitwise-equal output. *)
  let m = Lazy.force mesh in
  let x = random_edge_field 5L in
  let ragged = Array.make m.n_cells 0. in
  let csr = Array.make m.n_cells 0. in
  Refactor.edge_to_cell_branch_free m (Refactor.label_matrix m) ~x ~y:ragged;
  Refactor.edge_to_cell_csr m ~x ~y:csr;
  Alcotest.(check bool)
    "csr = alg4 bitwise" true
    (Array.for_all Fun.id
       (Array.init m.n_cells (fun c -> Float.equal ragged.(c) csr.(c))));
  Mpas_par.Pool.with_pool ~n_domains:4 (fun pool ->
      let par = Array.make m.n_cells 0. in
      Refactor.edge_to_cell_csr ~pool m ~x ~y:par;
      Alcotest.(check bool)
        "csr parallel bitwise" true
        (Array.for_all Fun.id
           (Array.init m.n_cells (fun c -> Float.equal ragged.(c) par.(c)))))

(* --- costs ------------------------------------------------------------------- *)

let test_stats_of_level_match_mesh () =
  let m = Lazy.force mesh in
  let a = Cost.stats_of_level 3 in
  let b = Cost.stats_of_mesh m in
  Alcotest.(check int) "cells" a.Cost.n_cells b.Cost.n_cells;
  Alcotest.(check int) "edges" a.Cost.n_edges b.Cost.n_edges;
  Alcotest.(check int) "vertices" a.Cost.n_vertices b.Cost.n_vertices;
  Alcotest.(check (float 1e-9))
    "mean edges per cell" a.Cost.mean_edges_per_cell b.Cost.mean_edges_per_cell

let test_costs_positive_and_scale () =
  let s6 = Cost.stats_of_level 6 and s7 = Cost.stats_of_level 7 in
  List.iter
    (fun (i : Pattern.instance) ->
      let w6 = Cost.instance_work s6 i.Pattern.id in
      let w7 = Cost.instance_work s7 i.Pattern.id in
      Alcotest.(check bool)
        (i.Pattern.id ^ " positive") true
        (w6.Cost.flops > 0. && w6.Cost.bytes > 0. && w6.Cost.items > 0.);
      (* One refinement level quadruples the mesh. *)
      Alcotest.(check bool)
        (i.Pattern.id ^ " scales ~4x") true
        (let r = w7.Cost.flops /. w6.Cost.flops in
         r > 3.9 && r < 4.1))
    Registry.instances

let test_rk4_step_work_consistent () =
  let s = Cost.stats_of_level 6 in
  let per_kernel =
    List.fold_left
      (fun acc k ->
        let w = Cost.kernel_work s k in
        acc +. (w.Cost.flops *. float_of_int (Cost.kernel_calls_per_step k)))
      0. Pattern.all_kernels
  in
  let total = (Cost.rk4_step_work s).Cost.flops in
  Alcotest.(check (float 1.)) "sum over kernels" per_kernel total

let test_b1_dominates () =
  (* The perp-flux momentum stencil is the most expensive instance, as
     in the profiled MPAS code. *)
  let s = Cost.stats_of_level 6 in
  let cost id = (Cost.instance_work s id).Cost.bytes in
  List.iter
    (fun (i : Pattern.instance) ->
      if i.Pattern.id <> "B1" then
        Alcotest.(check bool)
          ("B1 >= " ^ i.Pattern.id)
          true
          (cost "B1" >= cost i.Pattern.id))
    Registry.instances

let test_field_bytes () =
  let s = Cost.stats_of_level 3 in
  Alcotest.(check (float 0.1)) "mass field"
    (float_of_int s.Cost.n_cells *. 8.)
    (Cost.field_bytes s Pattern.Mass);
  Alcotest.(check (float 0.1)) "velocity field"
    (float_of_int s.Cost.n_edges *. 8.)
    (Cost.field_bytes s Pattern.Velocity)

(* --- properties ---------------------------------------------------------------- *)

let prop_refactoring_equivalence_random_meshes =
  QCheck.Test.make ~name:"refactoring equivalence on hex meshes" ~count:10
    QCheck.(pair (int_range 3 8) (int_range 0 1000))
    (fun (n, seed) ->
      let m = Mpas_mesh.Planar_hex.create ~nx:n ~ny:n ~dc:100. () in
      let r = Rng.create (Int64.of_int seed) in
      let x = Array.init m.n_edges (fun _ -> Rng.uniform r (-1.) 1.) in
      let y2 = Array.make m.n_cells 0. and y4 = Array.make m.n_cells 0. in
      Refactor.edge_to_cell_scatter m ~x ~y:y2;
      Refactor.edge_to_cell_branch_free m (Refactor.label_matrix m) ~x ~y:y4;
      Stats.max_abs_diff y2 y4 < 1e-12)

let prop_work_monotone_in_level =
  QCheck.Test.make ~name:"work grows with level" ~count:6
    QCheck.(int_range 1 6)
    (fun level ->
      let a = Cost.rk4_step_work (Cost.stats_of_level level) in
      let b = Cost.rk4_step_work (Cost.stats_of_level (level + 1)) in
      b.Cost.flops > a.Cost.flops && b.Cost.bytes > a.Cost.bytes)

let () =
  Alcotest.run "patterns"
    [
      ( "taxonomy",
        [
          Alcotest.test_case "eight letters" `Quick test_eight_letters;
          Alcotest.test_case "shape coverage" `Quick
            test_shapes_cover_combinations;
          Alcotest.test_case "shapes unique" `Quick test_shapes_unique;
        ] );
      ( "registry",
        [
          Alcotest.test_case "well formed" `Quick test_registry_checks;
          Alcotest.test_case "size" `Quick test_registry_size;
          Alcotest.test_case "letter census" `Quick test_letter_census;
          Alcotest.test_case "locals" `Quick test_locals_count;
          Alcotest.test_case "kernels nonempty" `Quick
            test_every_kernel_nonempty;
          Alcotest.test_case "irregular set" `Quick test_irregular_set;
          Alcotest.test_case "lookup" `Quick test_instance_lookup;
        ] );
      ( "refactoring",
        [
          Alcotest.test_case "three forms agree" `Quick
            test_refactoring_forms_agree;
          Alcotest.test_case "label matrix" `Quick test_label_matrix_is_edge_sign;
          Alcotest.test_case "parallel bitwise" `Quick
            test_refactored_parallel_bitwise;
          Alcotest.test_case "csr form bitwise" `Quick test_csr_form_bitwise;
        ] );
      ( "costs",
        [
          Alcotest.test_case "stats match mesh" `Quick
            test_stats_of_level_match_mesh;
          Alcotest.test_case "positive, scale 4x" `Quick
            test_costs_positive_and_scale;
          Alcotest.test_case "step work" `Quick test_rk4_step_work_consistent;
          Alcotest.test_case "B1 dominates" `Quick test_b1_dominates;
          Alcotest.test_case "field bytes" `Quick test_field_bytes;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_refactoring_equivalence_random_meshes;
            prop_work_monotone_in_level;
          ] );
    ]
