open Mpas_numerics
open Mpas_mesh
open Mpas_gen

let mesh = lazy (Build.icosahedral ~level:3 ~lloyd_iters:2 ())
let gravity = 9.80616
let dt = 600.
let apvm_factor = 0.5

(* Random but reproducible input fields shared by all comparisons. *)
let fields =
  lazy
    (let m = Lazy.force mesh in
     let r = Rng.create 17L in
     let arr n lo hi = Array.init n (fun _ -> Rng.uniform r lo hi) in
     let u = arr m.n_edges (-10.) 10. in
     let h = arr m.n_cells 900. 1100. in
     let b = arr m.n_cells 0. 100. in
     let open Mpas_swe in
     let diag = Fields.alloc_diagnostics m in
     Operators.d2fdx2 m ~h ~out:diag.d2fdx2_cell;
     Operators.h_edge m ~order:Config.Fourth ~h
       ~d2fdx2_cell:diag.d2fdx2_cell ~out:diag.h_edge;
     Operators.kinetic_energy m ~u ~out:diag.ke;
     Operators.divergence m ~u ~out:diag.divergence;
     Operators.vorticity m ~u ~out:diag.vorticity;
     Operators.h_vertex m ~h ~out:diag.h_vertex;
     Operators.pv_vertex m ~vorticity:diag.vorticity ~h_vertex:diag.h_vertex
       ~out:diag.pv_vertex;
     Operators.pv_cell m ~pv_vertex:diag.pv_vertex ~out:diag.pv_cell;
     Operators.tangential_velocity m ~u ~out:diag.v_tangential;
     Operators.grad_pv m ~pv_cell:diag.pv_cell ~pv_vertex:diag.pv_vertex
       ~out_n:diag.grad_pv_n ~out_t:diag.grad_pv_t;
     Operators.pv_edge m ~apvm_factor ~dt ~pv_vertex:diag.pv_vertex
       ~grad_pv_n:diag.grad_pv_n ~grad_pv_t:diag.grad_pv_t ~u
       ~v_tangential:diag.v_tangential ~out:diag.pv_edge;
     (u, h, b, diag))

let env () =
  let m = Lazy.force mesh in
  let u, h, b, diag = Lazy.force fields in
  {
    Stencil.mesh = m;
    fields =
      [
        ("u", u); ("h", h); ("b", b);
        ("h_edge", diag.Mpas_swe.Fields.h_edge);
        ("ke", diag.Mpas_swe.Fields.ke);
        ("d2fdx2_cell", diag.Mpas_swe.Fields.d2fdx2_cell);
        ("divergence", diag.Mpas_swe.Fields.divergence);
        ("vorticity", diag.Mpas_swe.Fields.vorticity);
        ("h_vertex", diag.Mpas_swe.Fields.h_vertex);
        ("pv_vertex", diag.Mpas_swe.Fields.pv_vertex);
        ("pv_cell", diag.Mpas_swe.Fields.pv_cell);
        ("v", diag.Mpas_swe.Fields.v_tangential);
        ("grad_pv_n", diag.Mpas_swe.Fields.grad_pv_n);
        ("grad_pv_t", diag.Mpas_swe.Fields.grad_pv_t);
        ("pv_edge", diag.Mpas_swe.Fields.pv_edge);
      ];
  }

let all_specs () = Library.specs ~gravity ~apvm_dt:(apvm_factor *. dt)

let run_spec name =
  let env = env () in
  let k = Library.spec ~gravity ~apvm_dt:(apvm_factor *. dt) name in
  let out = Array.make (Stencil.out_length env.Stencil.mesh k) 0. in
  Stencil.run env k ~out;
  out

(* The library specs keep the handwritten kernels' operation order, so
   the executor must agree with them exactly, not to a tolerance. *)
let bitwise_equal a b =
  Array.length a = Array.length b && Array.for_all2 Float.equal a b

let exact name got expected =
  let n_diff =
    Array.fold_left ( + ) 0
      (Array.map2 (fun x y -> if Float.equal x y then 0 else 1) got expected)
  in
  Alcotest.(check int) (name ^ ": elements differing from the kernel") 0 n_diff

(* --- static checking --------------------------------------------------- *)

let test_all_specs_well_typed () =
  List.iter
    (fun (name, k) ->
      Alcotest.(check (list string)) (name ^ " type-checks") []
        (Stencil.check k))
    (all_specs ())

let test_checker_rejects_ill_typed () =
  let bad body reads out_space =
    Stencil.check
      { Stencil.kernel_name = "bad"; out_space; reads; body }
    <> []
  in
  let open Stencil in
  Alcotest.(check bool) "dc at cells" true (bad (Geom Dc) [] Cells);
  Alcotest.(check bool) "coef outside sum" true (bad Coef [] Cells);
  Alcotest.(check bool) "cell1 of a cell" true
    (bad (Cell1 (Const 1.)) [] Cells);
  Alcotest.(check bool) "undeclared field" true (bad (Field "ghost") [] Cells);
  Alcotest.(check bool) "field at wrong space" true
    (bad (Field "u") [ ("u", Edges) ] Cells);
  Alcotest.(check bool) "relation at wrong space" true
    (bad (Sum (Edges_of_vertex, Const 1.)) [] Cells);
  Alcotest.(check bool) "other_cell outside edge sum" true
    (bad (Cell1 (Const 0.)) [] Vertices
    || bad (Sum (Edges_of_edge, Other_cell (Const 1.))) [] Edges)

(* --- equivalence with the handwritten kernels ---------------------------- *)

let test_divergence () =
  let m = Lazy.force mesh in
  let u, _, _, _ = Lazy.force fields in
  let expected = Array.make m.n_cells 0. in
  Mpas_swe.Operators.divergence m ~u ~out:expected;
  exact "A3" (run_spec "A3 divergence") expected

let test_tend_h () =
  let m = Lazy.force mesh in
  let u, _, _, diag = Lazy.force fields in
  let expected = Array.make m.n_cells 0. in
  Mpas_swe.Operators.tend_h m ~h_edge:diag.Mpas_swe.Fields.h_edge ~u
    ~out:expected;
  exact "A1" (run_spec "A1 tend_h") expected

let test_kinetic_energy () =
  let m = Lazy.force mesh in
  let u, _, _, _ = Lazy.force fields in
  let expected = Array.make m.n_cells 0. in
  Mpas_swe.Operators.kinetic_energy m ~u ~out:expected;
  exact "A2" (run_spec "A2 kinetic energy") expected

let test_d2fdx2 () =
  let m = Lazy.force mesh in
  let _, h, _, _ = Lazy.force fields in
  let expected = Array.make m.n_cells 0. in
  Mpas_swe.Operators.d2fdx2 m ~h ~out:expected;
  exact "H2" (run_spec "H2 d2fdx2") expected

let test_h_edge () =
  let _, _, _, diag = Lazy.force fields in
  exact "B2" (run_spec "B2 h_edge (4th order)") diag.Mpas_swe.Fields.h_edge

let test_vorticity () =
  let _, _, _, diag = Lazy.force fields in
  exact "D1" (run_spec "D1 vorticity") diag.Mpas_swe.Fields.vorticity

let test_h_vertex_pv_chain () =
  let _, _, _, diag = Lazy.force fields in
  exact "C2" (run_spec "C2 h_vertex") diag.Mpas_swe.Fields.h_vertex;
  exact "D2" (run_spec "D2 pv_vertex") diag.Mpas_swe.Fields.pv_vertex;
  exact "E" (run_spec "E pv_cell") diag.Mpas_swe.Fields.pv_cell

let test_tangential_and_apvm () =
  let _, _, _, diag = Lazy.force fields in
  exact "G" (run_spec "G tangential velocity")
    diag.Mpas_swe.Fields.v_tangential;
  exact "H1n" (run_spec "H1 grad_pv_n") diag.Mpas_swe.Fields.grad_pv_n;
  exact "H1t" (run_spec "H1 grad_pv_t") diag.Mpas_swe.Fields.grad_pv_t;
  exact "F" (run_spec "F pv_edge") diag.Mpas_swe.Fields.pv_edge

let test_dissipation_term () =
  let m = Lazy.force mesh in
  let _, _, _, diag = Lazy.force fields in
  let expected = Array.make m.n_edges 0. in
  Mpas_swe.Operators.velocity_laplacian m
    ~divergence:diag.Mpas_swe.Fields.divergence
    ~vorticity:diag.Mpas_swe.Fields.vorticity ~out:expected;
  exact "C1" (run_spec "C1 velocity_laplacian") expected

let test_tend_u () =
  let m = Lazy.force mesh in
  let u, h, b, diag = Lazy.force fields in
  let expected = Array.make m.n_edges 0. in
  Mpas_swe.Operators.tend_u m ~gravity ~h ~b ~ke:diag.Mpas_swe.Fields.ke
    ~h_edge:diag.Mpas_swe.Fields.h_edge ~u
    ~pv_edge:diag.Mpas_swe.Fields.pv_edge ~out:expected;
  exact "B1" (run_spec "B1 tend_u") expected

(* --- execution modes ------------------------------------------------------ *)

let test_pool_and_subset_execution () =
  let env = env () in
  let k = Library.spec ~gravity ~apvm_dt:0. "A3 divergence" in
  let n = Stencil.out_length env.Stencil.mesh k in
  let serial = Array.make n 0. in
  Stencil.run env k ~out:serial;
  Mpas_par.Pool.with_pool ~n_domains:3 (fun pool ->
      let par = Array.make n 0. in
      Stencil.run ~pool env k ~out:par;
      Alcotest.(check bool) "pool bitwise equal" true (bitwise_equal serial par));
  let subset = Mpas_par.Span.of_sorted (Array.init (n / 2) (fun i -> 2 * i)) in
  let partial = Array.make n nan in
  Stencil.run ~on:subset env k ~out:partial;
  Array.iteri
    (fun i x ->
      if i mod 2 = 0 && i < n then
        Alcotest.(check bool) "subset computed" true (Float.equal x serial.(i))
      else Alcotest.(check bool) "others untouched" true (Float.is_nan x))
    partial

let test_unknown_field_raises () =
  let m = Lazy.force mesh in
  let k = Library.spec ~gravity ~apvm_dt:0. "A3 divergence" in
  let env = { Stencil.mesh = m; fields = [] } in
  Alcotest.(check bool) "raises" true
    (match Stencil.eval_at env k 0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- emitter ---------------------------------------------------------------- *)

let contains hay needle =
  let n = String.length hay and k = String.length needle in
  let rec loop i = i + k <= n && (String.sub hay i k = needle || loop (i + 1)) in
  loop 0

let test_emitter_output () =
  List.iter
    (fun (name, k) ->
      let src = Emit.to_ocaml k in
      Alcotest.(check bool) (name ^ " has loop header") true
        (contains src "for "
        && contains src "out.("
        && contains src "done");
      (* Every read field appears in the source. *)
      List.iter
        (fun (f, _) ->
          Alcotest.(check bool)
            (name ^ " uses " ^ f)
            true
            (contains src (f ^ ".(")))
        k.Stencil.reads)
    (all_specs ())

let test_emitter_loop_bound_matches_space () =
  let src k = Emit.to_ocaml (Library.spec ~gravity ~apvm_dt:0. k) in
  Alcotest.(check bool) "cells loop" true
    (contains (src "A3 divergence") "m.n_cells - 1");
  Alcotest.(check bool) "edges loop" true
    (contains (src "B2 h_edge (4th order)") "m.n_edges - 1");
  Alcotest.(check bool) "vertices loop" true
    (contains (src "D1 vorticity") "m.n_vertices - 1")

(* --- properties ------------------------------------------------------------- *)

let prop_ir_matches_handwritten_divergence =
  QCheck.Test.make ~name:"IR divergence matches for random fields" ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let m = Lazy.force mesh in
      let r = Rng.create (Int64.of_int seed) in
      let u = Array.init m.n_edges (fun _ -> Rng.uniform r (-1.) 1.) in
      let env = { Stencil.mesh = m; fields = [ ("u", u) ] } in
      let k = Library.spec ~gravity ~apvm_dt:0. "A3 divergence" in
      let out = Array.make m.n_cells 0. in
      Stencil.run env k ~out;
      let expected = Array.make m.n_cells 0. in
      Mpas_swe.Operators.divergence m ~u ~out:expected;
      bitwise_equal out expected)

let prop_constant_kernel =
  QCheck.Test.make ~name:"constant kernels fill with the constant" ~count:20
    QCheck.(float_bound_inclusive 100.)
    (fun x ->
      let m = Lazy.force mesh in
      let k =
        { Stencil.kernel_name = "const"; out_space = Stencil.Edges;
          reads = []; body = Stencil.Const x }
      in
      let out = Array.make m.n_edges nan in
      Stencil.run { Stencil.mesh = m; fields = [] } k ~out;
      Array.for_all (fun y -> Float.equal y x) out)

let () =
  Alcotest.run "gen"
    [
      ( "static checking",
        [
          Alcotest.test_case "library well-typed" `Quick
            test_all_specs_well_typed;
          Alcotest.test_case "rejections" `Quick test_checker_rejects_ill_typed;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "A3 divergence" `Quick test_divergence;
          Alcotest.test_case "A1 tend_h" `Quick test_tend_h;
          Alcotest.test_case "A2 ke" `Quick test_kinetic_energy;
          Alcotest.test_case "H2 d2fdx2" `Quick test_d2fdx2;
          Alcotest.test_case "B2 h_edge" `Quick test_h_edge;
          Alcotest.test_case "D1 vorticity" `Quick test_vorticity;
          Alcotest.test_case "PV chain" `Quick test_h_vertex_pv_chain;
          Alcotest.test_case "tangential + APVM" `Quick
            test_tangential_and_apvm;
          Alcotest.test_case "C1 dissipation" `Quick test_dissipation_term;
          Alcotest.test_case "B1 tend_u" `Quick test_tend_u;
        ] );
      ( "execution",
        [
          Alcotest.test_case "pool + subset" `Quick
            test_pool_and_subset_execution;
          Alcotest.test_case "unknown field" `Quick test_unknown_field_raises;
        ] );
      ( "emitter",
        [
          Alcotest.test_case "source shape" `Quick test_emitter_output;
          Alcotest.test_case "loop bounds" `Quick
            test_emitter_loop_bound_matches_space;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_ir_matches_handwritten_divergence; prop_constant_kernel ] );
    ]
