open Mpas_numerics
open Mpas_mesh
open Mpas_par
open Mpas_swe

let ico = lazy (Build.icosahedral ~level:3 ~lloyd_iters:3 ())
let hex = lazy (Planar_hex.create ~f:1e-4 ~nx:8 ~ny:6 ~dc:1000. ())

let random_u mesh seed =
  let r = Rng.create seed in
  Array.init mesh.Mesh.n_edges (fun _ -> Rng.uniform r (-10.) 10.)

let random_h mesh seed =
  let r = Rng.create seed in
  Array.init mesh.Mesh.n_cells (fun _ -> Rng.uniform r 900. 1100.)

(* --- scatter/gather equivalence (the refactoring correctness claim) ------ *)

let check_equiv name scatter gather =
  let m = Lazy.force ico in
  let out1 = scatter m and out2 = gather m in
  Alcotest.(check bool)
    (name ^ " scatter = gather")
    true
    (Stats.max_abs_diff out1 out2 < 1e-10 *. Stats.l2_norm out1 /. sqrt (float_of_int (Array.length out1)) +. 1e-13)

let test_equiv_divergence () =
  let u = random_u (Lazy.force ico) 1L in
  check_equiv "divergence"
    (fun m ->
      let out = Array.make m.Mesh.n_cells 0. in
      Operators.divergence_scatter m ~u ~out;
      out)
    (fun m ->
      let out = Array.make m.Mesh.n_cells 0. in
      Operators.divergence m ~u ~out;
      out)

let test_equiv_kinetic_energy () =
  let u = random_u (Lazy.force ico) 2L in
  check_equiv "ke"
    (fun m ->
      let out = Array.make m.Mesh.n_cells 0. in
      Operators.kinetic_energy_scatter m ~u ~out;
      out)
    (fun m ->
      let out = Array.make m.Mesh.n_cells 0. in
      Operators.kinetic_energy m ~u ~out;
      out)

let test_equiv_vorticity () =
  let u = random_u (Lazy.force ico) 3L in
  check_equiv "vorticity"
    (fun m ->
      let out = Array.make m.Mesh.n_vertices 0. in
      Operators.vorticity_scatter m ~u ~out;
      out)
    (fun m ->
      let out = Array.make m.Mesh.n_vertices 0. in
      Operators.vorticity m ~u ~out;
      out)

let test_equiv_d2fdx2 () =
  let h = random_h (Lazy.force ico) 4L in
  check_equiv "d2fdx2"
    (fun m ->
      let out = Array.make m.Mesh.n_cells 0. in
      Operators.d2fdx2_scatter m ~h ~out;
      out)
    (fun m ->
      let out = Array.make m.Mesh.n_cells 0. in
      Operators.d2fdx2 m ~h ~out;
      out)

let test_equiv_pv_cell () =
  let m = Lazy.force ico in
  let r = Rng.create 5L in
  let pv = Array.init m.n_vertices (fun _ -> Rng.uniform r (-1.) 1.) in
  check_equiv "pv_cell"
    (fun m ->
      let out = Array.make m.Mesh.n_cells 0. in
      Operators.pv_cell_scatter m ~pv_vertex:pv ~out;
      out)
    (fun m ->
      let out = Array.make m.Mesh.n_cells 0. in
      Operators.pv_cell m ~pv_vertex:pv ~out;
      out)

let test_equiv_tend_h () =
  let m = Lazy.force ico in
  let u = random_u m 6L and h_edge = Array.make m.n_edges 1000. in
  check_equiv "tend_h"
    (fun m ->
      let out = Array.make m.Mesh.n_cells 0. in
      Operators.tend_h_scatter m ~h_edge ~u ~out;
      out)
    (fun m ->
      let out = Array.make m.Mesh.n_cells 0. in
      Operators.tend_h m ~h_edge ~u ~out;
      out)

let test_parallel_matches_serial_gather () =
  let m = Lazy.force ico in
  let u = random_u m 7L in
  let serial = Array.make m.n_cells 0. in
  Operators.divergence m ~u ~out:serial;
  Mpas_par.Pool.with_pool ~n_domains:4 (fun pool ->
      let par = Array.make m.n_cells 0. in
      Operators.divergence ~pool m ~u ~out:par;
      (* Gather loops write disjoint outputs: results are bitwise equal. *)
      Alcotest.(check bool)
        "bitwise equal" true
        (Array.for_all Fun.id
           (Array.init m.n_cells (fun c -> Float.equal serial.(c) par.(c)))))

(* --- exact answers on the regular hex mesh ------------------------------- *)

let test_hex_divergence_uniform_flow () =
  let m = Lazy.force hex in
  let flow = Vec3.make 2. 1. 0. in
  let u = Array.init m.n_edges (fun e -> Vec3.dot flow m.edge_normal.(e)) in
  let out = Array.make m.n_cells 0. in
  Operators.divergence m ~u ~out;
  Array.iter
    (fun d -> Alcotest.(check (float 1e-12)) "div uniform = 0" 0. d)
    out

let test_hex_ke_uniform_flow () =
  (* For |flow|^2 = const the TRiSK cell KE on the perfect hex grid is
     exactly |flow|^2 / 2: sum(dc dv / 4 (u.n_j)^2) / A = |u|^2/2. *)
  let m = Lazy.force hex in
  let flow = Vec3.make 3. (-1.) 0. in
  let u = Array.init m.n_edges (fun e -> Vec3.dot flow m.edge_normal.(e)) in
  let out = Array.make m.n_cells 0. in
  Operators.kinetic_energy m ~u ~out;
  Array.iter
    (fun ke ->
      Alcotest.(check (float 1e-9)) "ke = |u|^2/2" (Vec3.norm2 flow /. 2.) ke)
    out

let test_hex_h_edge_constant_field () =
  let m = Lazy.force hex in
  let h = Array.make m.n_cells 123.456 in
  let d2 = Array.make m.n_cells 0. in
  Operators.d2fdx2 m ~h ~out:d2;
  Array.iter (fun x -> Alcotest.(check (float 1e-9)) "laplacian 0" 0. x) d2;
  let out = Array.make m.n_edges 0. in
  Operators.h_edge m ~order:Config.Fourth ~h ~d2fdx2_cell:d2 ~out;
  Array.iter
    (fun x -> Alcotest.(check (float 1e-9)) "h_edge const" 123.456 x)
    out

let test_hex_grad_pv_constant () =
  let m = Lazy.force hex in
  let pv_cell = Array.make m.n_cells 7. and pv_vertex = Array.make m.n_vertices 7. in
  let out_n = Array.make m.n_edges nan and out_t = Array.make m.n_edges nan in
  Operators.grad_pv m ~pv_cell ~pv_vertex ~out_n ~out_t;
  Array.iter (fun g -> Alcotest.(check (float 1e-12)) "grad_n 0" 0. g) out_n;
  Array.iter (fun g -> Alcotest.(check (float 1e-12)) "grad_t 0" 0. g) out_t

let test_geostrophic_balance_hex () =
  (* On an f-plane, a uniform flow with a balancing linear surface tilt
     is a steady state: tend_u = 0 and tend_h = 0 away from seams. *)
  let m = Lazy.force hex in
  let f = 1e-4 and g = Config.default.gravity in
  let flow = Vec3.make 5. 0. 0. in
  (* geostrophy: f k x u = -g grad h  =>  grad h = -(f/g) k x u. *)
  let slope = Vec3.scale (-.(f /. g)) (Vec3.cross Vec3.ez flow) in
  let h0 = 1000. in
  let h = Array.init m.n_cells (fun c -> h0 +. Vec3.dot slope m.x_cell.(c)) in
  let u = Array.init m.n_edges (fun e -> Vec3.dot flow m.edge_normal.(e)) in
  let state = { Fields.h; u; tracers = [||] } in
  let model =
    Model.of_state ~dt:1.
      ~b:(Array.make m.n_cells 0.)
      m state
  in
  (* Check interior edges only: positions near the seams are unwrapped,
     so the linear h field is inconsistent across them. *)
  Timestep.rk4_step model.engine model.config m ~b:model.b ~dt:1.
    ~state:model.state ~work:model.work ();
  let csr = m.csr in
  let near c c' = Vec3.dist m.x_cell.(c) m.x_cell.(c') < 1.5 *. 1000. in
  let interior_cell c =
    let ok = ref true in
    for j = csr.cell_offsets.(c) to csr.cell_offsets.(c + 1) - 1 do
      if not (near c csr.cell_neighbors.(j)) then ok := false
    done;
    !ok
  in
  let interior_edge e =
    let c1 = csr.edge_cells.(2 * e) and c2 = csr.edge_cells.((2 * e) + 1) in
    near c1 c2 && interior_cell c1 && interior_cell c2
  in
  let du = ref 0. in
  for e = 0 to m.n_edges - 1 do
    if interior_edge e then
      du := Float.max !du (Float.abs (model.state.u.(e) -. u.(e)))
  done;
  Alcotest.(check bool)
    (Format.sprintf "geostrophic steady (du=%g)" !du)
    true (!du < 1e-8)

(* --- local kernels -------------------------------------------------------- *)

let test_enforce_boundary_edge () =
  let m = Lazy.force ico in
  let masked = Mesh.with_boundary_edges m (fun e -> e mod 5 = 0) in
  let tend_u = Array.make m.n_edges 1. in
  Operators.enforce_boundary_edge masked ~tend_u;
  for e = 0 to m.n_edges - 1 do
    Alcotest.(check (float 0.))
      "boundary zeroed"
      (if e mod 5 = 0 then 0. else 1.)
      tend_u.(e)
  done

let test_next_substep_and_accumulate () =
  let m = Lazy.force hex in
  let base = Fields.alloc_state m in
  Array.fill base.h 0 m.n_cells 10.;
  Array.fill base.u 0 m.n_edges 2.;
  let tend =
    { Fields.tend_h = Array.make m.n_cells 0.5; tend_u = Array.make m.n_edges (-1.); tend_tracers = [||] }
  in
  let provis = Fields.alloc_state m in
  Operators.next_substep_state m ~coef:2. ~base ~tend ~provis;
  Alcotest.(check (float 1e-12)) "provis h" 11. provis.h.(0);
  Alcotest.(check (float 1e-12)) "provis u" 0. provis.u.(0);
  let accum = Fields.copy_state base in
  Operators.accumulate m ~coef:4. ~tend ~accum;
  Alcotest.(check (float 1e-12)) "accum h" 12. accum.h.(0);
  Alcotest.(check (float 1e-12)) "accum u" (-2.) accum.u.(0)

let test_dissipation_zero_visc_is_noop () =
  let m = Lazy.force ico in
  let tend_u = Array.make m.n_edges 3.14 in
  let divergence = random_h m 9L and vorticity = Array.make m.n_vertices 1. in
  Operators.dissipation m ~visc2:0. ~divergence ~vorticity ~tend_u;
  Array.iter (fun x -> Alcotest.(check (float 0.)) "untouched" 3.14 x) tend_u

let test_dissipation_smooths () =
  (* The Laplacian of a random field must reduce its KE: check the sign
     of <u, visc * lap u> summed with edge areas. *)
  let m = Lazy.force ico in
  let u = random_u m 10L in
  let divergence = Array.make m.n_cells 0. in
  let vorticity = Array.make m.n_vertices 0. in
  Operators.divergence m ~u ~out:divergence;
  Operators.vorticity m ~u ~out:vorticity;
  let tend_u = Array.make m.n_edges 0. in
  Operators.dissipation m ~visc2:1e5 ~divergence ~vorticity ~tend_u;
  let dot = ref 0. in
  for e = 0 to m.n_edges - 1 do
    dot := !dot +. (u.(e) *. tend_u.(e) *. m.dc_edge.(e) *. m.dv_edge.(e))
  done;
  Alcotest.(check bool) "dissipative" true (!dot < 0.)

(* --- reconstruction -------------------------------------------------------- *)

let test_reconstruct_uniform_flow_hex () =
  let m = Lazy.force hex in
  let flow = Vec3.make 4. (-2.) 0. in
  let u = Array.init m.n_edges (fun e -> Vec3.dot flow m.edge_normal.(e)) in
  let r = Reconstruct.init m in
  let out = Fields.alloc_reconstruction m in
  Reconstruct.run r m ~u ~out;
  for c = 0 to m.n_cells - 1 do
    Alcotest.(check (float 1e-9)) "ux" flow.Vec3.x out.ux.(c);
    Alcotest.(check (float 1e-9)) "uy" flow.Vec3.y out.uy.(c);
    Alcotest.(check (float 1e-9)) "zonal" flow.Vec3.x out.zonal.(c);
    Alcotest.(check (float 1e-9)) "meridional" flow.Vec3.y out.meridional.(c)
  done

let test_reconstruct_solid_body_sphere () =
  let m = Lazy.force ico in
  let om = 10. in
  let u =
    Array.init m.n_edges (fun e ->
        Vec3.dot
          (Vec3.scale om (Vec3.cross Vec3.ez m.x_edge.(e)))
          m.edge_normal.(e))
  in
  let r = Reconstruct.init m in
  let out = Fields.alloc_reconstruction m in
  Reconstruct.run r m ~u ~out;
  let errs =
    Array.init m.n_cells (fun c ->
        let exact = Vec3.scale om (Vec3.cross Vec3.ez m.x_cell.(c)) in
        let got = Vec3.make out.ux.(c) out.uy.(c) out.uz.(c) in
        Vec3.dist got exact)
  in
  Alcotest.(check bool)
    (Format.sprintf "mean err %g < 2%%" (Stats.mean errs))
    true
    (Stats.mean errs < 0.02 *. om)

(* One table per mesh: every [init] returns it, and copies made after
   first use share it. *)
let test_reconstruct_table_shared () =
  let m = Lazy.force ico in
  let r = Reconstruct.init m in
  Alcotest.(check bool) "second init" true (Reconstruct.init m == r);
  Alcotest.(check bool) "with_boundary_edges copy" true
    (Reconstruct.init (Mesh.with_boundary_edges m (fun e -> e = 0)) == r);
  Alcotest.(check bool) "with_coriolis copy" true
    (Reconstruct.init (Mesh.with_coriolis m (fun _ -> 1e-4)) == r)

(* A table handed to the wrong mesh is refused before any unchecked
   read. *)
let test_reconstruct_foreign_table () =
  let ico = Lazy.force ico and hex = Lazy.force hex in
  let u = Array.make hex.n_edges 1. in
  match
    Reconstruct.run (Reconstruct.init ico) hex ~u
      ~out:(Fields.alloc_reconstruction hex)
  with
  | () -> Alcotest.fail "foreign table accepted"
  | exception Invalid_argument _ -> ()

(* --- full model behaviour --------------------------------------------------- *)

let test_tc2_steady () =
  let m = Lazy.force ico in
  let model = Model.init Williamson.Tc2 m in
  let h0 = Array.copy model.state.h in
  Model.run model ~steps:10;
  let drift = Stats.max_abs_diff h0 model.state.h in
  (* Coarse-mesh discretization error bound; the state must not blow up
     or wander, as an O(1) change would be ~1000 m. *)
  Alcotest.(check bool)
    (Format.sprintf "TC2 height drift %g m < 10 m" drift)
    true (drift < 10.)

let test_mass_conservation () =
  let m = Lazy.force ico in
  let model = Model.init Williamson.Tc5 m in
  let before = (Model.invariants model).Conservation.mass in
  Model.run model ~steps:10;
  let after = (Model.invariants model).Conservation.mass in
  Alcotest.(check bool)
    "mass conserved to machine precision" true
    (Stats.rel_diff before after < 1e-15 *. 100.)

let test_energy_enstrophy_drift_small () =
  let m = Lazy.force ico in
  let model = Model.init Williamson.Tc5 m in
  let inv0 = Model.invariants model in
  Model.run model ~steps:10;
  let d = Conservation.drift ~reference:inv0 (Model.invariants model) in
  Alcotest.(check bool)
    (Format.sprintf "energy drift %g" d.Conservation.energy)
    true
    (d.Conservation.energy < 1e-4);
  Alcotest.(check bool)
    (Format.sprintf "enstrophy drift %g" d.Conservation.potential_enstrophy)
    true
    (d.Conservation.potential_enstrophy < 1e-3)

let test_engines_agree () =
  let m = Lazy.force ico in
  let m1 = Model.init Williamson.Tc5 m in
  let m2 = Model.init ~engine:Timestep.original Williamson.Tc5 m in
  Model.run m1 ~steps:3;
  Model.run m2 ~steps:3;
  Alcotest.(check bool)
    "refactored = original (within fp reassociation)" true
    (Stats.max_abs_diff m1.state.h m2.state.h < 1e-9
    && Stats.max_abs_diff m1.state.u m2.state.u < 1e-11)

let test_parallel_engine_agrees () =
  let m = Lazy.force ico in
  let m1 = Model.init Williamson.Tc5 m in
  let m2 = Model.init Williamson.Tc5 m in
  Model.run m1 ~steps:3;
  Model.with_parallel_engine m2 ~n_domains:3 (fun m2 -> Model.run m2 ~steps:3);
  (* Refactored loops are deterministic: parallel must equal serial
     bitwise. *)
  Alcotest.(check bool)
    "parallel = serial gather, bitwise" true
    (Array.for_all Fun.id
       (Array.init m.n_cells (fun c ->
            Float.equal m1.state.h.(c) m2.state.h.(c))))

let test_rk4_convergence () =
  (* Halving dt must shrink the one-hour integration error ~16x; we
     accept anything > 8x to stay robust to error-constant noise.
     APVM is disabled because its anticipation term is O(dt) by design
     and would cap the observable order at one. *)
  let m = Lazy.force ico in
  let config = { Config.default with apvm_factor = 0. } in
  let horizon = 3600. in
  let run dt =
    let model = Model.init ~config ~dt Williamson.Tc6 m in
    Model.run model ~steps:(int_of_float (horizon /. dt));
    model.state
  in
  let reference = run 112.5 in
  let coarse = run 900. and fine = run 450. in
  let e_coarse = Stats.l2_diff coarse.h reference.h in
  let e_fine = Stats.l2_diff fine.h reference.h in
  Alcotest.(check bool)
    (Format.sprintf "order >= 3 (ratio %g)" (e_coarse /. e_fine))
    true
    (e_coarse /. e_fine > 8.)

let test_tc5_mountain_present () =
  let m = Lazy.force ico in
  let _, b = Williamson.init Williamson.Tc5 m in
  let hi = Array.fold_left Float.max 0. b in
  Alcotest.(check bool) "mountain height" true (hi > 1500. && hi <= 2000.);
  let nonzero = Array.to_seq b |> Seq.filter (fun x -> x > 0.) |> Seq.length in
  Alcotest.(check bool)
    "mountain localized" true
    (nonzero > 0 && nonzero < m.n_cells / 4)

let test_total_height () =
  let m = Lazy.force ico in
  let model = Model.init Williamson.Tc5 m in
  let th = Model.total_height model in
  Array.iteri
    (fun c x ->
      Alcotest.(check (float 1e-9)) "h + b" (model.state.h.(c) +. model.b.(c)) x)
    th

let test_recommended_dt_scales () =
  let coarse = Williamson.recommended_dt Williamson.Tc5 (Lazy.force ico) in
  let fine =
    Williamson.recommended_dt Williamson.Tc5 (Build.icosahedral ~level:4 ())
  in
  Alcotest.(check bool) "finer mesh, smaller dt" true (fine < coarse)

let test_planar_mesh_rejected () =
  Alcotest.(check bool)
    "williamson on plane raises" true
    (match Williamson.init Williamson.Tc2 (Lazy.force hex) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_tc2_rotated_steady () =
  (* The 45-degree-rotated steady flow runs across the pentagons and
     both poles; regression guard for the south-pole cell whose edge
     ordering was once built with a left-handed fallback basis,
     silently corrupting its TRiSK weights. *)
  let m = Lazy.force ico in
  let model = Model.init Williamson.Tc2_rotated m in
  let h0 = Array.copy model.state.h in
  Model.run model ~steps:10;
  let drift = Stats.max_abs_diff h0 model.state.h in
  Alcotest.(check bool)
    (Format.sprintf "rotated TC2 height drift %g m < 15 m" drift)
    true (drift < 15.)

let test_coriolis_energy_neutral () =
  (* The TRiSK perp-flux with the symmetric PV average does no work:
     sum_e A_e u_e (q Fperp)_e = 0 (paper's scheme inherits this from
     Ringler et al. 2010).  Checked for a random state and a random
     edge PV field. *)
  let m = Lazy.force ico in
  let u = random_u m 30L and h = random_h m 31L in
  let r = Rng.create 32L in
  let pv_edge = Array.init m.n_edges (fun _ -> Rng.uniform r (-1e-6) 1e-6) in
  let h_edge = Array.make m.n_edges 0. in
  let d2 = Array.make m.n_cells 0. in
  Operators.d2fdx2 m ~h ~out:d2;
  Operators.h_edge m ~order:Config.Fourth ~h ~d2fdx2_cell:d2 ~out:h_edge;
  (* gravity = 0 and ke = 0 isolate the Coriolis term in tend_u. *)
  let tend = Array.make m.n_edges 0. in
  Operators.tend_u m ~gravity:0. ~h ~b:(Array.make m.n_cells 0.)
    ~ke:(Array.make m.n_cells 0.) ~h_edge ~u ~pv_edge ~out:tend;
  (* Energy norm: KE = sum A_e h_e u_e^2 / 2, so the Coriolis work is
     sum A_e (h_e u_e) tend_e = sum A_e F_e (q Fperp)_e, which the
     antisymmetric weights cancel pairwise. *)
  let work = ref 0. and scale = ref 0. in
  for e = 0 to m.n_edges - 1 do
    let a_e = 0.5 *. m.dc_edge.(e) *. m.dv_edge.(e) in
    work := !work +. (a_e *. h_edge.(e) *. u.(e) *. tend.(e));
    scale := !scale +. Float.abs (a_e *. h_edge.(e) *. u.(e) *. tend.(e))
  done;
  Alcotest.(check bool)
    (Format.sprintf "Coriolis work %.3e of scale %.3e" !work !scale)
    true
    (Float.abs !work < 1e-10 *. !scale)

(* --- extensions: tracers and del-4 -------------------------------------- *)

let run_with_tracers ?(config = Config.default) ~tracers ~steps () =
  let m = Lazy.force ico in
  let model = Model.init ~config ~tracers Williamson.Tc2 m in
  Model.run model ~steps;
  model

let test_constant_tracer_preserved () =
  (* Compatibility with continuity: a tracer that is 1 everywhere stays
     exactly 1 under any flow. *)
  let m = Lazy.force ico in
  List.iter
    (fun scheme ->
      let config = { Config.default with tracer_adv = scheme } in
      let model =
        run_with_tracers ~config
          ~tracers:[| Array.make m.n_cells 1. |]
          ~steps:5 ()
      in
      Array.iter
        (fun x ->
          Alcotest.(check bool) "still 1 to machine precision" true
            (Float.abs (x -. 1.) < 1e-12))
        model.state.tracers.(0))
    [ Config.Centered; Config.Upwind ]

let tracer_mass (m : Mesh.t) (state : Fields.state) k =
  let acc = ref 0. in
  for c = 0 to m.n_cells - 1 do
    acc := !acc +. (state.h.(c) *. state.tracers.(k).(c) *. m.area_cell.(c))
  done;
  !acc

let test_tracer_mass_conserved () =
  let m = Lazy.force ico in
  let bell = Williamson.cosine_bell m in
  let model = Model.init ~tracers:[| bell |] Williamson.Tc2 m in
  let before = tracer_mass m model.state 0 in
  Model.run model ~steps:8;
  let after = tracer_mass m model.state 0 in
  Alcotest.(check bool)
    (Format.sprintf "flux-form transport conserves h*tracer (%.2e)"
       (Stats.rel_diff before after))
    true
    (Stats.rel_diff before after < 1e-13)

let test_upwind_monotone () =
  (* First-order upwinding must not create new extrema. *)
  let m = Lazy.force ico in
  let config = { Config.default with tracer_adv = Config.Upwind } in
  let bell = Williamson.cosine_bell m in
  let hi0 = Array.fold_left Float.max 0. bell in
  let model = run_with_tracers ~config ~tracers:[| bell |] ~steps:10 () in
  let lo = Array.fold_left Float.min infinity model.state.tracers.(0) in
  let hi = Array.fold_left Float.max 0. model.state.tracers.(0) in
  Alcotest.(check bool)
    (Format.sprintf "range [%.2e, %.3f] within [0, %.3f]" lo hi hi0)
    true
    (lo > -1e-10 && hi < hi0 +. 1e-10)

let test_bell_advects_eastward () =
  (* Under TC2's eastward flow, the bell's longitude center of mass
     must move east by roughly u0 * t / a. *)
  let m = Lazy.force ico in
  let bell = Williamson.cosine_bell m in
  let model = Model.init ~tracers:[| bell |] Williamson.Tc2 m in
  let center state =
    let sx = ref 0. and sy = ref 0. and w = ref 0. in
    Array.iteri
      (fun c x ->
        sx := !sx +. (x *. cos m.lon_cell.(c));
        sy := !sy +. (x *. sin m.lon_cell.(c));
        w := !w +. x)
      state;
    atan2 (!sy /. !w) (!sx /. !w)
  in
  let lon0 = center model.state.tracers.(0) in
  Model.run model ~steps:20;
  let lon1 = center model.state.tracers.(0) in
  let moved =
    let d = lon1 -. lon0 in
    if d < -.Float.pi then d +. (2. *. Float.pi) else d
  in
  let a = Sphere.earth_radius in
  let u0 = 2. *. Float.pi *. a /. (12. *. 86400.) in
  let expect = u0 *. Model.time model /. a in
  Alcotest.(check bool)
    (Format.sprintf "moved %.4f rad east, expect ~%.4f" moved expect)
    true
    (moved > 0.5 *. expect && moved < 1.5 *. expect)

let test_tracer_engines_agree () =
  let m = Lazy.force ico in
  let bell = Williamson.cosine_bell m in
  let m1 = Model.init ~tracers:[| bell |] Williamson.Tc5 m in
  let m2 =
    Model.init ~engine:Timestep.original ~tracers:[| bell |] Williamson.Tc5 m
  in
  Model.run m1 ~steps:3;
  Model.run m2 ~steps:3;
  Alcotest.(check bool) "scatter = gather for tracer transport" true
    (Stats.max_abs_diff m1.state.tracers.(0) m2.state.tracers.(0) < 1e-12)

let test_del4_zero_is_noop () =
  let m = Lazy.force ico in
  let a = Model.init Williamson.Tc6 m in
  let b =
    Model.init ~config:{ Config.default with visc4 = 0. } Williamson.Tc6 m
  in
  Model.run a ~steps:2;
  Model.run b ~steps:2;
  Alcotest.(check bool) "identical" true (a.state.u = b.state.u)

let test_del4_damps_noise () =
  let m = Lazy.force ico in
  let r = Rng.create 21L in
  let state, b = Williamson.init Williamson.Tc5 m in
  for e = 0 to m.n_edges - 1 do
    state.u.(e) <- state.u.(e) +. Rng.uniform r (-5.) 5.
  done;
  let dx = Mesh.mean_spacing m in
  let config = { Config.default with visc4 = 1e-3 *. (dx ** 4.) /. 86400. } in
  let noisy = Model.of_state ~config ~dt:60. ~b m state in
  let control = Model.of_state ~dt:60. ~b m state in
  let ke model =
    let out = Array.make m.n_cells 0. in
    Operators.kinetic_energy m ~u:model.Model.state.Fields.u ~out;
    Array.fold_left ( +. ) 0. out
  in
  Model.run noisy ~steps:5;
  Model.run control ~steps:5;
  Alcotest.(check bool) "del4 dissipates the noise" true
    (ke noisy < ke control)

let test_profile_measures_all_kernels () =
  let m = Lazy.force ico in
  let model = Model.init Williamson.Tc5 m in
  let profile = Profile.measure model ~steps:2 in
  Alcotest.(check int) "one entry per kernel"
    (List.length Timestep.all_kernels)
    (List.length profile);
  Alcotest.(check bool) "total positive" true (Profile.total profile > 0.);
  (* The tendency and diagnostics kernels dominate, as the paper's
     profiling assumed when assigning them to the accelerator. *)
  (match Profile.ranking profile with
  | (heaviest, _) :: _ ->
      Alcotest.(check bool) "heavy kernel is tend or diagnostics" true
        (heaviest = Timestep.Compute_tend
        || heaviest = Timestep.Compute_solve_diagnostics)
  | [] -> Alcotest.fail "empty profile");
  Alcotest.(check bool) "report renders" true
    (String.length (Profile.to_string profile) > 50);
  (* The engine is restored afterwards. *)
  Alcotest.(check bool) "engine restored" true model.engine.Timestep.gather

let test_profile_restores_engine_on_raise () =
  (* Regression: a raising step must not leave the observed wrapper
     installed.  An engine whose own instrument hook raises drives the
     failure, which also proves Profile composes with existing hooks
     instead of replacing them. *)
  let m = Lazy.force ico in
  let boom =
    Timestep.with_instrument Timestep.refactored (fun _ _ -> failwith "boom")
  in
  let model = Model.init ~engine:boom Williamson.Tc5 m in
  Alcotest.check_raises "hook failure escapes measure" (Failure "boom")
    (fun () -> ignore (Profile.measure model ~steps:1));
  Alcotest.(check bool) "original engine back in place" true
    (model.Model.engine == boom)

(* --- Galewsky (2004) barotropic instability -------------------------------- *)

let test_galewsky_height_range () =
  (* Published values: depth spans ~9,000 to ~10,150 m with a 10 km
     global mean. *)
  let m = Lazy.force ico in
  let state, _ = Williamson.init Williamson.Galewsky_balanced m in
  let lo, hi = Stats.min_max state.Fields.h in
  Alcotest.(check bool)
    (Format.sprintf "range [%.0f, %.0f]" lo hi)
    true
    (lo > 8900. && lo < 9200. && hi > 10100. && hi < 10250.);
  let mean = ref 0. and area = ref 0. in
  Array.iteri
    (fun c h ->
      mean := !mean +. (h *. m.area_cell.(c));
      area := !area +. m.area_cell.(c))
    state.Fields.h;
  Alcotest.(check (float 1.)) "10 km mean depth" 10000. (!mean /. !area)

let test_galewsky_jet_confined () =
  (* The jet lives strictly between lat0 = pi/7 and pi/2 - pi/7. *)
  let m = Lazy.force ico in
  let state, _ = Williamson.init Williamson.Galewsky_balanced m in
  Array.iteri
    (fun e u ->
      if m.lat_edge.(e) < 0.3 || m.lat_edge.(e) > 1.35 then
        Alcotest.(check bool) "no flow outside the jet" true
          (Float.abs u < 1e-6))
    state.Fields.u

let test_galewsky_balanced_nearly_steady () =
  (* The jet is ~1500 km wide, so this needs the level-4 mesh; the
     level-3 fixture has barely 1.5 cells across it. *)
  let m = Build.icosahedral ~level:4 ~lloyd_iters:3 () in
  let model = Model.init Williamson.Galewsky_balanced m in
  let h0 = Array.copy model.state.h in
  Model.run model ~steps:10;
  let drift = Stats.max_abs_diff h0 model.state.h in
  Alcotest.(check bool)
    (Format.sprintf "drift %.1f m stays well under the 1100 m range" drift)
    true (drift < 60.)

let test_galewsky_perturbation () =
  let m = Lazy.force ico in
  let balanced, _ = Williamson.init Williamson.Galewsky_balanced m in
  let perturbed, _ = Williamson.init Williamson.Galewsky m in
  let dh = Stats.max_abs_diff balanced.Fields.h perturbed.Fields.h in
  Alcotest.(check bool)
    (Format.sprintf "perturbation amplitude %.1f m" dh)
    true
    (dh > 40. && dh <= 120.);
  (* Velocities identical: the perturbation is in the height only. *)
  Alcotest.(check bool) "u unchanged" true
    (balanced.Fields.u = perturbed.Fields.u);
  let model = Model.init Williamson.Galewsky m in
  let before = (Model.invariants model).Conservation.mass in
  Model.run model ~steps:5;
  Alcotest.(check bool) "mass conserved" true
    (Stats.rel_diff before (Model.invariants model).Conservation.mass < 1e-13)

(* --- alternative integrator and PV averaging ------------------------------ *)

let test_ssprk3_conserves_mass () =
  let m = Lazy.force ico in
  let config = { Config.default with integrator = Config.Ssprk3 } in
  let model = Model.init ~config Williamson.Tc5 m in
  let before = (Model.invariants model).Conservation.mass in
  Model.run model ~steps:10;
  Alcotest.(check bool) "mass exact" true
    (Stats.rel_diff before (Model.invariants model).Conservation.mass < 1e-13)

let test_ssprk3_matches_rk4_at_small_dt () =
  let m = Lazy.force ico in
  let dt = 100. in
  let rk4 = Model.init ~dt Williamson.Tc6 m in
  let ssp =
    Model.init ~config:{ Config.default with integrator = Config.Ssprk3 } ~dt
      Williamson.Tc6 m
  in
  Model.run rk4 ~steps:10;
  Model.run ssp ~steps:10;
  let scale = Stats.l2_norm rk4.state.h in
  Alcotest.(check bool) "close at small dt" true
    (Stats.l2_diff rk4.state.h ssp.state.h /. scale < 1e-7)

let test_ssprk3_third_order () =
  let m = Lazy.force ico in
  let config =
    { Config.default with integrator = Config.Ssprk3; apvm_factor = 0. }
  in
  let horizon = 3600. in
  let run dt =
    let model = Model.init ~config ~dt Williamson.Tc6 m in
    Model.run model ~steps:(int_of_float (horizon /. dt));
    model.state
  in
  let reference = run 112.5 in
  let coarse = run 900. and fine = run 450. in
  let ratio =
    Stats.l2_diff coarse.h reference.h /. Stats.l2_diff fine.h reference.h
  in
  (* Third order: halving dt shrinks the error ~8x; accept > 5x. *)
  Alcotest.(check bool)
    (Format.sprintf "order >= ~2.3 (ratio %.1f)" ratio)
    true (ratio > 5.)

let test_ssprk3_tracers_conserved () =
  let m = Lazy.force ico in
  let config = { Config.default with integrator = Config.Ssprk3 } in
  let bell = Williamson.cosine_bell m in
  let model = Model.init ~config ~tracers:[| bell |] Williamson.Tc2 m in
  let before = tracer_mass m model.state 0 in
  Model.run model ~steps:6;
  Alcotest.(check bool) "tracer mass exact under SSP-RK3" true
    (Stats.rel_diff before (tracer_mass m model.state 0) < 1e-13)

let test_pv_average_ablation () =
  (* Only the symmetric average keeps the Coriolis force exactly
     energy-neutral. *)
  let m = Lazy.force ico in
  let u = random_u m 40L and h = random_h m 41L in
  let r = Rng.create 42L in
  let pv_edge = Array.init m.n_edges (fun _ -> Rng.uniform r (-1e-6) 1e-6) in
  let h_edge = Array.make m.n_edges 0. in
  let d2 = Array.make m.n_cells 0. in
  Operators.d2fdx2 m ~h ~out:d2;
  Operators.h_edge m ~order:Config.Fourth ~h ~d2fdx2_cell:d2 ~out:h_edge;
  let work pv_average =
    let tend = Array.make m.n_edges 0. in
    Operators.tend_u ~pv_average m ~gravity:0. ~h ~b:(Array.make m.n_cells 0.)
      ~ke:(Array.make m.n_cells 0.) ~h_edge ~u ~pv_edge ~out:tend;
    let acc = ref 0. and scale = ref 0. in
    for e = 0 to m.n_edges - 1 do
      let a_e = 0.5 *. m.dc_edge.(e) *. m.dv_edge.(e) in
      acc := !acc +. (a_e *. h_edge.(e) *. u.(e) *. tend.(e));
      scale := !scale +. Float.abs (a_e *. h_edge.(e) *. u.(e) *. tend.(e))
    done;
    Float.abs !acc /. !scale
  in
  Alcotest.(check bool) "symmetric neutral" true
    (work Config.Symmetric < 1e-10);
  Alcotest.(check bool) "edge-only not neutral" true
    (work Config.Edge_only > 1e-6)

(* --- checkpoint / restart ------------------------------------------------ *)

let test_state_io_roundtrip () =
  let m = Lazy.force ico in
  let bell = Williamson.cosine_bell m in
  let model = Model.init ~tracers:[| bell |] Williamson.Tc5 m in
  Model.run model ~steps:3;
  let s = model.state in
  let s' = State_io.of_string (State_io.to_string s) in
  Alcotest.(check bool) "bitwise roundtrip" true
    (s.Fields.h = s'.Fields.h && s.Fields.u = s'.Fields.u
    && s.Fields.tracers = s'.Fields.tracers)

let test_restart_continues_exactly () =
  (* run 6 steps straight vs 3 steps, checkpoint, restart, 3 more. *)
  let m = Lazy.force ico in
  let straight = Model.init Williamson.Tc5 m in
  Model.run straight ~steps:6;
  let first = Model.init Williamson.Tc5 m in
  Model.run first ~steps:3;
  let checkpoint = State_io.to_string first.state in
  let resumed =
    Model.of_state ~dt:first.dt ~b:first.b m (State_io.of_string checkpoint)
  in
  Model.run resumed ~steps:3;
  Alcotest.(check bool) "restart is exact" true
    (straight.state.Fields.h = resumed.state.Fields.h
    && straight.state.Fields.u = resumed.state.Fields.u)

let test_state_io_rejects_garbage () =
  List.iter
    (fun bad ->
      Alcotest.(check bool) "rejected" true
        (match State_io.of_string bad with
        | _ -> false
        | exception Failure _ -> true))
    [ ""; "mpas-state 9"; "mpas-state 1
counts 2 2 0
h 1 x" ]

let test_state_io_file_roundtrip_both_families () =
  (* save -> load through an actual file must be bit-identical, on the
     sphere and on the doubly periodic plane, tracers included. *)
  let states_equal (a : Fields.state) (b : Fields.state) =
    a.Fields.h = b.Fields.h && a.Fields.u = b.Fields.u
    && a.Fields.tracers = b.Fields.tracers
  in
  List.iter
    (fun (family, m) ->
      let r = Rng.create 77L in
      let s =
        {
          Fields.h = Array.init m.Mesh.n_cells (fun _ -> Rng.uniform r 900. 1100.);
          u = Array.init m.Mesh.n_edges (fun _ -> Rng.uniform r (-10.) 10.);
          tracers =
            Array.init 2 (fun _ ->
                Array.init m.Mesh.n_cells (fun _ -> Rng.uniform r 0. 1.));
        }
      in
      let path = Filename.temp_file "state" ".txt" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          State_io.save s path;
          Alcotest.(check bool)
            (family ^ " file roundtrip bit-identical")
            true
            (states_equal s (State_io.load path))))
    [ ("sphere", Lazy.force ico); ("planar hex", Lazy.force hex) ]

(* --- CSR kernels vs the stencil reference ------------------------------- *)

(* Every CSR kernel must reproduce its [Mpas_gen.Library] spec, run by
   [Stencil.run], exactly: the spec keeps the kernel's operation order,
   so not even an ulp of difference is allowed.  Upwind
   [tracer_edge] and second-order [h_edge], which have no spec (the IR
   has no conditional; the Library covers the fourth order), are
   pinned to direct per-edge expectations instead.  C1 [dissipation]
   updates [tend_u] in place: its runner works on a copy and reports
   every entry it listed or changed. *)

type runner = ?pool:Mpas_par.Pool.t -> ?on:Span.t -> float array -> unit

let gravity = 9.80616

let csr_kernel_pairs (m : Mesh.t) seed : (string * int * runner * runner) list =
  let u = random_u m seed in
  let h = random_h m (Int64.add seed 100L) in
  let r = Rng.create (Int64.add seed 200L) in
  let pv_vertex = Array.init m.n_vertices (fun _ -> Rng.uniform r (-1e-6) 1e-6) in
  let pv_edge = Array.init m.n_edges (fun _ -> Rng.uniform r (-1e-6) 1e-6) in
  let tracer = Array.init m.n_cells (fun _ -> Rng.uniform r 0. 1.) in
  let btopo = Array.init m.n_cells (fun _ -> Rng.uniform r 0. 100.) in
  let h_edge = Array.make m.n_edges 0. in
  let d2 = Array.make m.n_cells 0. in
  Operators.d2fdx2 m ~h ~out:d2;
  Operators.h_edge m ~order:Config.Fourth ~h ~d2fdx2_cell:d2 ~out:h_edge;
  let ke = Array.make m.n_cells 0. in
  Operators.kinetic_energy m ~u ~out:ke;
  let div = Array.make m.n_cells 0. in
  Operators.divergence m ~u ~out:div;
  let vort = Array.make m.n_vertices 0. in
  Operators.vorticity m ~u ~out:vort;
  let tr_edge = Array.make m.n_edges 0. in
  Operators.tracer_edge m ~scheme:Config.Centered ~tracer ~u ~out:tr_edge;
  let pv_cell = Array.make m.n_cells 0. in
  Operators.pv_cell m ~pv_vertex ~out:pv_cell;
  let v_tan = Array.make m.n_edges 0. in
  Operators.tangential_velocity m ~u ~out:v_tan;
  let grad_n = Array.init m.n_edges (fun _ -> Rng.uniform r (-1e-9) 1e-9) in
  let grad_t = Array.init m.n_edges (fun _ -> Rng.uniform r (-1e-9) 1e-9) in
  let tend_u = Array.init m.n_edges (fun _ -> Rng.uniform r (-1e-3) 1e-3) in
  let apvm_factor = 0.5 and dt = 300. and visc2 = 0.75 in
  let env =
    {
      Mpas_gen.Stencil.mesh = m;
      fields =
        [
          ("u", u); ("h", h); ("b", btopo); ("ke", ke); ("h_edge", h_edge);
          ("pv_vertex", pv_vertex); ("pv_edge", pv_edge); ("tracer", tracer);
          ("tracer_edge", tr_edge); ("divergence", div); ("vorticity", vort);
          ("d2fdx2_cell", d2); ("pv_cell", pv_cell); ("v", v_tan);
          ("grad_pv_n", grad_n); ("grad_pv_t", grad_t);
        ];
    }
  in
  let spec name : runner =
    let k =
      Mpas_gen.Library.spec ~gravity ~apvm_dt:(apvm_factor *. dt) name
    in
    fun ?pool ?on out -> Mpas_gen.Stencil.run ?pool ?on env k ~out
  in
  let per_edge value : runner =
   fun ?pool:_ ?on out ->
    let at e =
      out.(e) <- value m.csr.edge_cells.(2 * e) m.csr.edge_cells.((2 * e) + 1) e
    in
    match on with
    | None -> for e = 0 to m.n_edges - 1 do at e done
    | Some s -> Span.iter at s
  in
  let upwind =
    per_edge (fun c1 c2 e -> if u.(e) >= 0. then tracer.(c1) else tracer.(c2))
  in
  let second_order = per_edge (fun c1 c2 _ -> 0.5 *. (h.(c1) +. h.(c2))) in
  (* [out] receives every listed entry of [t] and every entry [t] no
     longer holds bitwise, so a stray write shows up as a non-NaN. *)
  let report ?on t out =
    Array.iteri
      (fun e x -> if not (Float.equal x tend_u.(e)) then out.(e) <- x)
      t;
    match on with
    | None -> Array.blit t 0 out 0 m.n_edges
    | Some s -> Span.iter (fun e -> out.(e) <- t.(e)) s
  in
  let lap = spec "C1 velocity_laplacian" in
  [
    ( "A2 kinetic_energy", m.n_cells,
      (fun ?pool ?on out -> Operators.kinetic_energy ?pool ?on m ~u ~out),
      spec "A2 kinetic energy" );
    ( "A3 divergence", m.n_cells,
      (fun ?pool ?on out -> Operators.divergence ?pool ?on m ~u ~out),
      spec "A3 divergence" );
    ( "D1 vorticity", m.n_vertices,
      (fun ?pool ?on out -> Operators.vorticity ?pool ?on m ~u ~out),
      spec "D1 vorticity" );
    ( "C2 h_vertex", m.n_vertices,
      (fun ?pool ?on out -> Operators.h_vertex ?pool ?on m ~h ~out),
      spec "C2 h_vertex" );
    ( "E pv_cell", m.n_cells,
      (fun ?pool ?on out -> Operators.pv_cell ?pool ?on m ~pv_vertex ~out),
      spec "E pv_cell" );
    ( "G tangential_velocity", m.n_edges,
      (fun ?pool ?on out -> Operators.tangential_velocity ?pool ?on m ~u ~out),
      spec "G tangential velocity" );
    ( "A1 tend_h", m.n_cells,
      (fun ?pool ?on out -> Operators.tend_h ?pool ?on m ~h_edge ~u ~out),
      spec "A1 tend_h" );
    ( "B1 tend_u symmetric", m.n_edges,
      (fun ?pool ?on out ->
        Operators.tend_u ?pool ?on m ~gravity ~h ~b:btopo ~ke ~h_edge ~u
          ~pv_edge ~out),
      spec "B1 tend_u" );
    ( "B1 tend_u edge-only", m.n_edges,
      (fun ?pool ?on out ->
        Operators.tend_u ?pool ?on ~pv_average:Config.Edge_only m ~gravity ~h
          ~b:btopo ~ke ~h_edge ~u ~pv_edge ~out),
      spec "B1 tend_u (edge-only)" );
    ( "tracer_edge centered", m.n_edges,
      (fun ?pool ?on out ->
        Operators.tracer_edge ?pool ?on m ~scheme:Config.Centered ~tracer ~u
          ~out),
      spec "tracer_edge (centered)" );
    ( "tracer_edge upwind", m.n_edges,
      (fun ?pool ?on out ->
        Operators.tracer_edge ?pool ?on m ~scheme:Config.Upwind ~tracer ~u
          ~out),
      upwind );
    ( "tend_tracer", m.n_cells,
      (fun ?pool ?on out ->
        Operators.tend_tracer ?pool ?on m ~h_edge ~u ~tracer_edge:tr_edge ~out),
      spec "tend_tracer" );
    ( "velocity_laplacian", m.n_edges,
      (fun ?pool ?on out ->
        Operators.velocity_laplacian ?pool ?on m ~divergence:div
          ~vorticity:vort ~out),
      lap );
    ( "H2 d2fdx2", m.n_cells,
      (fun ?pool ?on out -> Operators.d2fdx2 ?pool ?on m ~h ~out),
      spec "H2 d2fdx2" );
    ( "B2 h_edge fourth", m.n_edges,
      (fun ?pool ?on out ->
        Operators.h_edge ?pool ?on m ~order:Config.Fourth ~h ~d2fdx2_cell:d2
          ~out),
      spec "B2 h_edge (4th order)" );
    ( "B2 h_edge second", m.n_edges,
      (fun ?pool ?on out ->
        Operators.h_edge ?pool ?on m ~order:Config.Second ~h ~d2fdx2_cell:d2
          ~out),
      second_order );
    ( "H1 grad_pv_n", m.n_edges,
      (fun ?pool ?on out ->
        Operators.grad_pv ?pool ?on m ~pv_cell ~pv_vertex ~out_n:out
          ~out_t:(Array.make m.n_edges nan)),
      spec "H1 grad_pv_n" );
    ( "H1 grad_pv_t", m.n_edges,
      (fun ?pool ?on out ->
        Operators.grad_pv ?pool ?on m ~pv_cell ~pv_vertex
          ~out_n:(Array.make m.n_edges nan) ~out_t:out),
      spec "H1 grad_pv_t" );
    ( "F pv_edge", m.n_edges,
      (fun ?pool ?on out ->
        Operators.pv_edge ?pool ?on m ~apvm_factor ~dt ~pv_vertex
          ~grad_pv_n:grad_n ~grad_pv_t:grad_t ~u ~v_tangential:v_tan ~out),
      spec "F pv_edge" );
    ( "C1 dissipation", m.n_edges,
      (fun ?pool ?on out ->
        let t = Array.copy tend_u in
        Operators.dissipation ?pool ?on m ~visc2 ~divergence:div
          ~vorticity:vort ~tend_u:t;
        report ?on t out),
      fun ?pool ?on out ->
        let l = Array.make m.n_edges nan in
        lap ?pool ?on l;
        (* once per listed occurrence, like the in-place kernel *)
        let t = Array.copy tend_u in
        let add e = t.(e) <- t.(e) +. (visc2 *. l.(e)) in
        (match on with
        | None -> for e = 0 to m.n_edges - 1 do add e done
        | Some s -> Span.iter add s);
        report ?on t out );
  ]

let bitwise_equal a b =
  Array.length a = Array.length b && Array.for_all2 Float.equal a b

(* Outputs start as NaN, so the comparison also proves both sides
   write exactly the listed indices (Float.equal nan nan holds);
   [only_listed] checks the kernel side directly. *)
let only_listed out on =
  let listed = Array.make (Array.length out) false in
  Span.iter (fun i -> listed.(i) <- true) on;
  Array.for_all2 (fun l x -> l || Float.is_nan x) listed out

let check_csr_pairs ?pool ~subset label m seed =
  List.iter
    (fun (name, n, (csr_run : runner), (reference : runner)) ->
      let on =
        if subset then Some (Span.of_pred n (fun i -> i mod 2 = 0 || i mod 7 < 3))
        else None
      in
      let a = Array.make n nan and b = Array.make n nan in
      csr_run ?pool ?on a;
      reference ?pool ?on b;
      Alcotest.(check bool) (label ^ " " ^ name ^ " bitwise") true
        (bitwise_equal a b))
    (csr_kernel_pairs m seed)

let test_csr_bitwise_serial () =
  check_csr_pairs ~subset:false "ico" (Lazy.force ico) 50L;
  check_csr_pairs ~subset:false "hex" (Lazy.force hex) 51L

let test_csr_bitwise_pool () =
  Mpas_par.Pool.with_pool ~n_domains:3 (fun pool ->
      check_csr_pairs ~pool ~subset:false "ico" (Lazy.force ico) 52L;
      check_csr_pairs ~pool ~subset:false "hex" (Lazy.force hex) 53L)

let test_csr_bitwise_subset () =
  check_csr_pairs ~subset:true "ico" (Lazy.force ico) 54L;
  check_csr_pairs ~subset:true "hex" (Lazy.force hex) 55L;
  Mpas_par.Pool.with_pool ~n_domains:2 (fun pool ->
      check_csr_pairs ~pool ~subset:true "ico" (Lazy.force ico) 56L)

(* The span walk writes unchecked, so a set reaching past the space must
   be refused before the first write: the valid span ahead of the bad
   one stays NaN. *)
let test_on_out_of_range_rejected () =
  let m = Lazy.force ico in
  List.iter
    (fun (name, n, (csr_run : runner), _) ->
      List.iter
        (fun bad ->
          let out = Array.make n nan in
          let raised =
            match csr_run ~on:(Span.of_spans [| (0, 2); (bad, bad + 1) |]) out with
            | () -> false
            | exception Invalid_argument _ -> true
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s rejects index %d" name bad)
            true raised;
          Alcotest.(check bool)
            (Printf.sprintf "%s wrote nothing" name)
            true
            (Array.for_all Float.is_nan out))
        [ n; n + 5 ])
    (csr_kernel_pairs m 57L)

(* The chains index unchecked, so a span set reaching past the space or
   a short ride-along array must be refused before the first write. *)
let test_chain_inputs_rejected () =
  let m = Lazy.force ico in
  let nc = m.n_cells and ne = m.n_edges and nv = m.n_vertices in
  let full n = Array.make n 1. in
  (* long enough for every space, so only the array named is short *)
  let out = Array.make (Int.max ne (Int.max nc nv)) nan in
  let rejects name f =
    let raised =
      match f () with () -> false | exception Invalid_argument _ -> true
    in
    Alcotest.(check bool) (name ^ " raises") true raised;
    Alcotest.(check bool) (name ^ " wrote nothing") true
      (Array.for_all Float.is_nan out)
  in
  let tend_h ?(x4 = None) on () =
    Operators.tend_h_chain m ~h_edge:(full ne) ~u:(full ne) ~out ~x4 ~on
  in
  rejects "hi = n + 1" (tend_h (Span.range 0 (nc + 1)));
  rejects "last span past n" (tend_h (Span.of_spans [| (0, 2); (nc, nc + 1) |]));
  rejects "short x4 accumulator"
    (tend_h ~x4:(Some (1., full (nc - 1), None)) (Span.full nc));
  rejects "short x4 publish target"
    (tend_h ~x4:(Some (1., full nc, Some (full (nc - 1)))) (Span.full nc));
  rejects "short dissipation vorticity" (fun () ->
      Operators.tend_u_chain m ~pv_average:Config.Symmetric ~gravity
        ~h:(full nc) ~b:(full nc) ~ke:(full nc) ~h_edge:(full ne) ~u:(full ne)
        ~pv_edge:(full ne) ~out
        ~dissip:(Some (1., full nc, full (nv - 1)))
        ~drag:0. ~boundary:false ~x5:None ~on:(Span.full ne));
  rejects "short x4 tend_h" (fun () ->
      Operators.diag_cells_chain m ~h:(full nc) ~u:(full ne) ~d2:(Some out)
        ~ke_out:None ~div_out:None ~x4:(Some (1., full nc, None))
        ~tend_h:(full (nc - 1)) ~on:(Span.full nc));
  rejects "short G output" (fun () ->
      Operators.diag_edges_chain m ~order:Config.Second ~h:(full nc)
        ~d2fdx2_cell:[||] ~h_edge_out:out
        ~g:(Some (full ne, Array.make (ne - 1) nan))
        ~x5:None ~tend_u:[||] ~on:(Span.full ne));
  rejects "pv_out without hv_out" (fun () ->
      Operators.vortex_chain m ~u:(full ne) ~h:(full nc) ~vort_out:out
        ~hv_out:None ~pv_out:(Some out) ~on:(Span.full nv));
  rejects "short F v_tangential" (fun () ->
      Operators.pv_edge_chain m ~g:None ~pv_cell:(full nc) ~pv_vertex:(full nv)
        ~gn_out:(full ne) ~gt_out:(full ne)
        ~f:(Some (0.5, 1., full ne, full (ne - 1), full ne))
        ~on:(Span.full ne))

(* --- properties -------------------------------------------------------------- *)

(* A random span set over [0, n): empty, the full range, or sorted runs
   of random lengths separated by random gaps (possibly none, so
   adjacent runs occur too). *)
let random_span_set r n =
  match Rng.int r 4 with
  | 0 -> Span.empty
  | 1 -> Span.full n
  | _ ->
      let step = Int.max 1 (n / 8) in
      let runs = ref [] and i = ref (Rng.int r step) in
      while !i < n do
        let hi = Int.min n (!i + 1 + Rng.int r step) in
        runs := (!i, hi) :: !runs;
        i := hi + Rng.int r step
      done;
      Span.of_spans (Array.of_list (List.rev !runs))

let prop_csr_matches_stencil =
  QCheck.Test.make
    ~name:"CSR fast paths bit-identical to Stencil.run on random span sets"
    ~count:10
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let r = Rng.create (Int64.of_int seed) in
      let agree ?pool m seed =
        List.for_all
          (fun (_, n, (csr_run : runner), (reference : runner)) ->
            let on = random_span_set r n in
            let a = Array.make n nan and b = Array.make n nan in
            csr_run ?pool ~on a;
            reference ?pool ~on b;
            bitwise_equal a b && only_listed a on)
          (csr_kernel_pairs m seed)
      in
      let seed = Int64.of_int seed in
      let both ?pool () =
        agree ?pool (Lazy.force ico) seed
        && agree ?pool (Lazy.force hex) (Int64.add seed 7L)
      in
      both () && Mpas_par.Pool.with_pool ~n_domains:2 (fun pool -> both ~pool ()))

(* --- fused chains vs their member kernels --------------------------------- *)

(* Every boolean combination of [n] ride-along flags. *)
let subsets n =
  List.init (1 lsl n) (fun k -> List.init n (fun i -> k land (1 lsl i) <> 0))

(* The accumulator variants of a chain's X4/X5 member: absent, present,
   present and publishing (the final substep). *)
let accum_variants = [ `Off; `Accum; `Publish ]

(* One chain case: [run ~chain] builds every array afresh from [seed]
   (inputs random, outputs NaN, accumulators random), runs either the
   chain over [on] or the member kernels back to back with [?on] =
   that set, and returns every array either may have written. *)
let chain_cases (m : Mesh.t) seed ~on =
  let rand r n a b = Array.init n (fun _ -> Rng.uniform r a b) in
  let nans n = Array.make n nan in
  let coef = 0.125 in
  (* the member-side X4/X5 plus publish, as the runtime binds them *)
  let accum_members ~on_cells ~on_edges ~(tend : Fields.tendencies)
      ~(accum : Fields.state) ~publish ~(state : Fields.state) =
    Operators.accumulate ~on_cells ~on_edges m ~coef ~tend ~accum;
    if publish then begin
      Span.iter (fun c -> state.Fields.h.(c) <- accum.Fields.h.(c)) on_cells;
      Span.iter (fun e -> state.Fields.u.(e) <- accum.Fields.u.(e)) on_edges
    end
  in
  let st h u = { Fields.h; u; tracers = [||] } in
  let td tend_h tend_u = { Fields.tend_h; tend_u; tend_tracers = [||] } in
  let x_arg v accum publish =
    match v with
    | `Off -> None
    | `Accum -> Some (coef, accum, None)
    | `Publish -> Some (coef, accum, Some publish)
  in
  let nc = m.n_cells and ne = m.n_edges and nv = m.n_vertices in
  List.concat
    [
      List.map
        (fun x4 ->
          ( "tend_h_chain",
            fun ~chain ->
              let r = Rng.create seed in
              let h_edge = rand r ne 900. 1100. and u = rand r ne (-10.) 10. in
              let out = nans nc and accum = rand r nc 900. 1100.
              and publish = nans nc in
              (if chain then
                 Operators.tend_h_chain m ~h_edge ~u ~out
                   ~x4:(x_arg x4 accum publish) ~on
               else begin
                 Operators.tend_h ~on m ~h_edge ~u ~out;
                 if x4 <> `Off then
                   accum_members ~on_cells:on ~on_edges:Span.empty
                     ~tend:(td out [||]) ~accum:(st accum [||])
                     ~publish:(x4 = `Publish) ~state:(st publish [||])
               end);
              [ out; accum; publish ] ))
        accum_variants;
      List.concat_map
        (fun x5 ->
          List.map
            (function
              | [ edge_only; dissip; drag; boundary ] ->
                  ( "tend_u_chain",
                    fun ~chain ->
                      let r = Rng.create seed in
                      let h = rand r nc 900. 1100. and b = rand r nc 0. 100. in
                      let ke = rand r nc 0. 50. in
                      let h_edge = rand r ne 900. 1100. in
                      let u = rand r ne (-10.) 10. in
                      let pv_edge = rand r ne (-1e-6) 1e-6 in
                      let divergence = rand r nc (-1e-5) 1e-5 in
                      let vorticity = rand r nv (-1e-5) 1e-5 in
                      let out = nans ne and accum = rand r ne (-10.) 10.
                      and publish = nans ne in
                      let pv_average =
                        if edge_only then Config.Edge_only else Config.Symmetric
                      in
                      let visc2 = if dissip then 0.75 else 0. in
                      let drag = if drag then 0.35 else 0. in
                      (if chain then
                         Operators.tend_u_chain m ~pv_average ~gravity ~h ~b ~ke
                           ~h_edge ~u ~pv_edge ~out
                           ~dissip:
                             (if dissip then Some (visc2, divergence, vorticity)
                              else None)
                           ~drag ~boundary ~x5:(x_arg x5 accum publish) ~on
                       else begin
                         Operators.tend_u ~on ~pv_average m ~gravity ~h ~b ~ke
                           ~h_edge ~u ~pv_edge ~out;
                         Operators.dissipation ~on m ~visc2 ~divergence
                           ~vorticity ~tend_u:out;
                         Operators.local_forcing ~on m ~drag ~u ~tend_u:out;
                         if boundary then
                           Operators.enforce_boundary_edge ~on m ~tend_u:out;
                         if x5 <> `Off then
                           accum_members ~on_cells:Span.empty ~on_edges:on
                             ~tend:(td [||] out) ~accum:(st [||] accum)
                             ~publish:(x5 = `Publish) ~state:(st [||] publish)
                       end);
                      [ out; accum; publish ] )
              | _ -> assert false)
            (subsets 4))
        accum_variants;
      List.concat_map
        (fun x4 ->
          List.map
            (function
              | [ d2; ke; div ] ->
                  ( "diag_cells_chain",
                    fun ~chain ->
                      let r = Rng.create seed in
                      let h = rand r nc 900. 1100. in
                      let u = rand r ne (-10.) 10. in
                      let tend_h = rand r nc (-1e-3) 1e-3 in
                      let d2_out = nans nc and ke_out = nans nc
                      and div_out = nans nc in
                      let accum = rand r nc 900. 1100. and publish = nans nc in
                      let opt b a = if b then Some a else None in
                      (if chain then
                         Operators.diag_cells_chain m ~h ~u
                           ~d2:(opt d2 d2_out) ~ke_out:(opt ke ke_out)
                           ~div_out:(opt div div_out)
                           ~x4:(x_arg x4 accum publish) ~tend_h ~on
                       else begin
                         if d2 then Operators.d2fdx2 ~on m ~h ~out:d2_out;
                         if ke then
                           Operators.kinetic_energy ~on m ~u ~out:ke_out;
                         if div then Operators.divergence ~on m ~u ~out:div_out;
                         if x4 <> `Off then
                           accum_members ~on_cells:on ~on_edges:Span.empty
                             ~tend:(td tend_h [||]) ~accum:(st accum [||])
                             ~publish:(x4 = `Publish) ~state:(st publish [||])
                       end);
                      [ d2_out; ke_out; div_out; accum; publish ] )
              | _ -> assert false)
            (subsets 3))
        accum_variants;
      List.concat_map
        (fun x5 ->
          List.map
            (function
              | [ fourth; g ] ->
                  ( "diag_edges_chain",
                    fun ~chain ->
                      let r = Rng.create seed in
                      let h = rand r nc 900. 1100. in
                      let d2fdx2_cell = rand r nc (-1e-6) 1e-6 in
                      let u = rand r ne (-10.) 10. in
                      let tend_u = rand r ne (-1e-3) 1e-3 in
                      let h_edge_out = nans ne and v_out = nans ne in
                      let accum = rand r ne (-10.) 10. and publish = nans ne in
                      let order =
                        if fourth then Config.Fourth else Config.Second
                      in
                      (if chain then
                         Operators.diag_edges_chain m ~order ~h ~d2fdx2_cell
                           ~h_edge_out
                           ~g:(if g then Some (u, v_out) else None)
                           ~x5:(x_arg x5 accum publish) ~tend_u ~on
                       else begin
                         Operators.h_edge ~on m ~order ~h ~d2fdx2_cell
                           ~out:h_edge_out;
                         if g then
                           Operators.tangential_velocity ~on m ~u ~out:v_out;
                         if x5 <> `Off then
                           accum_members ~on_cells:Span.empty ~on_edges:on
                             ~tend:(td [||] tend_u) ~accum:(st [||] accum)
                             ~publish:(x5 = `Publish) ~state:(st [||] publish)
                       end);
                      [ h_edge_out; v_out; accum; publish ] )
              | _ -> assert false)
            (subsets 2))
        accum_variants;
      List.map
        (fun (hv, pv) ->
          ( "vortex_chain",
            fun ~chain ->
              let r = Rng.create seed in
              let u = rand r ne (-10.) 10. and h = rand r nc 900. 1100. in
              let vort = nans nv and hv_arr = nans nv and pv_arr = nans nv in
              (if chain then
                 Operators.vortex_chain m ~u ~h ~vort_out:vort
                   ~hv_out:(if hv then Some hv_arr else None)
                   ~pv_out:(if pv then Some pv_arr else None)
                   ~on
               else begin
                 Operators.vorticity ~on m ~u ~out:vort;
                 if hv then Operators.h_vertex ~on m ~h ~out:hv_arr;
                 if pv then
                   Operators.pv_vertex ~on m ~vorticity:vort ~h_vertex:hv_arr
                     ~out:pv_arr
               end);
              [ vort; hv_arr; pv_arr ] ))
        [ (false, false); (true, false); (true, true) ];
      List.map
        (function
          | [ g; f ] ->
              ( "pv_edge_chain",
                fun ~chain ->
                  let r = Rng.create seed in
                  let u = rand r ne (-10.) 10. in
                  let pv_cell = rand r nc (-1e-6) 1e-6 in
                  let pv_vertex = rand r nv (-1e-6) 1e-6 in
                  (* without G, F reads a tangential velocity given as input *)
                  let v_tan = if g then nans ne else rand r ne (-10.) 10. in
                  let gn = nans ne and gt = nans ne and pv_edge = nans ne in
                  let apvm_factor = 0.5 and dt = 300. in
                  (if chain then
                     Operators.pv_edge_chain m
                       ~g:(if g then Some (u, v_tan) else None)
                       ~pv_cell ~pv_vertex ~gn_out:gn ~gt_out:gt
                       ~f:
                         (if f then Some (apvm_factor, dt, u, v_tan, pv_edge)
                          else None)
                       ~on
                   else begin
                     if g then
                       Operators.tangential_velocity ~on m ~u ~out:v_tan;
                     Operators.grad_pv ~on m ~pv_cell ~pv_vertex ~out_n:gn
                       ~out_t:gt;
                     if f then
                       Operators.pv_edge ~on m ~apvm_factor ~dt ~pv_vertex
                         ~grad_pv_n:gn ~grad_pv_t:gt ~u ~v_tangential:v_tan
                         ~out:pv_edge
                   end);
                  [ v_tan; gn; gt; pv_edge ] )
          | _ -> assert false)
        (subsets 2);
    ]

(* Each chain over a random span set, under every subset of its
   ride-along members, is bitwise the member kernels run back to back on
   that set — including the NaN left everywhere outside it. *)
let prop_chains_match_members =
  QCheck.Test.make
    ~name:"fused chains bit-identical to their member kernels on random span sets"
    ~count:10
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let r = Rng.create (Int64.of_int seed) in
      List.for_all
        (fun (m : Mesh.t) ->
          let space = function
            | "tend_h_chain" | "diag_cells_chain" -> m.n_cells
            | "vortex_chain" -> m.n_vertices
            | _ -> m.n_edges
          in
          List.for_all
            (fun name ->
              let n = space name in
              let on = random_span_set r n in
              List.for_all
                (fun (name', run) ->
                  name' <> name
                  || List.for_all2 bitwise_equal (run ~chain:true)
                       (run ~chain:false))
                (chain_cases m (Int64.of_int (Rng.int r 1_000_000)) ~on))
            [ "tend_h_chain"; "tend_u_chain"; "diag_cells_chain";
              "diag_edges_chain"; "vortex_chain"; "pv_edge_chain" ])
        (* a boundary mask on a strict subset gives X2 real work *)
        (List.map
           (fun m ->
             Mesh.with_boundary_edges (Lazy.force m) (fun e -> e mod 7 = 0))
           [ ico; hex ]))

(* Each chain with every stencil member on and no ride-along, over a
   random span set, against [Stencil.run] of the members' Library specs
   on the same set — bit for bit, NaN everywhere outside it.  Members
   that read an earlier member's output are fed the reference's own
   output, so each comparison pins one body. *)
let prop_chains_match_stencil =
  QCheck.Test.make
    ~name:"fused chains bit-identical to Stencil.run on random span sets"
    ~count:10
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let r = Rng.create (Int64.of_int seed) in
      List.for_all
        (fun (m : Mesh.t) ->
          let nc = m.n_cells and ne = m.n_edges and nv = m.n_vertices in
          let rand n a b = Array.init n (fun _ -> Rng.uniform r a b) in
          let nans n = Array.make n nan in
          let apvm_factor = 0.5 and dt = 300. in
          let fields = ref [] in
          let input name a = fields := (name, a) :: !fields; a in
          let u = input "u" (rand ne (-10.) 10.) in
          let h = input "h" (rand nc 900. 1100.) in
          let b = input "b" (rand nc 0. 100.) in
          let ke = input "ke" (rand nc 0. 50.) in
          let h_edge = input "h_edge" (rand ne 900. 1100.) in
          let pv_edge = input "pv_edge" (rand ne (-1e-6) 1e-6) in
          let d2 = input "d2fdx2_cell" (rand nc (-1e-6) 1e-6) in
          let pv_cell = input "pv_cell" (rand nc (-1e-6) 1e-6) in
          let pv_vertex = input "pv_vertex" (rand nv (-1e-6) 1e-6) in
          let env () = { Mpas_gen.Stencil.mesh = m; fields = !fields } in
          let reference ?(with_ = []) name on =
            let n =
              Mpas_gen.Stencil.out_length m
                (Mpas_gen.Library.spec ~gravity ~apvm_dt:(apvm_factor *. dt) name)
            in
            let out = nans n in
            let env = env () in
            Mpas_gen.Stencil.run ~on
              { env with Mpas_gen.Stencil.fields = with_ @ env.Mpas_gen.Stencil.fields }
              (Mpas_gen.Library.spec ~gravity ~apvm_dt:(apvm_factor *. dt) name)
              ~out;
            out
          in
          let cells = random_span_set r nc and edges = random_span_set r ne
          and vertices = random_span_set r nv in
          let tend_h = nans nc and tend_u = nans ne in
          Operators.tend_h_chain m ~h_edge ~u ~out:tend_h ~x4:None ~on:cells;
          Operators.tend_u_chain m ~pv_average:Config.Symmetric ~gravity ~h ~b
            ~ke ~h_edge ~u ~pv_edge ~out:tend_u ~dissip:None ~drag:0.
            ~boundary:false ~x5:None ~on:edges;
          let d2_out = nans nc and ke_out = nans nc and div_out = nans nc in
          Operators.diag_cells_chain m ~h ~u ~d2:(Some d2_out)
            ~ke_out:(Some ke_out) ~div_out:(Some div_out) ~x4:None
            ~tend_h:[||] ~on:cells;
          let he_out = nans ne and v_out = nans ne in
          Operators.diag_edges_chain m ~order:Config.Fourth ~h
            ~d2fdx2_cell:d2 ~h_edge_out:he_out ~g:(Some (u, v_out)) ~x5:None
            ~tend_u:[||] ~on:edges;
          let vort = nans nv and hv = nans nv and pv = nans nv in
          Operators.vortex_chain m ~u ~h ~vort_out:vort ~hv_out:(Some hv)
            ~pv_out:(Some pv) ~on:vertices;
          let v2 = nans ne and gn = nans ne and gt = nans ne
          and pve = nans ne in
          Operators.pv_edge_chain m ~g:(Some (u, v2)) ~pv_cell ~pv_vertex
            ~gn_out:gn ~gt_out:gt ~f:(Some (apvm_factor, dt, u, v2, pve))
            ~on:edges;
          let vort_ref = reference "D1 vorticity" vertices
          and hv_ref = reference "C2 h_vertex" vertices in
          let v_ref = reference "G tangential velocity" edges in
          let gn_ref = reference "H1 grad_pv_n" edges
          and gt_ref = reference "H1 grad_pv_t" edges in
          List.for_all2 bitwise_equal
            [ tend_h; tend_u; d2_out; ke_out; div_out; he_out; v_out; vort;
              hv; pv; v2; gn; gt; pve ]
            [
              reference "A1 tend_h" cells;
              reference "B1 tend_u" edges;
              reference "H2 d2fdx2" cells;
              reference "A2 kinetic energy" cells;
              reference "A3 divergence" cells;
              reference "B2 h_edge (4th order)" edges;
              v_ref;
              vort_ref;
              hv_ref;
              reference
                ~with_:[ ("vorticity", vort_ref); ("h_vertex", hv_ref) ]
                "D2 pv_vertex" vertices;
              v_ref;
              gn_ref;
              gt_ref;
              reference
                ~with_:[ ("v", v_ref); ("grad_pv_n", gn_ref); ("grad_pv_t", gt_ref) ]
                "F pv_edge" edges;
            ])
        [ Lazy.force ico; Lazy.force hex ])

let prop_refactoring_equivalence =
  QCheck.Test.make ~name:"scatter = gather for random velocity fields"
    ~count:25 QCheck.(int_range 0 10_000)
    (fun seed ->
      let m = Lazy.force ico in
      let u = random_u m (Int64.of_int seed) in
      let s = Array.make m.n_cells 0. and g = Array.make m.n_cells 0. in
      Operators.divergence_scatter m ~u ~out:s;
      Operators.divergence m ~u ~out:g;
      Stats.max_abs_diff s g < 1e-12)

let prop_ke_nonnegative =
  QCheck.Test.make ~name:"kinetic energy non-negative" ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let m = Lazy.force ico in
      let u = random_u m (Int64.of_int seed) in
      let ke = Array.make m.n_cells 0. in
      Operators.kinetic_energy m ~u ~out:ke;
      Array.for_all (fun x -> x >= 0.) ke)

let prop_divergence_of_any_field_integrates_to_zero =
  QCheck.Test.make ~name:"global divergence integral is zero" ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let m = Lazy.force ico in
      let u = random_u m (Int64.of_int seed) in
      let d = Array.make m.n_cells 0. in
      Operators.divergence m ~u ~out:d;
      let total = ref 0. and scale = ref 0. in
      for c = 0 to m.n_cells - 1 do
        total := !total +. (d.(c) *. m.area_cell.(c));
        scale := !scale +. (Float.abs d.(c) *. m.area_cell.(c))
      done;
      Float.abs !total < 1e-9 *. !scale)

let prop_vorticity_of_gradient_flow_zero =
  QCheck.Test.make ~name:"curl of gradient is zero" ~count:10
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let m = Lazy.force ico in
      let phi = random_h m (Int64.of_int seed) in
      let u =
        Array.init m.n_edges (fun e ->
            let c1 = m.csr.edge_cells.(2 * e)
            and c2 = m.csr.edge_cells.((2 * e) + 1) in
            (phi.(c2) -. phi.(c1)) /. m.dc_edge.(e))
      in
      let vort = Array.make m.n_vertices 0. in
      Operators.vorticity m ~u ~out:vort;
      (* Discrete curl(grad) = 0 exactly (telescoping circulation). *)
      Array.for_all (fun z -> Float.abs z < 1e-10) vort)

(* Digest of the TC5 state after 10 steps of the scatter engine (the
   Fig 5 oracle) on the level-3 icosahedral mesh, pinned bit for bit. *)
let test_pinned_original_digest () =
  let m = Build.icosahedral ~level:3 () in
  let model = Model.init ~engine:Timestep.original Williamson.Tc5 m in
  Model.run model ~steps:10;
  let buf = Buffer.create (1 lsl 16) in
  Array.iter
    (fun x -> Buffer.add_int64_le buf (Int64.bits_of_float x))
    (Array.append model.state.h model.state.u);
  Alcotest.(check string) "h/u after 10 steps" "0a344109d723c2718cf8194fa07160f2"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let () =
  Alcotest.run "swe"
    [
      ( "refactoring equivalence",
        [
          Alcotest.test_case "divergence" `Quick test_equiv_divergence;
          Alcotest.test_case "kinetic energy" `Quick test_equiv_kinetic_energy;
          Alcotest.test_case "vorticity" `Quick test_equiv_vorticity;
          Alcotest.test_case "d2fdx2" `Quick test_equiv_d2fdx2;
          Alcotest.test_case "pv_cell" `Quick test_equiv_pv_cell;
          Alcotest.test_case "tend_h" `Quick test_equiv_tend_h;
          Alcotest.test_case "parallel bitwise" `Quick
            test_parallel_matches_serial_gather;
        ] );
      ( "csr layout",
        [
          Alcotest.test_case "serial bitwise" `Quick test_csr_bitwise_serial;
          Alcotest.test_case "pool bitwise" `Quick test_csr_bitwise_pool;
          Alcotest.test_case "on-subset bitwise" `Quick
            test_csr_bitwise_subset;
          Alcotest.test_case "on-subset out of range" `Quick
            test_on_out_of_range_rejected;
          Alcotest.test_case "chain inputs checked" `Quick
            test_chain_inputs_rejected;
        ] );
      ( "exact hex answers",
        [
          Alcotest.test_case "divergence" `Quick test_hex_divergence_uniform_flow;
          Alcotest.test_case "kinetic energy" `Quick test_hex_ke_uniform_flow;
          Alcotest.test_case "h_edge" `Quick test_hex_h_edge_constant_field;
          Alcotest.test_case "grad pv" `Quick test_hex_grad_pv_constant;
          Alcotest.test_case "geostrophic balance" `Quick
            test_geostrophic_balance_hex;
        ] );
      ( "local kernels",
        [
          Alcotest.test_case "boundary" `Quick test_enforce_boundary_edge;
          Alcotest.test_case "substep/accumulate" `Quick
            test_next_substep_and_accumulate;
          Alcotest.test_case "no-op dissipation" `Quick
            test_dissipation_zero_visc_is_noop;
          Alcotest.test_case "dissipation sign" `Quick test_dissipation_smooths;
        ] );
      ( "reconstruction",
        [
          Alcotest.test_case "uniform hex" `Quick test_reconstruct_uniform_flow_hex;
          Alcotest.test_case "solid body sphere" `Quick
            test_reconstruct_solid_body_sphere;
          Alcotest.test_case "one table per mesh" `Quick
            test_reconstruct_table_shared;
          Alcotest.test_case "foreign table refused" `Quick
            test_reconstruct_foreign_table;
        ] );
      ( "model",
        [
          Alcotest.test_case "TC2 steady" `Quick test_tc2_steady;
          Alcotest.test_case "mass conservation" `Quick test_mass_conservation;
          Alcotest.test_case "energy/enstrophy" `Quick
            test_energy_enstrophy_drift_small;
          Alcotest.test_case "engines agree" `Quick test_engines_agree;
          Alcotest.test_case "pinned original digest" `Quick
            test_pinned_original_digest;
          Alcotest.test_case "parallel engine" `Quick test_parallel_engine_agrees;
          Alcotest.test_case "RK4 convergence" `Slow test_rk4_convergence;
          Alcotest.test_case "TC5 mountain" `Quick test_tc5_mountain_present;
          Alcotest.test_case "total height" `Quick test_total_height;
          Alcotest.test_case "dt heuristic" `Quick test_recommended_dt_scales;
          Alcotest.test_case "plane rejected" `Quick test_planar_mesh_rejected;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "constant tracer" `Quick
            test_constant_tracer_preserved;
          Alcotest.test_case "tracer mass" `Quick test_tracer_mass_conserved;
          Alcotest.test_case "upwind monotone" `Quick test_upwind_monotone;
          Alcotest.test_case "bell advects" `Quick test_bell_advects_eastward;
          Alcotest.test_case "tracer engines" `Quick test_tracer_engines_agree;
          Alcotest.test_case "del4 noop" `Quick test_del4_zero_is_noop;
          Alcotest.test_case "del4 damps" `Quick test_del4_damps_noise;
          Alcotest.test_case "profiling" `Quick test_profile_measures_all_kernels;
          Alcotest.test_case "profiling restores on raise" `Quick
            test_profile_restores_engine_on_raise;
        ] );
      ( "conservation theory",
        [
          Alcotest.test_case "coriolis energy-neutral" `Quick
            test_coriolis_energy_neutral;
          Alcotest.test_case "rotated TC2 steady" `Quick
            test_tc2_rotated_steady;
        ] );
      ( "galewsky",
        [
          Alcotest.test_case "height range" `Quick test_galewsky_height_range;
          Alcotest.test_case "jet confined" `Quick test_galewsky_jet_confined;
          Alcotest.test_case "balanced steady" `Slow
            test_galewsky_balanced_nearly_steady;
          Alcotest.test_case "perturbation" `Quick test_galewsky_perturbation;
        ] );
      ( "integrators",
        [
          Alcotest.test_case "ssprk3 mass" `Quick test_ssprk3_conserves_mass;
          Alcotest.test_case "ssprk3 vs rk4" `Quick
            test_ssprk3_matches_rk4_at_small_dt;
          Alcotest.test_case "ssprk3 order" `Slow test_ssprk3_third_order;
          Alcotest.test_case "ssprk3 tracers" `Quick
            test_ssprk3_tracers_conserved;
          Alcotest.test_case "pv averaging" `Quick test_pv_average_ablation;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip" `Quick test_state_io_roundtrip;
          Alcotest.test_case "exact restart" `Quick
            test_restart_continues_exactly;
          Alcotest.test_case "garbage" `Quick test_state_io_rejects_garbage;
          Alcotest.test_case "file roundtrip both families" `Quick
            test_state_io_file_roundtrip_both_families;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_csr_matches_stencil;
            prop_chains_match_members;
            prop_chains_match_stencil;
            prop_refactoring_equivalence;
            prop_ke_nonnegative;
            prop_divergence_of_any_field_integrates_to_zero;
            prop_vorticity_of_gradient_flow_zero;
          ] );
    ]
