open Mpas_numerics
open Mpas_mesh
open Mpas_swe
open Mpas_par
open Mpas_runtime
open Mpas_ensemble
open Ensemble

let ico = lazy (Build.icosahedral ~level:2 ~lloyd_iters:2 ())
let hex = lazy (Planar_hex.create ~f:1e-4 ~nx:8 ~ny:6 ~dc:1000. ())

(* A geostrophically balanced f-plane state (the hex family has no
   Williamson case). *)
let hex_state (m : Mesh.t) =
  let f = 1e-4 and g = Config.default.Config.gravity in
  let flow = Vec3.make 5. 2. 0. in
  let slope = Vec3.scale (-.(f /. g)) (Vec3.cross Vec3.ez flow) in
  let h =
    Array.init m.Mesh.n_cells (fun c ->
        1000. +. Vec3.dot slope m.Mesh.x_cell.(c))
  in
  let u =
    Array.init m.Mesh.n_edges (fun e -> Vec3.dot flow m.Mesh.edge_normal.(e))
  in
  { Fields.h; u; tracers = [||] }

let hex_dt = 5.

(* Bitwise equality: both trajectories must follow the identical IEEE
   operation sequence, so plain structural equality is the check. *)
let check_bits name (a : float array) (b : float array) =
  Alcotest.(check bool) name true (a = b)

let solo_steps ?(config = Config.default) ~dt ~b mesh state n =
  let model =
    Model.of_state ~config ~engine:Timestep.refactored ~dt ~b mesh state
  in
  Model.run model ~steps:n;
  model.Model.state

(* The perturbed-config mix used by the batched-vs-solo comparisons. *)
let varied_configs =
  [
    Config.default;
    { Config.default with h_adv_order = Config.Second };
    { Config.default with pv_average = Config.Edge_only };
    {
      Config.default with
      visc2 = 1e3;
      bottom_drag = 1e-6;
      apvm_factor = 0.25;
    };
  ]

(* --- bit identity ------------------------------------------------------- *)

let test_bit_identity_ico () =
  let m = Lazy.force ico in
  let e = create ~capacity:8 ~block:3 m in
  let cases =
    [
      (Williamson.Tc5, List.nth varied_configs 0);
      (Williamson.Tc2, List.nth varied_configs 1);
      (Williamson.Tc6, List.nth varied_configs 2);
      (Williamson.Tc5, List.nth varied_configs 3);
      (Williamson.Tc2_rotated, Config.default);
    ]
  in
  let ids =
    List.map (fun (case, config) -> submit_case e ~config case) cases
  in
  step e ~n:10 ();
  List.iter2
    (fun id (case, config) ->
      let got = state e id in
      let solo =
        Model.init ~config ~engine:Timestep.refactored case m
      in
      Model.run solo ~steps:10;
      let name = Williamson.case_name case in
      check_bits (name ^ " h") solo.Model.state.Fields.h got.Fields.h;
      check_bits (name ^ " u") solo.Model.state.Fields.u got.Fields.u;
      Alcotest.(check int) (name ^ " steps") 10 (query e id).i_steps)
    ids cases

let test_bit_identity_hex () =
  let m = Lazy.force hex in
  let e = create ~capacity:4 ~block:2 m in
  let b = Array.make m.Mesh.n_cells 0. in
  let st = hex_state m in
  let ids =
    List.map
      (fun config -> submit e ~config ~dt:hex_dt ~b st)
      varied_configs
  in
  step e ~n:10 ();
  List.iter2
    (fun id config ->
      let got = state e id in
      let want = solo_steps ~config ~dt:hex_dt ~b m st 10 in
      check_bits "hex h" want.Fields.h got.Fields.h;
      check_bits "hex u" want.Fields.u got.Fields.u)
    ids varied_configs

(* Every executor mode must produce the same bits: member blocks are
   independent, so the schedule cannot matter. *)
let test_modes_bit_identical () =
  let m = Lazy.force hex in
  let b = Array.make m.Mesh.n_cells 0. in
  let st = hex_state m in
  let want = solo_steps ~dt:hex_dt ~b m st 5 in
  let run_mode mode pool_size =
    let with_engine pool =
      let e = create ~capacity:8 ~block:2 ~mode ?pool m in
      let id = submit e ~dt:hex_dt ~b st in
      (* Fill other slots so several blocks carry work. *)
      List.iter
        (fun config -> ignore (submit e ~config ~dt:hex_dt ~b st))
        varied_configs;
      step e ~n:5 ();
      state e id
    in
    if pool_size = 0 then with_engine None
    else
      Pool.with_pool ~n_domains:pool_size (fun p -> with_engine (Some p))
  in
  List.iter
    (fun (name, mode, pool_size) ->
      let got = run_mode mode pool_size in
      check_bits (name ^ " h") want.Fields.h got.Fields.h;
      check_bits (name ^ " u") want.Fields.u got.Fields.u)
    [
      ("sequential", Exec.Sequential, 0);
      ("barrier", Exec.Barrier, 2);
      ("async", Exec.Async, 4);
      ("steal", Exec.Steal, 4);
    ]

(* One batch covering every per-member switch (advection order, PV
   average, visc2, bottom drag, a rotated Coriolis field), with a
   partial last block (capacity 7, block 3) and a member quarantined
   mid-run inside a full block: every other member stays bitwise on its
   solo trajectory. *)
let test_mixed_batch_bitwise () =
  let m = Lazy.force ico in
  let e = create ~capacity:7 ~block:3 m in
  let d = Config.default in
  let cases =
    [
      ("tc5 fourth/symmetric", Williamson.Tc5, d);
      ("tc2 second", Williamson.Tc2, { d with h_adv_order = Config.Second });
      ("tc6 edge-only pv", Williamson.Tc6, { d with pv_average = Config.Edge_only });
      ("tc5 visc2", Williamson.Tc5, { d with visc2 = 1e4 });
      ("tc5 bottom drag", Williamson.Tc5, { d with bottom_drag = 1e-5 });
      ("victim", Williamson.Tc5, d);
      ("tc2 rotated", Williamson.Tc2_rotated, d);
    ]
  in
  let ids = List.map (fun (_, case, config) -> submit_case e ~config case) cases in
  let victim = List.nth ids 5 in
  step e ~n:2 ();
  let poisoned = state e victim in
  poisoned.Fields.h.(3) <- Float.nan;
  set_state e victim poisoned;
  step e ~n:2 ();
  (match (query e victim).i_status with
  | Failed _ -> ()
  | s -> Alcotest.failf "victim should be failed, is %s" (status_name s));
  Alcotest.(check int) "victim stopped at failure" 3 (query e victim).i_steps;
  List.iter2
    (fun id (name, case, config) ->
      if id <> victim then begin
        let solo = Model.init ~config ~engine:Timestep.refactored case m in
        Model.run solo ~steps:4;
        let got = state e id in
        check_bits (name ^ " h") solo.Model.state.Fields.h got.Fields.h;
        check_bits (name ^ " u") solo.Model.state.Fields.u got.Fields.u;
        Alcotest.(check string)
          (name ^ " running") "running"
          (status_name (query e id).i_status)
      end)
    ids cases

(* A slot freed by [evict] and taken by a new member carries nothing of
   its previous occupant: not its fourth-order d2fdx2, its viscosity,
   nor its rotated Coriolis mesh. *)
let test_evict_resubmit_reuses_slot () =
  let m = Lazy.force ico in
  let e = create ~capacity:1 m in
  let old =
    submit_case e
      ~config:{ Config.default with visc2 = 1e4 }
      Williamson.Tc2_rotated
  in
  step e ~n:3 ();
  evict e old;
  let config = { Config.default with h_adv_order = Config.Second } in
  let id = submit_case e ~config Williamson.Tc5 in
  Alcotest.(check bool) "engine mesh again" true (member_mesh e id == mesh e);
  step e ~n:3 ();
  let solo = Model.init ~config ~engine:Timestep.refactored Williamson.Tc5 m in
  Model.run solo ~steps:3;
  let got = state e id in
  check_bits "resubmitted h" solo.Model.state.Fields.h got.Fields.h;
  check_bits "resubmitted u" solo.Model.state.Fields.u got.Fields.u

let test_rotated_member_shares_csr () =
  let m = Lazy.force ico in
  let e = create ~capacity:2 m in
  let plain = submit_case e Williamson.Tc2 in
  let rotated = submit_case e Williamson.Tc2_rotated in
  let mm = member_mesh e rotated in
  Alcotest.(check bool) "plain member on the engine mesh" true
    (member_mesh e plain == mesh e);
  Alcotest.(check bool) "rotated member on its own record" false (mm == mesh e);
  Alcotest.(check bool) "own Coriolis" false
    (mm.Mesh.f_vertex = m.Mesh.f_vertex);
  Alcotest.(check bool) "shared CSR" true (mm.Mesh.csr == (mesh e).Mesh.csr)

(* --- failure isolation -------------------------------------------------- *)

let test_quarantine () =
  let m = Lazy.force hex in
  let e = create ~capacity:4 ~block:2 m in
  let b = Array.make m.Mesh.n_cells 0. in
  let st = hex_state m in
  let victim = submit e ~dt:hex_dt ~b st in
  let bystander =
    submit e ~config:(List.nth varied_configs 3) ~dt:hex_dt ~b st
  in
  (* Poison the victim: NaN thickness in one cell. *)
  let poisoned = Fields.copy_state st in
  poisoned.Fields.h.(0) <- Float.nan;
  set_state e victim poisoned;
  step e ~n:3 ();
  (match (query e victim).i_status with
  | Failed reason ->
      Alcotest.(check bool)
        "reason names the field" true
        (String.length reason > 0)
  | s -> Alcotest.failf "victim should be failed, is %s" (status_name s));
  (* The batch keeps going: the bystander is running, stepped, and
     bit-identical to its solo reference. *)
  Alcotest.(check string)
    "bystander running" "running"
    (status_name (query e bystander).i_status);
  Alcotest.(check int) "bystander steps" 3 (query e bystander).i_steps;
  let want =
    solo_steps ~config:(List.nth varied_configs 3) ~dt:hex_dt ~b m st 3
  in
  let got = state e bystander in
  check_bits "bystander h" want.Fields.h got.Fields.h;
  check_bits "bystander u" want.Fields.u got.Fields.u;
  (* The victim stops consuming steps after quarantine. *)
  Alcotest.(check int) "victim stopped at failure" 1 (query e victim).i_steps

(* The quarantine reason is the first finding on the member's own
   trajectory: h before u, lowest entity first, non-finite before
   non-positive — computed here from a solo run of the poisoned state.
   The mesh is large enough that one step leaves the damage local, so
   each case has findings at several distinct places. *)
let test_quarantine_first_finding () =
  let m = Planar_hex.create ~f:1e-4 ~nx:40 ~ny:30 ~dc:1000. () in
  let nc = m.Mesh.n_cells and ne = m.Mesh.n_edges in
  let b = Array.make nc 0. in
  let st = hex_state m in
  let reference (st : Fields.state) =
    let found = ref None in
    let note r = if !found = None then found := Some r in
    Array.iteri
      (fun c h ->
        if not (Float.is_finite h) then
          note (Printf.sprintf "non-finite h at cell %d" c)
        else if h <= 0. then note (Printf.sprintf "non-positive h at cell %d" c))
      st.Fields.h;
    Array.iteri
      (fun e u ->
        if not (Float.is_finite u) then
          note (Printf.sprintf "non-finite u at edge %d" e))
      st.Fields.u;
    !found
  in
  List.iter
    (fun (name, poison) ->
      let p = Fields.copy_state st in
      poison p;
      let want = reference (solo_steps ~dt:hex_dt ~b m p 1) in
      Alcotest.(check bool) (name ^ " has a finding") true (want <> None);
      let e = create ~capacity:2 m in
      ignore (submit e ~dt:hex_dt ~b st);
      let id = submit e ~dt:hex_dt ~b p in
      step e ();
      let got =
        match (query e id).i_status with Failed r -> Some r | _ -> None
      in
      Alcotest.(check (option string)) name want got)
    [
      ("NaN velocity", fun p -> p.Fields.u.(ne / 2) <- Float.nan);
      ( "two negative thicknesses",
        fun p ->
          p.Fields.h.(nc - 40) <- -5000.;
          p.Fields.h.(nc / 3) <- -5000. );
      ("infinite thickness", fun p -> p.Fields.h.(nc / 2) <- Float.infinity);
      ( "negative infinite thickness",
        fun p -> p.Fields.h.(nc / 2) <- Float.neg_infinity );
    ]

let test_member_isolation_qcheck () =
  let m = Lazy.force hex in
  let b = Array.make m.Mesh.n_cells 0. in
  let st = hex_state m in
  let configs = Array.of_list varied_configs in
  let prop (i, j, seed) =
    let i = i mod 3 and j = j mod 3 in
    QCheck.assume (i <> j);
    let e = create ~capacity:4 ~block:2 m in
    let ids =
      Array.init 3 (fun k -> submit e ~config:configs.(k) ~dt:hex_dt ~b st)
    in
    (* Arbitrary garbage into member i — including values that blow up. *)
    let rng = Random.State.make [| seed |] in
    let garbage =
      {
        Fields.h =
          Array.init m.Mesh.n_cells (fun _ ->
              Random.State.float rng 4000. -. 1000.);
        u = Array.init m.Mesh.n_edges (fun _ -> Random.State.float rng 200.);
        tracers = [||];
      }
    in
    set_state e ids.(i) garbage;
    step e ~n:2 ();
    (* Member j's trajectory must be exactly the solo one, no matter
       what member i did. *)
    let want = solo_steps ~config:configs.(j) ~dt:hex_dt ~b m st 2 in
    let got = state e ids.(j) in
    want.Fields.h = got.Fields.h && want.Fields.u = got.Fields.u
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"member isolation" ~count:15
       QCheck.(triple small_nat small_nat small_nat)
       prop)

(* --- serving API -------------------------------------------------------- *)

let test_target_done () =
  let m = Lazy.force hex in
  let e = create ~capacity:2 m in
  let b = Array.make m.Mesh.n_cells 0. in
  let id = submit e ~target:3 ~dt:hex_dt ~b (hex_state m) in
  step e ~n:5 ();
  Alcotest.(check string) "done" "done" (status_name (query e id).i_status);
  Alcotest.(check int) "stopped at target" 3 (query e id).i_steps

let test_evict_and_reuse () =
  let m = Lazy.force hex in
  let e = create ~capacity:2 m in
  let b = Array.make m.Mesh.n_cells 0. in
  let st = hex_state m in
  let a = submit e ~dt:hex_dt ~b st in
  let b_id = submit e ~dt:hex_dt ~b st in
  Alcotest.check_raises "full"
    (Invalid_argument
       "Ensemble.submit: batch full (got 2 members, expected < 2)")
    (fun () -> ignore (submit e ~dt:hex_dt ~b st));
  evict e a;
  let c = submit e ~dt:hex_dt ~b st in
  Alcotest.(check bool) "fresh id" true (c <> a && c <> b_id);
  Alcotest.(check int) "two live members" 2 (List.length (members e));
  Alcotest.check_raises "evicted id is gone" Not_found (fun () ->
      ignore (query e a))

let test_submit_validation () =
  let m = Lazy.force hex in
  let e = create ~capacity:2 m in
  let b = Array.make m.Mesh.n_cells 0. in
  let st = hex_state m in
  let nc = m.Mesh.n_cells and ne = m.Mesh.n_edges in
  let expect msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  expect
    (Printf.sprintf "Ensemble.submit: state.h cells (got 5, expected %d)" nc)
    (fun () ->
      ignore
        (submit e ~dt:hex_dt ~b
           { st with Fields.h = Array.make 5 1000. }));
  expect
    (Printf.sprintf "Ensemble.submit: state.u edges (got 7, expected %d)" ne)
    (fun () ->
      ignore (submit e ~dt:hex_dt ~b { st with Fields.u = Array.make 7 0. }));
  expect
    (Printf.sprintf "Ensemble.submit: b cells (got 1, expected %d)" nc)
    (fun () -> ignore (submit e ~dt:hex_dt ~b:[| 0. |] st));
  expect
    (Printf.sprintf "Ensemble.submit: f_vertex vertices (got 2, expected %d)"
       m.Mesh.n_vertices)
    (fun () -> ignore (submit e ~f_vertex:[| 0.; 0. |] ~dt:hex_dt ~b st));
  expect "Ensemble.submit: tracer rows (got 1, expected 0)" (fun () ->
      ignore
        (submit e ~dt:hex_dt ~b
           { st with Fields.tracers = [| Array.make nc 1. |] }));
  expect "Ensemble.submit: integrator unsupported (got ssprk3, expected rk4)"
    (fun () ->
      ignore
        (submit e
           ~config:{ Config.default with integrator = Config.Ssprk3 }
           ~dt:hex_dt ~b st));
  expect
    "Ensemble.submit: del-4 dissipation unsupported (got visc4 = 1e+10, \
     expected 0)" (fun () ->
      ignore
        (submit e
           ~config:{ Config.default with visc4 = 1e10 }
           ~dt:hex_dt ~b st))

(* --- spec structure ----------------------------------------------------- *)

let test_spec_well_formed () =
  let m = Lazy.force hex in
  List.iter
    (fun (capacity, block) ->
      let e = create ~capacity ~block m in
      let sp = spec e in
      Alcotest.(check (list string))
        (Printf.sprintf "capacity %d block %d" capacity block)
        [] (Spec.check sp);
      (* One task per (block, kernel); blocks share no slots. *)
      let blocks = (capacity + block - 1) / block in
      Alcotest.(check bool)
        "early task count" true
        (Array.length sp.Spec.early.Spec.tasks mod blocks = 0))
    [ (1, 1); (8, 3); (64, 8) ]

let test_task_accesses_block_disjoint () =
  let m = Lazy.force hex in
  let e = create ~capacity:8 ~block:4 m in
  let sp = spec e in
  let nk2 = Array.length sp.Spec.early.Spec.tasks / 2 in
  let slots_of task =
    List.map (fun a -> a.a_slot) (task_accesses e `Early ~task)
  in
  let block0 = List.concat_map slots_of (List.init nk2 (fun i -> i)) in
  let block1 = List.concat_map slots_of (List.init nk2 (fun i -> nk2 + i)) in
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " not shared") false (List.mem s block1))
    block0

(* --- observability ------------------------------------------------------ *)

let test_tenant_metrics_and_merge () =
  let open Mpas_obs in
  let registry = Metrics.create () in
  let m = Lazy.force hex in
  let e = create ~registry ~capacity:4 m in
  let b = Array.make m.Mesh.n_cells 0. in
  let st = hex_state m in
  ignore (submit e ~tenant:"acme" ~dt:hex_dt ~b st);
  ignore (submit e ~tenant:"acme" ~dt:hex_dt ~b st);
  ignore (submit e ~tenant:"globex" ~dt:hex_dt ~b st);
  step e ~n:3 ();
  let snap = Metrics.snapshot registry in
  Alcotest.(check (option int))
    "acme members stepped" (Some 6)
    (Metrics.find_counter snap "ensemble.members_stepped{tenant=acme}");
  Alcotest.(check (option int))
    "globex members stepped" (Some 3)
    (Metrics.find_counter snap "ensemble.members_stepped{tenant=globex}");
  Alcotest.(check (option int))
    "batch steps" (Some 3)
    (Metrics.find_counter snap "ensemble.batch_steps");
  (match Metrics.find_timer snap "ensemble.step{tenant=globex}" with
  | Some ts -> Alcotest.(check int) "globex step timer count" 3 ts.t_count
  | None -> Alcotest.fail "missing per-tenant step timer");
  (* Merging snapshots from two engine processes: same tenant adds,
     distinct tenants stay distinct. *)
  let other = Metrics.create () in
  Metrics.Counter.add
    (Metrics.counter ~registry:other ~labels:[ ("tenant", "acme") ]
       "ensemble.members_stepped")
    10;
  Metrics.Counter.add
    (Metrics.counter ~registry:other ~labels:[ ("tenant", "initech") ]
       "ensemble.members_stepped")
    7;
  let merged = Metrics.merge snap (Metrics.snapshot other) in
  Alcotest.(check (option int))
    "merge adds same tenant" (Some 16)
    (Metrics.find_counter merged "ensemble.members_stepped{tenant=acme}");
  Alcotest.(check (option int))
    "merge keeps distinct tenant" (Some 7)
    (Metrics.find_counter merged "ensemble.members_stepped{tenant=initech}");
  Alcotest.(check (option int))
    "unlabeled untouched" (Some 3)
    (Metrics.find_counter merged "ensemble.batch_steps")

let test_labeled_name () =
  let open Mpas_obs in
  Alcotest.(check string)
    "keys sorted" "x{a=1,b=2}"
    (Metrics.labeled_name "x" [ ("b", "2"); ("a", "1") ]);
  Alcotest.(check string) "no labels" "x" (Metrics.labeled_name "x" []);
  let name, labels = Metrics.parse_labeled "x{a=1,b=2}" in
  Alcotest.(check string) "parse base" "x" name;
  Alcotest.(check (list (pair string string)))
    "parse labels"
    [ ("a", "1"); ("b", "2") ]
    labels;
  Alcotest.check_raises "structural char rejected"
    (Invalid_argument "Metrics.labeled_name: label value \"a,b\" contains ','")
    (fun () -> ignore (Metrics.labeled_name "x" [ ("k", "a,b") ]))

let () =
  Alcotest.run "ensemble"
    [
      ( "bit-identity",
        [
          Alcotest.test_case "icosahedral batch vs solo" `Quick
            test_bit_identity_ico;
          Alcotest.test_case "planar-hex batch vs solo" `Quick
            test_bit_identity_hex;
          Alcotest.test_case "all executor modes" `Quick
            test_modes_bit_identical;
          Alcotest.test_case "mixed switches, partial block, quarantine"
            `Quick test_mixed_batch_bitwise;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "NaN quarantine" `Quick test_quarantine;
          Alcotest.test_case "quarantine reports the first finding" `Quick
            test_quarantine_first_finding;
          Alcotest.test_case "QCheck member isolation" `Quick
            test_member_isolation_qcheck;
        ] );
      ( "serving",
        [
          Alcotest.test_case "target -> done" `Quick test_target_done;
          Alcotest.test_case "evict and reuse" `Quick test_evict_and_reuse;
          Alcotest.test_case "evict then resubmit reuses the slot" `Quick
            test_evict_resubmit_reuses_slot;
          Alcotest.test_case "rotated member shares the CSR" `Quick
            test_rotated_member_shares_csr;
          Alcotest.test_case "submit validation messages" `Quick
            test_submit_validation;
        ] );
      ( "spec",
        [
          Alcotest.test_case "well-formed member-axis programs" `Quick
            test_spec_well_formed;
          Alcotest.test_case "blocks share no slots" `Quick
            test_task_accesses_block_disjoint;
        ] );
      ( "obs",
        [
          Alcotest.test_case "per-tenant counters and merge" `Quick
            test_tenant_metrics_and_merge;
          Alcotest.test_case "labeled names" `Quick test_labeled_name;
        ] );
    ]
