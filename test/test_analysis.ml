(* The footprint analyzer: inference must certify the real registry
   clean and catch seeded drift; the bounds auditor must prove every
   unsafe site on valid meshes and refute them on corrupted CSR views;
   the race detector must certify compiled specs and live executor
   logs and notice a deleted hazard edge; the online vector-clock
   monitor must ride live stolen runs clean and catch a seeded
   hazard-edge drop; the interleaving explorer must prove the protocol
   models and catch every seeded protocol bug; and the bounds catalog
   must audit itself (coverage + source scan) in both directions. *)

open Mpas_mesh
open Mpas_par
open Mpas_swe
open Mpas_patterns
open Mpas_runtime
open Mpas_analysis

let hex = lazy (Planar_hex.create ~f:1e-4 ~nx:6 ~ny:4 ~dc:1000. ())
let ico = lazy (Build.icosahedral ~level:1 ~lloyd_iters:2 ())
let probe = lazy (Infer.create (Lazy.force hex))
let probe_ico = lazy (Infer.create (Lazy.force ico))

(* --- footprint primitives ----------------------------------------------- *)

let test_iset () =
  let s = Footprint.Iset.create 8 in
  Alcotest.(check bool) "empty" true (Footprint.Iset.is_empty s);
  Footprint.Iset.add s 3;
  Footprint.Iset.add s 3;
  Footprint.Iset.add s 5;
  Alcotest.(check int) "cardinal" 2 (Footprint.Iset.cardinal s);
  Alcotest.(check (list int)) "elements" [ 3; 5 ] (Footprint.Iset.elements s);
  Alcotest.(check string) "summary" "2/8" (Footprint.Iset.summary s);
  let t = Footprint.Iset.of_list 8 [ 5; 7 ] in
  Alcotest.(check bool) "overlap" false (Footprint.Iset.inter_empty s t);
  let d = Footprint.Iset.of_list 8 [ 0; 1 ] in
  Alcotest.(check bool) "disjoint" true (Footprint.Iset.inter_empty s d);
  let u = Footprint.Iset.union s d in
  Alcotest.(check int) "union" 4 (Footprint.Iset.cardinal u)

let test_conflicts () =
  let fp vals =
    let f = Footprint.create () in
    List.iter
      (fun (name, rw, i) ->
        (match rw with
        | `R -> Footprint.read f ~name ~point:Pattern.Mass ~size:8 i
        | `W -> Footprint.write f ~name ~point:Pattern.Mass ~size:8 i))
      vals;
    f
  in
  let names a b =
    List.map Footprint.conflict_name (Footprint.conflicts a b)
  in
  let w = fp [ ("x", `W, 2) ] and r = fp [ ("x", `R, 2) ] in
  Alcotest.(check (list string)) "raw" [ "RAW on x" ] (names w r);
  Alcotest.(check (list string)) "war" [ "WAR on x" ] (names r w);
  Alcotest.(check (list string)) "waw" [ "WAW on x" ] (names w w);
  (* same array, disjoint cells: no hazard *)
  let r' = fp [ ("x", `R, 5) ] in
  Alcotest.(check (list string)) "disjoint cells" [] (names w r');
  Alcotest.(check bool) "conflicting" true (Footprint.conflicting w r)

(* --- registry inference ------------------------------------------------- *)

let test_registry_clean () =
  let failed = Infer.failed (Infer.check_registry (Lazy.force probe)) in
  let render (r : Infer.report) =
    Printf.sprintf "%s[%s]: %s" r.Infer.r_instance
      (Infer.mode_name r.Infer.r_mode)
      (String.concat "; "
         (List.map Infer.violation_message r.Infer.r_violations))
  in
  Alcotest.(check (list string))
    "every instance matches its Table I declaration" []
    (List.map render failed)

let instance id =
  List.find (fun i -> i.Pattern.id = id) Registry.instances

let drift inst =
  Infer.check_instance (Lazy.force probe) ~final:false ~mode:Infer.Csr inst

let test_drift_missing_input () =
  let a1 = instance "A1" in
  let vs =
    drift
      { a1 with Pattern.inputs = List.filter (( <> ) "h_edge") a1.Pattern.inputs }
  in
  Alcotest.(check bool)
    "undeclared read of diag.h_edge flagged" true
    (List.mem (Infer.Undeclared_read "diag.h_edge") vs)

let test_drift_extra_input () =
  let a1 = instance "A1" in
  let vs = drift { a1 with Pattern.inputs = "vorticity" :: a1.Pattern.inputs } in
  Alcotest.(check bool)
    "phantom input flagged" true
    (List.mem (Infer.Unread_input "vorticity") vs)

let test_drift_missing_output () =
  let a1 = instance "A1" in
  let vs = drift { a1 with Pattern.outputs = [] } in
  Alcotest.(check bool)
    "undeclared write of tend.tend_h flagged" true
    (List.mem (Infer.Undeclared_write "tend.tend_h") vs)

let test_drift_extra_output () =
  let a1 = instance "A1" in
  let vs = drift { a1 with Pattern.outputs = "ke" :: a1.Pattern.outputs } in
  Alcotest.(check bool)
    "phantom output flagged" true
    (List.mem (Infer.Unwritten_output "ke") vs)

(* --- fused super-task inference ----------------------------------------- *)

let test_fused_clean () =
  let failed = Infer.failed (Infer.check_fused_spec (Lazy.force probe)) in
  let render (r : Infer.report) =
    Printf.sprintf "%s[%s]: %s" r.Infer.r_instance
      (Infer.mode_name r.Infer.r_mode)
      (String.concat "; "
         (List.map Infer.violation_message r.Infer.r_violations))
  in
  Alcotest.(check (list string))
    "every fused chain matches the union of its members' declarations" []
    (List.map render failed)

let test_fused_dropped_member_caught () =
  (* Seed the bug the check exists for: a planner that claims the
     vortex chain [D1; C2; D2] but compiles a body running only
     [D1; C2].  D2's declared output (pv_vertex) is never written, and
     its external declared inputs are never read. *)
  let d1 = instance "D1" and c2 = instance "C2" and d2 = instance "D2" in
  let vs =
    Infer.check_fused ~body:[ d1; c2 ]
      (Lazy.force probe) ~final:false ~mode:Infer.Csr [ d1; c2; d2 ]
  in
  Alcotest.(check bool)
    "dropped member's write set flagged" true
    (List.mem (Infer.Unwritten_output "D2:pv_vertex") vs);
  (* And the converse seeding: a body that runs an extra member the
     task does not declare shows up as undeclared writes. *)
  let vs' =
    Infer.check_fused ~body:[ d1; c2; d2 ]
      (Lazy.force probe) ~final:false ~mode:Infer.Csr [ d1; c2 ]
  in
  Alcotest.(check bool)
    "undeclared write of diag.pv_vertex flagged" true
    (List.mem (Infer.Undeclared_write "diag.pv_vertex") vs')

(* --- bounds auditor ----------------------------------------------------- *)

let test_bounds_clean () =
  List.iter
    (fun (name, m) ->
      let reports = Bounds.audit (Lazy.force m) in
      Alcotest.(check bool)
        (name ^ ": a real catalog") true
        (List.length reports > 80);
      Alcotest.(check (list string))
        (name ^ ": every unsafe site proved") []
        (List.map
           (fun (r : Bounds.site_report) -> Bounds.site_name r.Bounds.sr_site)
           (Bounds.refuted reports));
      (* only the runtime check_len guards remain as assumptions *)
      List.iter
        (fun (r : Bounds.site_report) ->
          match r.Bounds.sr_verdict with
          | Bounds.Proved { assumptions } ->
              Alcotest.(check bool)
                (name ^ ": assumptions are guards only")
                true
                (List.for_all Bounds.is_assumption assumptions)
          | Bounds.Refuted _ -> ())
        reports)
    [ ("hex", hex); ("ico", ico) ]

let copy_csr (c : Mesh.csr) =
  {
    c with
    Mesh.cell_edges = Array.copy c.Mesh.cell_edges;
    eoe_offsets = Array.copy c.Mesh.eoe_offsets;
  }

let test_bounds_out_of_range () =
  let m = Lazy.force hex in
  let bad = copy_csr (m.Mesh.csr) in
  bad.Mesh.cell_edges.(0) <- m.Mesh.n_edges;
  let refuted = Bounds.refuted (Bounds.audit ~csr:bad m) in
  Alcotest.(check bool) "some sites refuted" true (refuted <> []);
  (* exactly the loads through cell_edges lose their proof *)
  List.iter
    (fun (r : Bounds.site_report) ->
      match r.Bounds.sr_verdict with
      | Bounds.Refuted invs ->
          Alcotest.(check bool)
            (Bounds.site_name r.Bounds.sr_site ^ " refuted by cell_edges range")
            true
            (List.for_all
               (function
                 | Bounds.In_range_ok { table = "cell_edges"; _ } -> true
                 | _ -> false)
               invs)
      | Bounds.Proved _ -> ())
    refuted;
  let kernels =
    List.sort_uniq compare
      (List.map
         (fun (r : Bounds.site_report) -> r.Bounds.sr_site.Bounds.s_kernel)
         refuted)
  in
  Alcotest.(check bool)
    "kinetic_energy_at's u load is among them" true
    (List.mem "kinetic_energy_at" kernels)

let test_bounds_offsets_drift () =
  let m = Lazy.force hex in
  let bad = copy_csr (m.Mesh.csr) in
  let n = Array.length bad.Mesh.eoe_offsets in
  bad.Mesh.eoe_offsets.(n - 1) <- bad.Mesh.eoe_offsets.(n - 1) + 1;
  let refuted = Bounds.refuted (Bounds.audit ~csr:bad m) in
  Alcotest.(check bool) "some sites refuted" true (refuted <> []);
  let arrays =
    List.sort_uniq compare
      (List.map
         (fun (r : Bounds.site_report) -> r.Bounds.sr_site.Bounds.s_array)
         refuted)
  in
  (* the rows of the eoe tables are no longer covered by the offsets,
     and the malformed offsets table loses its own shape proof *)
  Alcotest.(check (list string))
    "exactly the eoe walks" [ "eoe_edges"; "eoe_offsets"; "eoe_weights" ]
    arrays

(* --- schedule races ----------------------------------------------------- *)

let plans =
  [
    ("none", None);
    ("kernel-level", Some Mpas_hybrid.Plan.kernel_level);
    ("pattern-driven", Some Mpas_hybrid.Plan.pattern_driven);
  ]

let test_static_clean () =
  let probe = Lazy.force probe in
  List.iter
    (fun (pname, plan) ->
      List.iter
        (fun split ->
          let spec = Spec.build ?plan ~split ~recon:true () in
          let early_footprints, final_footprints =
            Infer.spec_footprints probe spec
          in
          let prs = Races.check_spec ~early_footprints ~final_footprints spec in
          let msgs =
            List.concat_map
              (fun (pr : Races.phase_races) ->
                List.map Races.race_message pr.Races.pr_races)
              prs
          in
          Alcotest.(check (list string))
            (Printf.sprintf "%s/split %.1f race-free" pname split)
            [] msgs)
        [ 0.3; 0.5; 0.7 ])
    plans

let test_dropped_edge_caught () =
  let probe = Lazy.force probe in
  let spec = Spec.build ~recon:true () in
  let early_footprints, final_footprints = Infer.spec_footprints probe spec in
  let caught = ref 0 and checked = ref 0 in
  List.iter
    (fun (phase, footprints) ->
      List.iter
        (fun (src, dst) ->
          incr checked;
          let races =
            Races.check_phase ~footprints (Races.drop_edge phase ~src ~dst)
          in
          if
            List.exists
              (fun (r : Races.race) -> r.Races.ra = src && r.Races.rb = dst)
              races
          then incr caught)
        (Races.edges phase))
    [
      (spec.Spec.early, early_footprints);
      (spec.Spec.final, final_footprints);
    ];
  Alcotest.(check bool)
    (Printf.sprintf
       "deleting a hazard edge is noticed (%d of %d edges load-bearing)"
       !caught !checked)
    true (!caught > 0)

(* --- live log replay ---------------------------------------------------- *)

let replay_clean (n_domains, (pname, split)) =
  (* a single lane cannot serve device-class tasks *)
  let plan = if n_domains < 2 then None else List.assoc pname plans in
  let m = Lazy.force ico in
  let spec = Spec.build ?plan ~split ~recon:true () in
  let early_footprints, final_footprints =
    Infer.spec_footprints (Lazy.force probe_ico) spec
  in
  let log : Exec.log = ref [] in
  Pool.with_pool ~n_domains (fun pool ->
      let eng =
        Engine.create ~mode:Exec.Async ~pool ?plan ~split ~log ()
      in
      let model =
        Model.init ~engine:(Engine.timestep_engine eng) Williamson.Tc5 m
      in
      Model.run model ~steps:1);
  !log <> []
  && Races.check_log ~spec ~early_footprints ~final_footprints !log = []

let prop_replay_clean =
  QCheck.Test.make ~name:"executor logs replay race-free" ~count:6
    QCheck.(
      pair
        (oneofl [ 1; 2; 4 ])
        (pair
           (oneofl [ "none"; "kernel-level"; "pattern-driven" ])
           (oneofl [ 0.3; 0.5; 0.7 ])))
    replay_clean

(* --- communication-extended schedules (Mpas_dist.Overlap) --------------- *)

let overlap_of ?mode ?pool ?log ~n_ranks ~depth () =
  let m = Lazy.force ico in
  let d = Mpas_dist.Driver.init ~n_ranks Williamson.Tc5 m in
  Mpas_dist.Overlap.of_driver ?mode ?pool ?log ~depth d

let test_comm_spec_clean () =
  List.iter
    (fun (n_ranks, depth) ->
      let ov = overlap_of ~n_ranks ~depth () in
      let name = Printf.sprintf "%d ranks, depth %d" n_ranks depth in
      Alcotest.(check (list string))
        (name ^ ": structurally well formed")
        []
        (Spec.check (Mpas_dist.Overlap.spec ov));
      Alcotest.(check bool)
        (name ^ ": comm-extended program race-free under declared footprints")
        true
        (Races.spec_clean (Comm.check_spec ov)))
    [ (1, 1); (2, 1); (4, 1); (3, 2) ]

let test_comm_bodies_verified () =
  List.iter
    (fun n_ranks ->
      let ov = overlap_of ~n_ranks ~depth:1 () in
      Alcotest.(check (list string))
        (Printf.sprintf
           "%d ranks: comm chains move exactly the declared ghosts" n_ranks)
        []
        (Comm.verify_bodies ov))
    [ 2; 4 ]

let test_comm_dropped_unpack_edge_caught () =
  (* Seed the violation the comm footprints exist for: delete an
     unpack -> consumer edge and the static checker must flag the pair
     (unless transitivity still covers it through another chain). *)
  let ov = overlap_of ~n_ranks:2 ~depth:1 () in
  let early_fp, _ = Comm.footprints ov in
  let phase = (Mpas_dist.Overlap.spec ov).Spec.early in
  let unpack_edges =
    List.filter
      (fun (src, dst) ->
        (match phase.Spec.tasks.(src).Spec.kind with
        | Spec.Unpack _ -> true
        | _ -> false)
        && phase.Spec.tasks.(dst).Spec.kind = Spec.Compute)
      (Races.edges phase)
  in
  let caught = ref 0 in
  List.iter
    (fun (src, dst) ->
      let races =
        Races.check_phase ~footprints:early_fp
          (Races.drop_edge phase ~src ~dst)
      in
      if
        List.exists
          (fun (r : Races.race) -> r.Races.ra = src && r.Races.rb = dst)
          races
      then incr caught)
    unpack_edges;
  Alcotest.(check bool)
    (Printf.sprintf "dropped unpack->consumer edges caught (%d of %d)" !caught
       (List.length unpack_edges))
    true
    (List.length unpack_edges > 0 && !caught > 0)

let test_comm_log_replay_steal () =
  (* An overlapped stolen schedule must replay clean: every comm and
     compute task exactly once per substep, all edges respected, no
     conflicting overlap. *)
  let log : Exec.log = ref [] in
  let issues = ref [] in
  let entries = ref 0 in
  Pool.with_pool ~n_domains:4 (fun pool ->
      let ov = overlap_of ~mode:Exec.Steal ~pool ~log ~n_ranks:3 ~depth:1 () in
      for _ = 1 to 2 do
        Mpas_dist.Overlap.step ov;
        entries := !entries + List.length !log;
        issues := !issues @ Comm.check_log ov !log;
        log := []
      done);
  Alcotest.(check bool) "log nonempty" true (!entries > 0);
  Alcotest.(check (list string))
    "overlapped stolen schedule replays clean" []
    (List.map Races.issue_message !issues)

(* --- ensemble member-axis programs -------------------------------------- *)

let ensemble_engine ?mode ?pool ?log m =
  let open Mpas_ensemble in
  let e = Ensemble.create ?mode ?pool ?log ~capacity:8 ~block:2 m in
  let b = Array.make m.Mesh.n_cells 0. in
  let st =
    {
      Fields.h = Array.make m.Mesh.n_cells 1000.;
      u = Array.make m.Mesh.n_edges 0.1;
      tracers = [||];
    }
  in
  List.iter
    (fun config -> ignore (Ensemble.submit e ~config ~dt:5. ~b st))
    [
      Config.default;
      { Config.default with h_adv_order = Config.Second };
      { Config.default with visc2 = 1e3; bottom_drag = 1e-6 };
    ];
  e

let test_ens_static_clean () =
  List.iter
    (fun (name, m) ->
      let e = ensemble_engine (Lazy.force m) in
      let races = Ens.check_spec e in
      Alcotest.(check (list string))
        (name ^ ": member axis race-free") []
        (List.concat_map
           (fun (pr : Races.phase_races) ->
             List.map Races.race_message pr.Races.pr_races)
           races))
    [ ("hex", hex); ("ico", ico) ]

let test_ens_dropped_edge_caught () =
  (* Deleting the chain edge between a block's tend_u and dissipation
     tasks leaves two unordered tasks updating the same block slot —
     the checker must notice, proving the chain edges are load-bearing
     rather than vacuously consistent. *)
  let e = ensemble_engine (Lazy.force hex) in
  let sp = Mpas_ensemble.Ensemble.spec e in
  let fps = Ens.footprints e `Early in
  Alcotest.(check (list string))
    "intact chain clean" []
    (List.map Races.race_message (Races.check_phase ~footprints:fps sp.Spec.early));
  let mutated = Races.drop_edge sp.Spec.early ~src:1 ~dst:2 in
  let races = Races.check_phase ~footprints:fps mutated in
  Alcotest.(check bool) "dropped edge caught" true (races <> []);
  Alcotest.(check bool)
    "the race is the severed pair" true
    (List.exists (fun (r : Races.race) -> r.Races.ra = 1 && r.Races.rb = 2) races)

let test_ens_log_replay () =
  (* A stolen member-axis schedule must replay clean: every block task
     exactly once per substep, chain edges respected, no conflicting
     overlap between blocks. *)
  let log : Exec.log = ref [] in
  let issues = ref [] in
  let entries = ref 0 in
  Pool.with_pool ~n_domains:4 (fun pool ->
      let e =
        ensemble_engine ~mode:Exec.Steal ~pool ~log (Lazy.force hex)
      in
      for _ = 1 to 2 do
        Mpas_ensemble.Ensemble.step e ();
        entries := !entries + List.length !log;
        issues := !issues @ Ens.check_log e !log;
        log := []
      done);
  Alcotest.(check bool) "log nonempty" true (!entries > 0);
  Alcotest.(check (list string))
    "stolen ensemble schedule replays clean" []
    (List.map Races.issue_message !issues)

(* --- online race monitor (Tsan over task-indexed vector clocks) --------- *)

let test_vclock () =
  let a = Vclock.create 3 and b = Vclock.create 3 in
  Alcotest.(check bool) "initially unobserved" false (Vclock.observed a 1);
  Vclock.tick b 1;
  Alcotest.(check bool) "zero leq ticked" true (Vclock.leq a b);
  Alcotest.(check bool) "ticked not leq zero" false (Vclock.leq b a);
  Vclock.join a b;
  Alcotest.(check bool) "observed after join" true (Vclock.observed a 1);
  Vclock.tick a 0;
  Alcotest.(check bool) "incomparable after own tick" false (Vclock.leq a b)

(* The monitor riding the real engine: a fused split Steal-mode run
   must finish bit-identical to the sequential reference with zero
   online violations — cross-validating the DAG-derived happens-before
   against the bit-identity battery. *)
let test_tsan_engine_bit_identical () =
  let m = Lazy.force ico in
  let steps = 3 in
  let monitored = ref None in
  Pool.with_pool ~n_domains:4 (fun pool ->
      let eng =
        Engine.create ~mode:Exec.Steal ~pool
          ~plan:Mpas_hybrid.Plan.pattern_driven ~split:0.4 ~fuse:true ()
      in
      let engine = Engine.timestep_engine eng in
      (* compile on a scratch model, monitor a fresh run *)
      let scratch = Model.init ~engine Williamson.Tc5 m in
      Model.run scratch ~steps:1;
      let spec = Option.get (Engine.program eng) in
      let early_footprints, final_footprints =
        Infer.spec_footprints (Lazy.force probe_ico) spec
      in
      let tsan = Tsan.create ~spec ~early_footprints ~final_footprints () in
      let model = Model.init ~engine Williamson.Tc5 m in
      Tsan.with_monitor tsan (fun () -> Model.run model ~steps);
      Alcotest.(check (list string))
        "no online violations" []
        (List.map Tsan.violation_message (Tsan.violations tsan));
      Alcotest.(check bool) "phases monitored" true (Tsan.phase_runs tsan > 0);
      Alcotest.(check bool) "tasks monitored" true (Tsan.tasks_seen tsan > 0);
      monitored := Some model.Model.state);
  let reference = Model.init ~engine:Timestep.refactored Williamson.Tc5 m in
  Model.run reference ~steps;
  let got = Option.get !monitored in
  let bits_equal xs ys =
    Array.for_all2
      (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
      xs ys
  in
  Alcotest.(check bool)
    "monitored run bit-identical to sequential reference" true
    (bits_equal reference.Model.state.Fields.h got.Fields.h
    && bits_equal reference.Model.state.Fields.u got.Fields.u)

let test_tsan_overlap_clean () =
  Pool.with_pool ~n_domains:4 (fun pool ->
      let ov = overlap_of ~mode:Exec.Steal ~pool ~n_ranks:3 ~depth:1 () in
      let early_footprints, final_footprints = Comm.footprints ov in
      let tsan =
        Tsan.create
          ~spec:(Mpas_dist.Overlap.spec ov)
          ~early_footprints ~final_footprints ()
      in
      Tsan.with_monitor tsan (fun () ->
          for _ = 1 to 2 do
            Mpas_dist.Overlap.step ov
          done);
      Alcotest.(check (list string))
        "overlapped stolen run race-free online" []
        (List.map Tsan.violation_message (Tsan.violations tsan));
      Alcotest.(check bool) "tasks monitored" true (Tsan.tasks_seen tsan > 0))

let test_tsan_ensemble_clean () =
  Pool.with_pool ~n_domains:4 (fun pool ->
      let e = ensemble_engine ~mode:Exec.Steal ~pool (Lazy.force hex) in
      let tsan =
        Tsan.create
          ~spec:(Mpas_ensemble.Ensemble.spec e)
          ~early_footprints:(Ens.footprints e `Early)
          ~final_footprints:(Ens.footprints e `Final)
          ()
      in
      Tsan.with_monitor tsan (fun () ->
          for _ = 1 to 2 do
            Mpas_ensemble.Ensemble.step e ()
          done);
      Alcotest.(check (list string))
        "stolen ensemble run race-free online" []
        (List.map Tsan.violation_message (Tsan.violations tsan));
      Alcotest.(check bool) "tasks monitored" true (Tsan.tasks_seen tsan > 0))

let test_tsan_seeded_race_caught () =
  (* Drop a hazard edge that leaves a conflicting pair unordered, then
     replay the phase with no-op bodies on the sequential executor.
     The schedule never overlaps the pair — log replay would stay
     silent — but the clocks derive happens-before from the DAG alone,
     so the monitor must still name the pair. *)
  let spec = Spec.build ~recon:true () in
  let early_fp, final_fp = Infer.spec_footprints (Lazy.force probe) spec in
  let phase = spec.Spec.early in
  let seeded =
    List.filter_map
      (fun (src, dst) ->
        let dropped = Races.drop_edge phase ~src ~dst in
        if
          List.exists
            (fun (r : Races.race) -> r.Races.ra = src && r.Races.rb = dst)
            (Races.check_phase ~footprints:early_fp dropped)
        then Some (src, dst, dropped)
        else None)
      (Races.edges phase)
  in
  match seeded with
  | [] -> Alcotest.fail "no hazard-edge drop leaves a conflicting pair"
  | (src, dst, dropped) :: _ ->
      let mutated = { spec with Spec.early = dropped } in
      let tsan =
        Tsan.create ~spec:mutated ~early_footprints:early_fp
          ~final_footprints:final_fp ()
      in
      let bodies =
        Array.make (Array.length dropped.Spec.tasks) (fun () -> ())
      in
      Tsan.with_monitor tsan (fun () ->
          Exec.run_phase ~mode:Exec.Sequential ~pool:None ~host_lanes:1
            ~phase:`Early ~substep:0
            ~instrument:(fun _ body -> body ())
            dropped bodies);
      Alcotest.(check bool)
        (Printf.sprintf "race on severed pair %d, %d reported" src dst)
        true
        (List.exists
           (function
             | Tsan.Race r ->
                 (r.Tsan.rc_a = src && r.Tsan.rc_b = dst)
                 || (r.Tsan.rc_a = dst && r.Tsan.rc_b = src)
             | _ -> false)
           (Tsan.violations tsan))

(* --- bounded interleaving explorer -------------------------------------- *)

let test_explore_models_clean () =
  List.iter
    (fun m ->
      let oc = Explore.run m in
      Alcotest.(check (option string))
        (oc.Explore.oc_model ^ " clean") None oc.Explore.oc_error;
      Alcotest.(check bool)
        (oc.Explore.oc_model ^ " exhaustive within bound")
        false oc.Explore.oc_truncated;
      Alcotest.(check bool)
        (oc.Explore.oc_model ^ " explores many schedules")
        true
        (oc.Explore.oc_schedules > 1))
    [
      Explore.Models.chase_lev ();
      Explore.Models.steal_wakeup ();
      Explore.Models.async_exec ();
    ]

let test_explore_seeded_bugs_caught () =
  List.iter
    (fun m ->
      let oc = Explore.run m in
      Alcotest.(check bool)
        (Printf.sprintf "%s caught in %d schedules" oc.Explore.oc_model
           oc.Explore.oc_schedules)
        true
        (oc.Explore.oc_error <> None);
      Alcotest.(check bool)
        (oc.Explore.oc_model ^ " failing trace reported")
        true
        (oc.Explore.oc_trace <> []))
    [
      Explore.Models.chase_lev ~bug:Explore.Models.Drop_last_cas ();
      Explore.Models.async_exec ~bug:Explore.Models.Drop_enable_signal ();
      Explore.Models.steal_wakeup ~bug:Explore.Models.Drop_version_check ();
      Explore.Models.steal_wakeup ~bug:Explore.Models.Drop_spread_broadcast ();
      Explore.Models.steal_wakeup ~bug:Explore.Models.Drop_retire_broadcast ();
    ]

let test_explore_bound_matters () =
  (* The lost-wakeup window needs one preemption to open: bound 0
     misses the seeded version-check bug, bound 1 catches it —
     evidence the preemption budget is live, not decorative. *)
  let bug () =
    Explore.Models.steal_wakeup ~bug:Explore.Models.Drop_version_check ()
  in
  let at pb = (Explore.run ~preemption_bound:pb (bug ())).Explore.oc_error in
  Alcotest.(check (option string)) "bound 0 misses the window" None (at 0);
  Alcotest.(check bool) "bound 1 catches it" true (at 1 <> None)

(* --- bounds catalog self-audit ------------------------------------------ *)

let test_bounds_coverage_live () =
  List.iter
    (fun (name, m) ->
      let cov = Bounds.coverage (Lazy.force m) in
      Alcotest.(check bool)
        (name ^ ": the full catalog is interpreted")
        true
        (List.length cov = List.length Bounds.catalog);
      Alcotest.(check (list string))
        (name ^ ": no dead or out-of-bounds entries")
        []
        (List.filter_map
           (fun (c : Bounds.coverage) ->
             if Bounds.cv_dead c || c.Bounds.cv_oob > 0 then
               Some (Bounds.coverage_message c)
             else None)
           cov))
    [ ("hex", hex); ("ico", ico) ]

let test_bounds_coverage_selftest () =
  let bogus =
    {
      (List.hd Bounds.catalog) with
      Bounds.s_kernel = "selftest";
      s_array = "no_such_table";
      s_index = Bounds.Loaded { table = "no_such_table"; space = Bounds.Cells };
    }
  in
  match Bounds.coverage ~sites:[ bogus ] (Lazy.force hex) with
  | [ c ] ->
      Alcotest.(check bool) "bogus entry flagged dead" true (Bounds.cv_dead c)
  | _ -> Alcotest.fail "expected exactly one coverage row"

let src_root =
  lazy
    (List.find_opt
       (fun d -> Sys.file_exists (Filename.concat d "lib/swe/operators.ml"))
       [ "."; ".."; "../.."; "../../.."; "../../../.." ])

let test_bounds_scan_audit () =
  match Lazy.force src_root with
  | None -> Alcotest.fail "kernel sources not reachable from the test cwd"
  | Some root ->
      let sources = Bounds.default_sources ~root in
      Alcotest.(check (list string))
        "every unsafe source site catalogued, every entry live" []
        (List.map Bounds.scan_gap_message
           (Bounds.scan_audit ~sources Bounds.catalog));
      (* seeded gap: hide one kernel's entries *)
      let holey =
        List.filter
          (fun (s : Bounds.site) -> s.Bounds.s_kernel <> "tend_h")
          Bounds.catalog
      in
      Alcotest.(check bool)
        "hidden kernel reported uncatalogued" true
        (List.exists
           (function
             | Bounds.Uncatalogued sc -> sc.Bounds.sc_kernel = "tend_h"
             | Bounds.Unscanned _ -> false)
           (Bounds.scan_audit ~sources holey))

(* A site inside an attributed top-level body belongs to that body,
   not to the binding before it; an indented local [let[@inline]]
   opens nothing. *)
let test_bounds_scan_attributed_let () =
  let path = Filename.temp_file "scan" ".ml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc
            (String.concat "\n"
               [
                 "let plain a i = Array.unsafe_get a i";
                 "let[@inline always] body_at offsets x i =";
                 "  Array.unsafe_get x (Array.unsafe_get offsets i)";
                 "let rec[@inline] loop y i = Array.unsafe_set y i 0.";
                 "let kernel out =";
                 "  let[@inline always] at i = Array.unsafe_set out i 1. in";
                 "  at 0";
                 "";
               ]));
      let got =
        List.map
          (fun (s : Bounds.scan_site) ->
            (s.Bounds.sc_kernel, s.Bounds.sc_array, s.Bounds.sc_line))
          (Bounds.scan_file ~prefix:"p." path)
      in
      Alcotest.(check (list (triple string string int)))
        "sites attributed to their enclosing top-level binding"
        [
          ("p.plain", "a", 1);
          ("p.body_at", "x", 3);
          ("p.body_at", "offsets", 3);
          ("p.loop", "y", 4);
          ("p.kernel", "out", 6);
        ]
        got)

(* Run QCheck properties under an explicit seed, printed on failure so
   shrunk counterexamples reproduce: set QCHECK_SEED to replay a
   failing run. *)
let qcheck_with_seed tests =
  let seed =
    match Sys.getenv_opt "QCHECK_SEED" with
    | Some s -> int_of_string s
    | None -> truncate (Unix.gettimeofday () *. 1000.)
  in
  List.map
    (fun t ->
      match t with
      | QCheck2.Test.Test cell ->
          let name = QCheck.Test.get_name cell in
          Alcotest.test_case name `Quick (fun () ->
              try
                QCheck.Test.check_cell_exn
                  ~rand:(Random.State.make [| seed |])
                  cell
              with e ->
                Printf.eprintf
                  "\n[qcheck] %s failed; reproduce with QCHECK_SEED=%d\n%!" name
                  seed;
                raise e))
    tests

let () =
  Alcotest.run "analysis"
    [
      ( "footprint",
        [
          Alcotest.test_case "iset" `Quick test_iset;
          Alcotest.test_case "conflicts" `Quick test_conflicts;
        ] );
      ( "inference",
        [
          Alcotest.test_case "registry clean" `Quick test_registry_clean;
          Alcotest.test_case "missing input caught" `Quick
            test_drift_missing_input;
          Alcotest.test_case "extra input caught" `Quick test_drift_extra_input;
          Alcotest.test_case "missing output caught" `Quick
            test_drift_missing_output;
          Alcotest.test_case "extra output caught" `Quick
            test_drift_extra_output;
          Alcotest.test_case "fused chains clean" `Quick test_fused_clean;
          Alcotest.test_case "fused dropped member caught" `Quick
            test_fused_dropped_member_caught;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "all sites proved" `Quick test_bounds_clean;
          Alcotest.test_case "out-of-range entry refutes" `Quick
            test_bounds_out_of_range;
          Alcotest.test_case "offsets drift refutes" `Quick
            test_bounds_offsets_drift;
        ] );
      ( "races",
        [
          Alcotest.test_case "specs race-free" `Quick test_static_clean;
          Alcotest.test_case "dropped hazard edge caught" `Quick
            test_dropped_edge_caught;
        ]
        @ qcheck_with_seed [ prop_replay_clean ] );
      ( "tsan",
        [
          Alcotest.test_case "vector clocks" `Quick test_vclock;
          Alcotest.test_case "engine run monitored bit-identical" `Quick
            test_tsan_engine_bit_identical;
          Alcotest.test_case "overlapped run monitored clean" `Quick
            test_tsan_overlap_clean;
          Alcotest.test_case "ensemble run monitored clean" `Quick
            test_tsan_ensemble_clean;
          Alcotest.test_case "seeded edge drop caught online" `Quick
            test_tsan_seeded_race_caught;
        ] );
      ( "explore",
        [
          Alcotest.test_case "protocol models proved clean" `Quick
            test_explore_models_clean;
          Alcotest.test_case "seeded protocol bugs caught" `Quick
            test_explore_seeded_bugs_caught;
          Alcotest.test_case "preemption bound is live" `Quick
            test_explore_bound_matters;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "catalog live on real meshes" `Quick
            test_bounds_coverage_live;
          Alcotest.test_case "bogus entry flagged dead" `Quick
            test_bounds_coverage_selftest;
          Alcotest.test_case "source scan agrees with catalog" `Quick
            test_bounds_scan_audit;
          Alcotest.test_case "source scan attributes attributed lets" `Quick
            test_bounds_scan_attributed_let;
        ] );
      ( "comm",
        [
          Alcotest.test_case "overlapped specs race-free" `Quick
            test_comm_spec_clean;
          Alcotest.test_case "comm bodies match declarations" `Quick
            test_comm_bodies_verified;
          Alcotest.test_case "dropped unpack edge caught" `Quick
            test_comm_dropped_unpack_edge_caught;
          Alcotest.test_case "stolen overlapped log replays clean" `Quick
            test_comm_log_replay_steal;
        ] );
      ( "ensemble",
        [
          Alcotest.test_case "member axis race-free" `Quick
            test_ens_static_clean;
          Alcotest.test_case "dropped chain edge caught" `Quick
            test_ens_dropped_edge_caught;
          Alcotest.test_case "stolen ensemble log replays clean" `Quick
            test_ens_log_replay;
        ] );
    ]
