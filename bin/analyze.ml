(* Static-analysis and sanitizer lint driver: runs the checker suite
   over both mesh families and exits nonzero on any violation.

   1. registry inference — every Table I instance's inferred
      read/write sets (shadow instrumentation through the runtime's
      own compiled closures) must match its declarations, in CSR
      full-range, index-set and split-part modes;
   2. fused inference — every chain the fusing planner packs must
      write every member's declared outputs and read nothing beyond
      the union of the members' declarations, in full-range and
      split-part modes;
   3. bounds audit — every unsafe-indexed site of the CSR kernels must
      be discharged by the mesh's validated CSR invariants;
   4. schedule races — compiled phase programs for each placement plan
      must order every conflicting task pair, and a live executor log
      must replay clean;
   5. overlapped distributed schedules — the comm-extended phase
      programs of the overlapped halo-exchange driver must pass the
      same structural and race checks, their pack/transfer/unpack
      bodies must move exactly the declared ghosts, and a stolen live
      run must replay clean;
   6. live-tsan — the online vector-clock race monitor rides a fused
      Steal-mode run end to end: zero violations, bit-identical
      result, and a seeded hazard-edge drop must be caught;
   7. explore — the bounded interleaving explorer proves the deque and
      wakeup protocol models clean up to the preemption bound and
      catches every seeded protocol bug;
   8. bounds-coverage — the bounds catalog audits itself: every entry
      live and in-bounds on a real mesh, every unsafe source site
      catalogued, and seeded defects in both directions flagged.

   Sections run lazily; `--only SECTION` (repeatable, prefix match)
   selects a subset — CI shards the suite across parallel jobs this
   way. *)

open Cmdliner
module Jsonv = Mpas_obs.Jsonv
module A = Mpas_analysis

type section = {
  sec_name : string;
  sec_mesh : string;
  sec_checks : int;
  sec_failures : string list;
}

let inference_failures reports =
  List.concat_map
    (fun (r : A.Infer.report) ->
      List.map
        (fun v ->
          Printf.sprintf "%s/%s [%s]: %s" r.A.Infer.r_instance
            (match r.A.Infer.r_phase with
            | `Early -> "early"
            | `Final -> "final")
            (A.Infer.mode_name r.A.Infer.r_mode)
            (A.Infer.violation_message v))
        r.A.Infer.r_violations)
    (A.Infer.failed reports)

let registry_section mesh_name probe =
  let reports = A.Infer.check_registry probe in
  {
    sec_name = "registry-inference";
    sec_mesh = mesh_name;
    sec_checks = List.length reports;
    sec_failures = inference_failures reports;
  }

(* Every chain the fusing planner packs, compiled through Bind to the
   Operators chain loops: its inferred footprint must be the union of
   its members' declarations, with every member output written. *)
let fused_section mesh_name probe =
  let reports = A.Infer.check_fused_spec probe in
  {
    sec_name = "fused-inference";
    sec_mesh = mesh_name;
    sec_checks = List.length reports;
    sec_failures = inference_failures reports;
  }

let bounds_section mesh_name mesh =
  let reports = A.Bounds.audit mesh in
  let failures =
    List.map
      (fun (r : A.Bounds.site_report) ->
        match r.A.Bounds.sr_verdict with
        | A.Bounds.Refuted invs ->
            Printf.sprintf "%s: %s" (A.Bounds.site_name r.A.Bounds.sr_site)
              (String.concat "; " (List.map A.Bounds.invariant_name invs))
        | A.Bounds.Proved _ -> assert false)
      (A.Bounds.refuted reports)
  in
  {
    sec_name = "bounds-audit";
    sec_mesh = mesh_name;
    sec_checks = List.length reports;
    sec_failures = failures;
  }

let plans =
  [
    ("no-plan", None);
    ("kernel-level", Some Mpas_hybrid.Plan.kernel_level);
    ("pattern-driven", Some Mpas_hybrid.Plan.pattern_driven);
  ]

let split = 0.4

let races_section mesh_name probe (plan_name, plan) =
  let spec = Mpas_runtime.Spec.build ?plan ~split ~recon:true () in
  let early_footprints, final_footprints = A.Infer.spec_footprints probe spec in
  let prs = A.Races.check_spec ~early_footprints ~final_footprints spec in
  let failures =
    List.concat_map
      (fun (pr : A.Races.phase_races) ->
        List.map
          (fun r ->
            Printf.sprintf "%s phase: %s"
              (match pr.A.Races.pr_phase with
              | `Early -> "early"
              | `Final -> "final")
              (A.Races.race_message r))
          pr.A.Races.pr_races)
      prs
  in
  let n_pairs phase =
    let n = Array.length phase.Mpas_runtime.Spec.tasks in
    n * (n - 1) / 2
  in
  {
    sec_name = "static-races:" ^ plan_name;
    sec_mesh = mesh_name;
    sec_checks =
      n_pairs spec.Mpas_runtime.Spec.early
      + n_pairs spec.Mpas_runtime.Spec.final;
    sec_failures = failures;
  }

(* Drive the real engine for a few steps and replay its log: every
   task exactly once, every edge respected, no conflicting overlap.
   The spec checked against is the one the engine actually compiled
   ([Engine.program]), so fused and tiled programs replay too. *)
let replay_with ~tag ~mode ?(fuse = false) ?(tiling = `Off) ~domains mesh_name
    mesh probe =
  let plan = Mpas_hybrid.Plan.pattern_driven in
  let steps = 2 in
  let log : Mpas_runtime.Exec.log = ref [] in
  let entries = ref 0 and issues = ref [] in
  Mpas_par.Pool.with_pool ~n_domains:domains (fun pool ->
      let eng =
        Mpas_runtime.Engine.create ~mode ~pool ~plan ~split ~fuse ~tiling ~log
          ()
      in
      let model =
        Mpas_swe.Model.init
          ~engine:(Mpas_runtime.Engine.timestep_engine eng)
          Mpas_swe.Williamson.Tc5 mesh
      in
      (* One warm-up-free prime of the footprints is impossible before
         the engine compiled its program, so run step 1, then fetch the
         spec and check both steps' logs. *)
      let spec = ref None in
      let footprints = ref ([||], [||]) in
      (* sequence counters restart every run_phase call, so the log is
         drained and checked one step at a time *)
      for _ = 1 to steps do
        Mpas_swe.Model.run model ~steps:1;
        (match !spec with
        | Some _ -> ()
        | None ->
            let s = Option.get (Mpas_runtime.Engine.program eng) in
            spec := Some s;
            footprints := A.Infer.spec_footprints probe s);
        let s = Option.get !spec in
        let early_footprints, final_footprints = !footprints in
        entries := !entries + List.length !log;
        issues :=
          !issues
          @ A.Races.check_log ~spec:s ~early_footprints ~final_footprints !log;
        log := []
      done);
  {
    sec_name =
      Printf.sprintf "log-replay:%s(%d steps, %d entries)" tag steps !entries;
    sec_mesh = mesh_name;
    sec_checks = !entries;
    sec_failures = List.map A.Races.issue_message !issues;
  }

let replay_section mesh_name mesh probe =
  replay_with ~tag:"pattern-driven" ~mode:Mpas_runtime.Exec.Async ~domains:2
    mesh_name mesh probe

(* The same replay over a stolen schedule of fused super-tasks: the
   work-stealing executor's logs must order every conflicting pair
   exactly like the sorted-queue executor's. *)
let steal_replay_section mesh_name mesh probe =
  replay_with ~tag:"steal-fused" ~mode:Mpas_runtime.Exec.Steal ~fuse:true
    ~domains:4 mesh_name mesh probe

(* Overlapped distributed schedules (Mpas_dist.Overlap): structural
   well-formedness, race freedom of the comm-extended program under
   the declared region footprints, and a self-test that seeding a
   missing unpack -> consumer edge is actually caught (so a clean
   verdict means something). *)
let dist_static_section mesh_name mesh =
  let d = Mpas_dist.Driver.init ~n_ranks:3 Mpas_swe.Williamson.Tc5 mesh in
  let ov = Mpas_dist.Overlap.of_driver d in
  let spec = Mpas_dist.Overlap.spec ov in
  let structural = Mpas_runtime.Spec.check spec in
  let prs = A.Comm.check_spec ov in
  let race_failures =
    List.concat_map
      (fun (pr : A.Races.phase_races) ->
        List.map
          (fun r ->
            Printf.sprintf "%s phase: %s"
              (match pr.A.Races.pr_phase with
              | `Early -> "early"
              | `Final -> "final")
              (A.Races.race_message r))
          pr.A.Races.pr_races)
      prs
  in
  let early_footprints, _ = A.Comm.footprints ov in
  let phase = spec.Mpas_runtime.Spec.early in
  let unpack_edges =
    List.filter
      (fun (src, dst) ->
        (match phase.Mpas_runtime.Spec.tasks.(src).Mpas_runtime.Spec.kind with
        | Mpas_runtime.Spec.Unpack _ -> true
        | _ -> false)
        && phase.Mpas_runtime.Spec.tasks.(dst).Mpas_runtime.Spec.kind
           = Mpas_runtime.Spec.Compute)
      (A.Races.edges phase)
  in
  let caught =
    List.length
      (List.filter
         (fun (src, dst) ->
           List.exists
             (fun (r : A.Races.race) -> r.A.Races.ra = src && r.A.Races.rb = dst)
             (A.Races.check_phase ~footprints:early_footprints
                (A.Races.drop_edge phase ~src ~dst)))
         unpack_edges)
  in
  let selftest_failures =
    if unpack_edges = [] then [ "no unpack -> consumer edges to self-test" ]
    else if caught = 0 then
      [
        Printf.sprintf
          "self-test: %d seeded unpack-edge drops, none reported as a race"
          (List.length unpack_edges);
      ]
    else []
  in
  let n_pairs phase =
    let n = Array.length phase.Mpas_runtime.Spec.tasks in
    n * (n - 1) / 2
  in
  {
    sec_name = "dist-overlap-static";
    sec_mesh = mesh_name;
    sec_checks =
      n_pairs spec.Mpas_runtime.Spec.early
      + n_pairs spec.Mpas_runtime.Spec.final
      + List.length unpack_edges;
    sec_failures = structural @ race_failures @ selftest_failures;
  }

(* The compiled pack/transfer/unpack closures must move exactly the
   ghosts the exchange maps declare — run each chain over an encoded
   shadow state. *)
let dist_bodies_section mesh_name mesh =
  let d = Mpas_dist.Driver.init ~n_ranks:3 Mpas_swe.Williamson.Tc5 mesh in
  let ov = Mpas_dist.Overlap.of_driver d in
  let failures = A.Comm.verify_bodies ov in
  {
    sec_name = "dist-overlap-bodies";
    sec_mesh = mesh_name;
    sec_checks = Mpas_mesh.Mesh.(mesh.n_cells + mesh.n_edges + mesh.n_vertices);
    sec_failures = failures;
  }

(* Live replay of the overlapped driver on the work-stealing executor:
   every comm and compute task exactly once per substep, all edges
   respected, no conflicting overlap. *)
let dist_replay_section mesh_name mesh =
  let steps = 2 in
  let log : Mpas_runtime.Exec.log = ref [] in
  let entries = ref 0 and issues = ref [] in
  Mpas_par.Pool.with_pool ~n_domains:4 (fun pool ->
      let d = Mpas_dist.Driver.init ~n_ranks:3 Mpas_swe.Williamson.Tc5 mesh in
      let ov =
        Mpas_dist.Overlap.of_driver ~mode:Mpas_runtime.Exec.Steal ~pool ~log d
      in
      for _ = 1 to steps do
        Mpas_dist.Overlap.step ov;
        entries := !entries + List.length !log;
        issues := !issues @ A.Comm.check_log ov !log;
        log := []
      done);
  {
    sec_name =
      Printf.sprintf "dist-overlap-replay:steal(%d steps, %d entries)" steps
        !entries;
    sec_mesh = mesh_name;
    sec_checks = !entries;
    sec_failures = List.map A.Races.issue_message !issues;
  }

(* Ensemble member-axis programs: structural well-formedness of the
   compiled block-chain phases, race freedom under the engine's
   declared block-qualified slot accesses, and a self-test that
   severing a chain edge between two conflicting tasks of one block is
   actually caught. *)
let ens_static_section mesh_name mesh =
  let e = Mpas_ensemble.Ensemble.create ~capacity:8 ~block:2 mesh in
  let spec = Mpas_ensemble.Ensemble.spec e in
  let structural = Mpas_runtime.Spec.check spec in
  let race_failures =
    List.concat_map
      (fun (pr : A.Races.phase_races) ->
        List.map
          (fun r ->
            Printf.sprintf "%s phase: %s"
              (match pr.A.Races.pr_phase with
              | `Early -> "early"
              | `Final -> "final")
              (A.Races.race_message r))
          pr.A.Races.pr_races)
      (A.Ens.check_spec e)
  in
  (* self-test: drop each block-0 chain edge; at least one severed
     pair must surface as a race, or a clean verdict proves nothing *)
  let phase = spec.Mpas_runtime.Spec.early in
  let footprints = A.Ens.footprints e `Early in
  let nk = phase.Mpas_runtime.Spec.n_levels in
  let chain_edges =
    List.filter (fun (src, dst) -> src < nk && dst < nk) (A.Races.edges phase)
  in
  let caught =
    List.length
      (List.filter
         (fun (src, dst) ->
           List.exists
             (fun (r : A.Races.race) -> r.A.Races.ra = src && r.A.Races.rb = dst)
             (A.Races.check_phase ~footprints
                (A.Races.drop_edge phase ~src ~dst)))
         chain_edges)
  in
  let selftest_failures =
    if chain_edges = [] then [ "no block-chain edges to self-test" ]
    else if caught = 0 then
      [
        Printf.sprintf
          "self-test: %d seeded chain-edge drops, none reported as a race"
          (List.length chain_edges);
      ]
    else []
  in
  let n_pairs phase =
    let n = Array.length phase.Mpas_runtime.Spec.tasks in
    n * (n - 1) / 2
  in
  {
    sec_name = "ensemble-static";
    sec_mesh = mesh_name;
    sec_checks =
      n_pairs spec.Mpas_runtime.Spec.early
      + n_pairs spec.Mpas_runtime.Spec.final
      + List.length chain_edges;
    sec_failures = structural @ race_failures @ selftest_failures;
  }

(* Live replay of a stolen ensemble batch (three perturbed Williamson
   members): every block task exactly once per substep, chain edges
   respected, no conflicting overlap between member blocks. *)
let ens_replay_section mesh_name mesh =
  let steps = 2 in
  let log : Mpas_runtime.Exec.log = ref [] in
  let entries = ref 0 and issues = ref [] in
  Mpas_par.Pool.with_pool ~n_domains:4 (fun pool ->
      let e =
        Mpas_ensemble.Ensemble.create ~capacity:8 ~block:2
          ~mode:Mpas_runtime.Exec.Steal ~pool ~log mesh
      in
      List.iter
        (fun (case, config) ->
          ignore (Mpas_ensemble.Ensemble.submit_case e ~config case))
        [
          (Mpas_swe.Williamson.Tc5, Mpas_swe.Config.default);
          ( Mpas_swe.Williamson.Tc2,
            { Mpas_swe.Config.default with h_adv_order = Mpas_swe.Config.Second }
          );
          ( Mpas_swe.Williamson.Tc6,
            { Mpas_swe.Config.default with visc2 = 1e3 } );
        ];
      for _ = 1 to steps do
        Mpas_ensemble.Ensemble.step e ();
        entries := !entries + List.length !log;
        issues := !issues @ A.Ens.check_log e !log;
        log := []
      done);
  {
    sec_name =
      Printf.sprintf "ensemble-replay:steal(%d steps, %d entries)" steps
        !entries;
    sec_mesh = mesh_name;
    sec_checks = !entries;
    sec_failures = List.map A.Races.issue_message !issues;
  }

(* Serving-layer recovery lint: drive the server under several seeded
   fault schedules.  Every job must either complete bit-identically to
   its fault-free solo reference or be reported [Failed] with a reason
   — a wedged queue or silent corruption is a failure.  A schedule
   that never forces a restore proves nothing, so across the seeds at
   least one checkpoint restore is also required. *)
let server_recovery_section mesh_name mesh =
  let module S = Mpas_server.Server in
  let module F = Mpas_server.Fault in
  let module Metrics = Mpas_obs.Metrics in
  let steps = 6 in
  let requests =
    [
      ("acme", S.High, Mpas_swe.Williamson.Tc5, Mpas_swe.Config.default);
      ( "acme",
        S.Normal,
        Mpas_swe.Williamson.Tc2,
        { Mpas_swe.Config.default with h_adv_order = Mpas_swe.Config.Second } );
      ( "beta",
        S.Normal,
        Mpas_swe.Williamson.Tc6,
        { Mpas_swe.Config.default with pv_average = Mpas_swe.Config.Edge_only }
      );
      ("beta", S.Low, Mpas_swe.Williamson.Tc2_rotated, Mpas_swe.Config.default);
    ]
  in
  let reference =
    let cache = Hashtbl.create 8 in
    fun case config ->
      match Hashtbl.find_opt cache (case, config) with
      | Some st -> st
      | None ->
          let model =
            Mpas_swe.Model.init ~config ~engine:Mpas_swe.Timestep.refactored
              case mesh
          in
          Mpas_swe.Model.run model ~steps;
          Hashtbl.add cache (case, config) model.Mpas_swe.Model.state;
          model.Mpas_swe.Model.state
  in
  let same a b =
    Array.for_all2
      (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
      a b
  in
  let seeds = [ 3; 41; 2026 ] in
  let failures = ref [] and checks = ref 0 and restores = ref 0 in
  let failf fmt = Printf.ksprintf (fun s -> failures := !failures @ [ s ]) fmt in
  List.iter
    (fun seed ->
      let registry = Metrics.create () in
      let fault = F.plan ~ticks:10 ~events:4 ~seed () in
      let srv =
        S.create ~registry ~capacity:2 ~block:1 ~queue_limit:8
          ~checkpoint_every:2 ~max_retries:4 ~fault mesh
      in
      let ids =
        List.filter_map
          (fun (tenant, priority, case, config) ->
            match S.submit srv ~tenant ~priority ~config ~steps case with
            | Ok id -> Some (id, tenant, case, config)
            | Error r ->
                failf "seed %d: clean submit rejected: %s" seed
                  (S.reject_message r);
                None)
          requests
      in
      if not (S.drain srv ~max_ticks:500 ()) then
        failf "seed %d: queue did not drain in 500 ticks (plan [%s])" seed
          (F.to_string fault);
      List.iter
        (fun (id, tenant, case, config) ->
          incr checks;
          let info = S.query srv id in
          match info.S.jb_status with
          | S.Completed -> (
              match S.result srv id with
              | Some got ->
                  let want = reference case config in
                  if
                    not
                      (same want.Mpas_swe.Fields.h got.Mpas_swe.Fields.h
                      && same want.Mpas_swe.Fields.u got.Mpas_swe.Fields.u)
                  then
                    failf
                      "seed %d: job %d (%s) completed but diverged from its \
                       fault-free reference"
                      seed id tenant
              | None -> failf "seed %d: job %d completed without a result" seed id)
          | S.Failed reason when reason <> "" -> ()
          | s ->
              failf "seed %d: job %d (%s) ended %s, expected completed or \
                     failed-with-reason"
                seed id tenant (S.status_name s))
        ids;
      match Metrics.find_counter (Metrics.snapshot registry) "server.restores" with
      | Some n -> restores := !restores + n
      | None -> ())
    seeds;
  incr checks;
  if !restores = 0 then
    failf "no seed forced a checkpoint restore; the lint proved nothing";
  {
    sec_name = Printf.sprintf "server-recovery(%d seeds)" (List.length seeds);
    sec_mesh = mesh_name;
    sec_checks = !checks;
    sec_failures = !failures;
  }

(* Online race monitor (Analysis.Tsan) riding a live fused Steal-mode
   run: happens-before comes solely from the compiled DAG's edges (the
   clocks are task-indexed, so a lucky serial schedule cannot mask a
   missing edge), and every retired task's footprint is checked
   against unordered shadow accesses.  The monitored run must stay
   bit-identical to the sequential reference driver and report zero
   violations; a seeded hazard-edge drop replayed with no-op bodies
   must be caught naming the pair, or the clean verdict proves
   nothing. *)
(* The hex family has no Williamson case: drive it from a
   geostrophically balanced f-plane state (the runtime tests' hex
   reference flow). *)
let init_model ~engine (mesh : Mpas_mesh.Mesh.t) =
  match mesh.Mpas_mesh.Mesh.geometry with
  | Mpas_mesh.Mesh.Sphere _ ->
      Mpas_swe.Model.init ~engine Mpas_swe.Williamson.Tc5 mesh
  | Mpas_mesh.Mesh.Plane _ ->
      let module Vec3 = Mpas_numerics.Vec3 in
      let f = 1e-4
      and g = Mpas_swe.Config.default.Mpas_swe.Config.gravity in
      let flow = Vec3.make 5. 2. 0. in
      let slope = Vec3.scale (-.(f /. g)) (Vec3.cross Vec3.ez flow) in
      let h =
        Array.init mesh.Mpas_mesh.Mesh.n_cells (fun c ->
            1000. +. Vec3.dot slope mesh.Mpas_mesh.Mesh.x_cell.(c))
      in
      let u =
        Array.init mesh.Mpas_mesh.Mesh.n_edges (fun e ->
            Vec3.dot flow mesh.Mpas_mesh.Mesh.edge_normal.(e))
      in
      Mpas_swe.Model.of_state ~engine ~dt:5.
        ~b:(Array.make mesh.Mpas_mesh.Mesh.n_cells 0.)
        mesh
        { Mpas_swe.Fields.h; u; tracers = [||] }

let live_tsan_section mesh_name mesh probe =
  let steps = 10 in
  let failures = ref [] in
  let failf fmt = Printf.ksprintf (fun s -> failures := !failures @ [ s ]) fmt in
  let tasks_seen = ref 0 in
  Mpas_par.Pool.with_pool ~n_domains:4 (fun pool ->
      let eng =
        Mpas_runtime.Engine.create ~mode:Mpas_runtime.Exec.Steal ~pool
          ~plan:Mpas_hybrid.Plan.pattern_driven ~split ~fuse:true ()
      in
      let engine = Mpas_runtime.Engine.timestep_engine eng in
      (* compile the program on a scratch model, then monitor a fresh
         run against footprints inferred from that program *)
      let scratch = init_model ~engine mesh in
      Mpas_swe.Model.run scratch ~steps:1;
      let spec = Option.get (Mpas_runtime.Engine.program eng) in
      let early_footprints, final_footprints =
        A.Infer.spec_footprints probe spec
      in
      let tsan = A.Tsan.create ~spec ~early_footprints ~final_footprints () in
      let model = init_model ~engine mesh in
      A.Tsan.with_monitor tsan (fun () -> Mpas_swe.Model.run model ~steps);
      List.iter
        (fun v -> failures := !failures @ [ A.Tsan.violation_message v ])
        (A.Tsan.violations tsan);
      tasks_seen := A.Tsan.tasks_seen tsan;
      if A.Tsan.phase_runs tsan = 0 then failf "monitor saw no phase runs";
      let reference = init_model ~engine:Mpas_swe.Timestep.refactored mesh in
      Mpas_swe.Model.run reference ~steps;
      let same a b =
        Array.for_all2
          (fun x y ->
            Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
          a b
      in
      let got = model.Mpas_swe.Model.state
      and want = reference.Mpas_swe.Model.state in
      if
        not
          (same want.Mpas_swe.Fields.h got.Mpas_swe.Fields.h
          && same want.Mpas_swe.Fields.u got.Mpas_swe.Fields.u)
      then failf "monitored steal run diverged from the sequential reference");
  (* seeded self-test: drop a hazard edge that leaves a conflicting
     pair unordered and replay the early phase with no-op bodies — the
     monitor must name that pair even though the sequential schedule
     never overlaps them *)
  let spec0 = Mpas_runtime.Spec.build ~split ~recon:true () in
  let early_fp, final_fp = A.Infer.spec_footprints probe spec0 in
  let phase0 = spec0.Mpas_runtime.Spec.early in
  let all_edges = A.Races.edges phase0 in
  let seeded =
    List.filter_map
      (fun (src, dst) ->
        let dropped = A.Races.drop_edge phase0 ~src ~dst in
        if
          List.exists
            (fun (r : A.Races.race) -> r.A.Races.ra = src && r.A.Races.rb = dst)
            (A.Races.check_phase ~footprints:early_fp dropped)
        then Some (src, dst, dropped)
        else None)
      all_edges
  in
  (match seeded with
  | [] ->
      failf
        "self-test: no hazard-edge drop leaves a conflicting pair unordered"
  | (src, dst, dropped) :: _ ->
      let mutated = { spec0 with Mpas_runtime.Spec.early = dropped } in
      let tsan =
        A.Tsan.create ~spec:mutated ~early_footprints:early_fp
          ~final_footprints:final_fp ()
      in
      let bodies =
        Array.make
          (Array.length dropped.Mpas_runtime.Spec.tasks)
          (fun () -> ())
      in
      A.Tsan.with_monitor tsan (fun () ->
          Mpas_runtime.Exec.run_phase ~mode:Mpas_runtime.Exec.Sequential
            ~pool:None ~host_lanes:1 ~phase:`Early ~substep:0
            ~instrument:(fun _ body -> body ())
            dropped bodies);
      let names_pair = function
        | A.Tsan.Race r ->
            (r.A.Tsan.rc_a = src && r.A.Tsan.rc_b = dst)
            || (r.A.Tsan.rc_a = dst && r.A.Tsan.rc_b = src)
        | _ -> false
      in
      if not (List.exists names_pair (A.Tsan.violations tsan)) then
        failf "self-test: dropped edge %d -> %d not reported as a race" src dst);
  {
    sec_name = Printf.sprintf "live-tsan:steal-fused(%d steps)" steps;
    sec_mesh = mesh_name;
    sec_checks = !tasks_seen + List.length all_edges + 1;
    sec_failures = !failures;
  }

(* Bounded interleaving exploration of the runtime's concurrency
   protocols, at model level and fully deterministic: the unseeded
   models must come back clean without truncation (a proof up to the
   preemption bound), and every seeded protocol bug — a dropped CAS, a
   mis-ordered wakeup version read, skipped broadcasts — must be
   caught. *)
let explore_section () =
  let module E = A.Explore in
  let correct =
    [ E.Models.chase_lev (); E.Models.steal_wakeup (); E.Models.async_exec () ]
  in
  let seeded =
    [
      E.Models.chase_lev ~bug:E.Models.Drop_last_cas ();
      E.Models.async_exec ~bug:E.Models.Drop_enable_signal ();
      E.Models.steal_wakeup ~bug:E.Models.Drop_version_check ();
      E.Models.steal_wakeup ~bug:E.Models.Drop_spread_broadcast ();
      E.Models.steal_wakeup ~bug:E.Models.Drop_retire_broadcast ();
    ]
  in
  let failures = ref [] in
  let failf fmt = Printf.ksprintf (fun s -> failures := !failures @ [ s ]) fmt in
  let schedules = ref 0 in
  List.iter
    (fun m ->
      let oc = E.run m in
      schedules := !schedules + oc.E.oc_schedules;
      (match oc.E.oc_error with
      | Some _ -> failures := !failures @ [ E.outcome_message oc ]
      | None -> ());
      if oc.E.oc_truncated then
        failf "%s: truncated at %d schedules; clean but not a proof"
          oc.E.oc_model oc.E.oc_schedules)
    correct;
  List.iter
    (fun m ->
      let oc = E.run m in
      schedules := !schedules + oc.E.oc_schedules;
      if oc.E.oc_error = None then
        failf "seeded bug survived: %s clean over %d schedules" oc.E.oc_model
          oc.E.oc_schedules)
    seeded;
  {
    sec_name = "explore(pb=2)";
    sec_mesh = "(model)";
    sec_checks = !schedules;
    sec_failures = !failures;
  }

(* The bounds catalog auditing itself, both directions.  Coverage:
   interpret every entry's index shape over the live mesh — an entry
   that enumerates no indices, can't resolve its array, or lands out
   of bounds fails.  Scan: every [Array.unsafe_*] site in the kernel
   sources must map to a catalog entry and vice versa.  Both
   directions are seeded with a deliberate defect that must be
   flagged. *)
let bounds_coverage_section ~src_root mesh_name mesh =
  let failures = ref [] in
  let failf fmt = Printf.ksprintf (fun s -> failures := !failures @ [ s ]) fmt in
  let cov = A.Bounds.coverage mesh in
  List.iter
    (fun (c : A.Bounds.coverage) ->
      if A.Bounds.cv_dead c || c.A.Bounds.cv_oob > 0 then
        failures := !failures @ [ A.Bounds.coverage_message c ])
    cov;
  (* seeded dead entry: a table no mesh provides *)
  let bogus =
    {
      (List.hd A.Bounds.catalog) with
      A.Bounds.s_kernel = "selftest";
      s_array = "no_such_table";
      s_index = A.Bounds.Loaded { table = "no_such_table"; space = A.Bounds.Cells };
    }
  in
  (match A.Bounds.coverage ~sites:[ bogus ] mesh with
  | [ c ] when A.Bounds.cv_dead c -> ()
  | _ -> failf "self-test: bogus catalog entry not flagged dead");
  let n_scan = ref 0 in
  (match src_root with
  | None ->
      failf "kernel sources not found for the scan audit; pass --src-root"
  | Some root ->
      let sources = A.Bounds.default_sources ~root in
      n_scan :=
        List.fold_left
          (fun acc (p, f) -> acc + List.length (A.Bounds.scan_file ~prefix:p f))
          0 sources;
      List.iter
        (fun g -> failures := !failures @ [ A.Bounds.scan_gap_message g ])
        (A.Bounds.scan_audit ~sources A.Bounds.catalog);
      (* seeded gap: hide one kernel's entries from the catalog *)
      let victim = "tend_h" in
      let holey =
        List.filter
          (fun (s : A.Bounds.site) -> s.A.Bounds.s_kernel <> victim)
          A.Bounds.catalog
      in
      let caught =
        List.exists
          (function
            | A.Bounds.Uncatalogued sc -> sc.A.Bounds.sc_kernel = victim
            | A.Bounds.Unscanned _ -> false)
          (A.Bounds.scan_audit ~sources holey)
      in
      if not caught then
        failf "self-test: hiding kernel %S left no uncatalogued gap" victim);
  {
    sec_name = "bounds-coverage";
    sec_mesh = mesh_name;
    sec_checks = List.length cov + !n_scan + 2;
    sec_failures = !failures;
  }

(* The section catalog: (selector key, thunk) pairs.  Meshes and
   probes are shared lazily so `--only` pays only for what it runs.
   The heavy live-replay sections run on the icosahedral family only,
   as before. *)
let section_catalog ~src_root () =
  let hex =
    lazy (Mpas_mesh.Planar_hex.create ~f:1e-4 ~nx:6 ~ny:4 ~dc:1000. ())
  in
  let ico = lazy (Mpas_mesh.Build.icosahedral ~level:1 ~lloyd_iters:2 ()) in
  let hex_probe = lazy (A.Infer.create (Lazy.force hex)) in
  let ico_probe = lazy (A.Infer.create (Lazy.force ico)) in
  let per name mesh probe heavy =
    [
      ("registry-inference", fun () -> registry_section name (Lazy.force probe));
      ("fused-inference", fun () -> fused_section name (Lazy.force probe));
      ("bounds-audit", fun () -> bounds_section name (Lazy.force mesh));
      ( "bounds-coverage",
        fun () -> bounds_coverage_section ~src_root name (Lazy.force mesh) );
      ("ensemble-static", fun () -> ens_static_section name (Lazy.force mesh));
      ( "live-tsan",
        fun () -> live_tsan_section name (Lazy.force mesh) (Lazy.force probe) );
    ]
    @ List.map
        (fun ((plan_name, _) as p) ->
          ( "static-races:" ^ plan_name,
            fun () -> races_section name (Lazy.force probe) p ))
        plans
    @
    if not heavy then []
    else
      [
        ( "log-replay:pattern-driven",
          fun () -> replay_section name (Lazy.force mesh) (Lazy.force probe) );
        ( "log-replay:steal-fused",
          fun () ->
            steal_replay_section name (Lazy.force mesh) (Lazy.force probe) );
        ("dist-overlap-static", fun () -> dist_static_section name (Lazy.force mesh));
        ("dist-overlap-bodies", fun () -> dist_bodies_section name (Lazy.force mesh));
        ("dist-overlap-replay", fun () -> dist_replay_section name (Lazy.force mesh));
        ("ensemble-replay", fun () -> ens_replay_section name (Lazy.force mesh));
        ("server-recovery", fun () -> server_recovery_section name (Lazy.force mesh));
      ]
  in
  per "planar-hex-6x4" hex hex_probe false
  @ per "icosahedral-l1" ico ico_probe true
  @ [ ("explore", fun () -> explore_section ()) ]

(* Auto-detect the repository root for the source scan: analyze runs
   from the project root in CI but from _build subdirectories under
   `dune exec`, so probe upward. *)
let detect_src_root () =
  List.find_opt
    (fun d -> Sys.file_exists (Filename.concat d "lib/swe/operators.ml"))
    [ "."; ".."; "../.."; "../../.."; "../../../.."; "../../../../.." ]

let json_of_section s =
  Jsonv.Obj
    [
      ("section", Jsonv.Str s.sec_name);
      ("mesh", Jsonv.Str s.sec_mesh);
      ("checks", Jsonv.Num (float_of_int s.sec_checks));
      ( "failures",
        Jsonv.Arr (List.map (fun f -> Jsonv.Str f) s.sec_failures) );
    ]

let run json only src_root_opt =
  let src_root =
    match src_root_opt with Some _ -> src_root_opt | None -> detect_src_root ()
  in
  let catalog = section_catalog ~src_root () in
  let selected =
    match only with
    | [] -> catalog
    | prefixes ->
        let unmatched =
          List.filter
            (fun p ->
              not
                (List.exists
                   (fun (k, _) -> String.starts_with ~prefix:p k)
                   catalog))
            prefixes
        in
        List.iter
          (fun p -> Printf.eprintf "analyze: --only %s matches no section\n" p)
          unmatched;
        if unmatched <> [] then exit 2;
        List.filter
          (fun (k, _) ->
            List.exists (fun p -> String.starts_with ~prefix:p k) prefixes)
          catalog
  in
  let secs = List.map (fun (_, thunk) -> thunk ()) selected in
  let ok = List.for_all (fun s -> s.sec_failures = []) secs in
  if json then
    print_endline
      (Jsonv.to_string
         (Jsonv.Obj
            [
              ("ok", Jsonv.Bool ok);
              ("sections", Jsonv.Arr (List.map json_of_section secs));
            ]))
  else begin
    List.iter
      (fun s ->
        Printf.printf "%-28s %-16s %5d checks  %s\n" s.sec_name s.sec_mesh
          s.sec_checks
          (if s.sec_failures = [] then "ok"
           else Printf.sprintf "%d FAILURES" (List.length s.sec_failures));
        List.iter (fun f -> Printf.printf "    %s\n" f) s.sec_failures)
      secs;
    print_endline
      (if ok then "analyze: all checks passed"
       else "analyze: FAILURES found")
  end;
  if ok then 0 else 1

let json =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit a machine-readable JSON report.")

let only =
  Arg.(
    value & opt_all string []
    & info [ "only" ] ~docv:"SECTION"
        ~doc:
          "Run only sections whose name starts with $(docv); repeatable.  CI \
           shards the suite across jobs with this.")

let src_root =
  Arg.(
    value
    & opt (some dir) None
    & info [ "src-root" ] ~docv:"DIR"
        ~doc:
          "Repository root holding the kernel sources for the bounds source \
           scan (default: auto-detected by probing upward for \
           lib/swe/operators.ml).")

let cmd =
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Footprint analyzer and sanitizer suite: registry access inference, \
          unsafe CSR bounds audit (with self-audit), schedule race check, \
          overlapped distributed-schedule lint, online vector-clock race \
          monitoring, bounded interleaving exploration")
    Term.(const run $ json $ only $ src_root)

let () = exit (Cmd.eval' cmd)
