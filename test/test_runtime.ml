open Mpas_numerics
open Mpas_mesh
open Mpas_par
open Mpas_swe
open Mpas_patterns
open Mpas_runtime

let ico = lazy (Build.icosahedral ~level:3 ~lloyd_iters:3 ())
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

let bits_equal xs ys =
  Array.length xs = Array.length ys
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       xs ys

let check_bit_identical name (a : Fields.state) (b : Fields.state) =
  Alcotest.(check bool) (name ^ ": h bit-identical") true
    (bits_equal a.Fields.h b.Fields.h);
  Alcotest.(check bool) (name ^ ": u bit-identical") true
    (bits_equal a.Fields.u b.Fields.u)

let with_optional_pool domains f =
  if domains <= 1 then f None
  else Pool.with_pool ~n_domains:domains (fun p -> f (Some p))

(* --- spec -------------------------------------------------------------- *)

let test_spec_well_formed () =
  List.iter
    (fun (name, s) ->
      Alcotest.(check (list string)) name [] (Spec.check s))
    [
      ("default", Spec.build ~recon:true ());
      ("no recon", Spec.build ~recon:false ());
      ( "pattern-driven 0.4",
        Spec.build ~plan:Mpas_hybrid.Plan.pattern_driven ~split:0.4
          ~recon:true () );
      ( "pattern-driven 0",
        Spec.build ~plan:Mpas_hybrid.Plan.pattern_driven ~split:0. ~recon:true
          () );
      ( "pattern-driven 1",
        Spec.build ~plan:Mpas_hybrid.Plan.pattern_driven ~split:1. ~recon:true
          () );
      ( "kernel-level",
        Spec.build ~plan:Mpas_hybrid.Plan.kernel_level ~recon:true () );
    ]

let test_spec_counts () =
  let s = Spec.build ~recon:true () in
  (* 21 registry instances minus A4/X6 early, minus X3 final. *)
  Alcotest.(check int) "early tasks" 19 (Array.length s.Spec.early.Spec.tasks);
  Alcotest.(check int) "final tasks" 20 (Array.length s.Spec.final.Spec.tasks);
  Alcotest.(check bool) "host only" false (Spec.uses_device s);
  (* pattern_driven marks 7 instances adjustable: each becomes 2 parts. *)
  let sp =
    Spec.build ~plan:Mpas_hybrid.Plan.pattern_driven ~split:0.4 ~recon:true ()
  in
  Alcotest.(check int) "early split tasks" 26
    (Array.length sp.Spec.early.Spec.tasks);
  Alcotest.(check int) "final split tasks" 27
    (Array.length sp.Spec.final.Spec.tasks);
  Alcotest.(check bool) "uses device" true (Spec.uses_device sp)

(* --- super-task fusion -------------------------------------------------- *)

let member_ids (p : Spec.phase) =
  List.concat_map
    (fun (tk : Spec.task) ->
      if tk.Spec.part = None || (match tk.Spec.part with
        | Some (f0, _) -> f0 = 0.
        | None -> true)
      then List.map (fun (m : Pattern.instance) -> m.Pattern.id) tk.Spec.members
      else [])
    (Array.to_list p.Spec.tasks)

let test_spec_fused_well_formed () =
  List.iter
    (fun (name, s) ->
      Alcotest.(check (list string)) name [] (Spec.check s))
    [
      ("fused", Spec.build ~fuse:true ~recon:true ());
      ("fused no recon", Spec.build ~fuse:true ~recon:false ());
      ("fused tiled", Spec.build ~fuse:true ~tile:(fun _ -> 3) ~recon:true ());
      ( "fused tiled split",
        Spec.build ~plan:Mpas_hybrid.Plan.pattern_driven ~split:0.4 ~fuse:true
          ~tile:(fun _ -> 3) ~recon:true () );
      ("tiled only", Spec.build ~tile:(fun _ -> 4) ~recon:true ());
    ]

let test_spec_fused_counts () =
  let s = Spec.build ~fuse:true ~recon:true () in
  (* The greedy packer collapses the 19/20 instances into 8/7 chains. *)
  Alcotest.(check int) "fused early tasks" 8
    (Array.length s.Spec.early.Spec.tasks);
  Alcotest.(check int) "fused final tasks" 7
    (Array.length s.Spec.final.Spec.tasks);
  (* No instance is dropped or duplicated by fusion. *)
  Alcotest.(check int) "early members" 19
    (List.length (member_ids s.Spec.early));
  Alcotest.(check int) "final members" 20
    (List.length (member_ids s.Spec.final));
  (* Every chain is legal under the dataflow fusion rules. *)
  let legal (tk : Spec.task) =
    let rec go chain = function
      | [] -> true
      | m :: rest ->
          Mpas_dataflow.Fusion.can_follow ~chain m && go (chain @ [ m ]) rest
    in
    match tk.Spec.members with [] -> false | first :: rest -> go [ first ] rest
  in
  Alcotest.(check bool) "chains legal" true
    (Array.for_all legal s.Spec.early.Spec.tasks
    && Array.for_all legal s.Spec.final.Spec.tasks);
  (* Tiling multiplies tasks without changing the member multiset. *)
  let st = Spec.build ~fuse:true ~tile:(fun _ -> 3) ~recon:true () in
  Alcotest.(check int) "tiled early tasks" 24
    (Array.length st.Spec.early.Spec.tasks);
  Alcotest.(check (list string))
    "tiled members match fused members"
    (List.sort compare (member_ids s.Spec.early))
    (List.sort compare (member_ids st.Spec.early))

let task_index (p : Spec.phase) id =
  let found = ref (-1) in
  Array.iteri
    (fun i (tk : Spec.task) ->
      if tk.Spec.instance.Pattern.id = id && tk.Spec.part = None then found := i)
    p.Spec.tasks;
  if !found < 0 then Alcotest.fail ("no full task for " ^ id);
  !found

let test_spec_hazard_edges () =
  (* The WAR edges the RAW diagram cannot carry: tend readers of the
     previous substep's diagnostics must finish before this substep's
     diagnostics overwrite them. *)
  let s = Spec.build ~recon:true () in
  let p = s.Spec.early in
  let edge a b =
    List.mem (task_index p a) p.Spec.tasks.(task_index p b).Spec.preds
  in
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool) (a ^ " before " ^ b) true (edge a b))
    [
      ("C1", "A3");  (* C1 reads old divergence; A3 rewrites it *)
      ("C1", "D1");  (* same for vorticity *)
      ("A1", "B2");  (* A1/B1 read old h_edge; B2 rewrites it *)
      ("B1", "B2");
      ("B1", "A2");  (* old ke *)
      ("B1", "F");   (* old pv_edge *)
      ("B1", "X3");  (* tend reads old provis; X3 rewrites it *)
      ("H2", "B2");  (* and a known RAW edge for contrast *)
      ("X3", "A2");  (* diagnostics wait for the new provisional state *)
    ]

let test_part_ranges_tile () =
  List.iter
    (fun n ->
      List.iter
        (fun f ->
          let a = Bind.part_range ~n (0., f)
          and b = Bind.part_range ~n (f, 1.) in
          Alcotest.(check int)
            (Printf.sprintf "n=%d f=%g tiles" n f)
            n
            (Span.cardinal a + Span.cardinal b);
          Alcotest.(check bool) "one span each" true
            (Span.spans a <= 1 && Span.spans b <= 1);
          if Span.cardinal a > 0 && Span.cardinal b > 0 then
            Alcotest.(check int) "contiguous" (Span.bound a) (Span.lo b 0))
        [ 0.1; 0.25; 0.4; 0.5; 0.9 ])
    [ 1; 7; 642; 1000 ]

(* --- bit-identity against the sequential reference ---------------------- *)

let check_matches_sequential ~name ~mk_model ~mode ?plan ?split ?host_lanes
    ?fuse ?tiling ~domains ~steps () =
  let reference = mk_model Timestep.refactored in
  Model.run reference ~steps;
  with_optional_pool domains (fun pool ->
      let eng =
        Engine.create ~mode ?pool ?plan ?split ?host_lanes ?fuse ?tiling ()
      in
      let model = mk_model (Engine.timestep_engine eng) in
      Model.run model ~steps;
      check_bit_identical name reference.Model.state model.Model.state)

let mk_ico engine = Model.init ~engine Williamson.Tc5 (Lazy.force ico)

let mk_hex engine =
  let m = Lazy.force hex in
  Model.of_state ~engine ~dt:5. ~b:(Array.make m.Mesh.n_cells 0.) m
    (hex_state m)

let test_ico_async_matches () =
  check_matches_sequential ~name:"ico async" ~mk_model:mk_ico ~mode:Exec.Async
    ~domains:4 ~steps:10 ()

let test_ico_split_matches () =
  check_matches_sequential ~name:"ico pattern-driven split" ~mk_model:mk_ico
    ~mode:Exec.Async ~plan:Mpas_hybrid.Plan.pattern_driven ~split:0.4
    ~host_lanes:2 ~domains:4 ~steps:10 ()

let test_hex_barrier_matches () =
  check_matches_sequential ~name:"hex barrier" ~mk_model:mk_hex
    ~mode:Exec.Barrier ~domains:2 ~steps:10 ()

let test_hex_split_matches () =
  check_matches_sequential ~name:"hex pattern-driven split" ~mk_model:mk_hex
    ~mode:Exec.Async ~plan:Mpas_hybrid.Plan.pattern_driven ~split:0.3
    ~domains:2 ~steps:10 ()

let test_sequential_mode_matches () =
  check_matches_sequential ~name:"sequential mode" ~mk_model:mk_ico
    ~mode:Exec.Sequential ~domains:1 ~steps:3 ()

let test_ico_fused_steal_tiled_matches () =
  (* The full optimisation stack — fused super-tasks, cache-block
     tiling, work-stealing lanes — must still be bit-identical to the
     sequential reference after 10 steps. *)
  check_matches_sequential ~name:"ico fused+steal+tiled" ~mk_model:mk_ico
    ~mode:Exec.Steal ~fuse:true ~tiling:(`Block 200) ~domains:4 ~steps:10 ()

let test_hex_fused_steal_tiled_matches () =
  check_matches_sequential ~name:"hex fused+steal+tiled" ~mk_model:mk_hex
    ~mode:Exec.Steal ~fuse:true ~tiling:(`Block 16) ~domains:4 ~steps:10 ()

let test_ico_fused_split_steal_matches () =
  (* Fusion and stealing under a hybrid plan with part tasks. *)
  check_matches_sequential ~name:"ico fused split steal" ~mk_model:mk_ico
    ~mode:Exec.Steal ~plan:Mpas_hybrid.Plan.pattern_driven ~split:0.4
    ~host_lanes:2 ~fuse:true ~tiling:`Auto ~domains:4 ~steps:10 ()

let test_determinism_across_pool_sizes () =
  List.iter
    (fun domains ->
      check_matches_sequential
        ~name:(Printf.sprintf "async %d domains" domains)
        ~mk_model:mk_ico ~mode:Exec.Async ~domains ~steps:5 ())
    [ 1; 2; 4 ]

let test_split_sweep_matches () =
  (* Every split fraction must give the same bits — the split only moves
     the cut between the two part tasks. *)
  List.iter
    (fun split ->
      check_matches_sequential
        ~name:(Printf.sprintf "split %g" split)
        ~mk_model:mk_hex ~mode:Exec.Async
        ~plan:Mpas_hybrid.Plan.pattern_driven ~split ~domains:2 ~steps:3 ())
    [ 0.; 0.2; 0.5; 0.8; 1. ]

(* --- scheduling properties (via the execution log) ---------------------- *)

let early_ids =
  List.filter_map
    (fun (i : Pattern.instance) ->
      if i.Pattern.kernel = Pattern.Mpas_reconstruct then None
      else Some i.Pattern.id)
    Registry.instances

let final_ids =
  List.filter_map
    (fun (i : Pattern.instance) ->
      if i.Pattern.id = "X3" then None else Some i.Pattern.id)
    Registry.instances

let schedule_sound (domains, mode) =
  let log : Exec.log = ref [] in
  let spec = Spec.build ~recon:true () in
  with_optional_pool domains (fun pool ->
      let eng = Engine.create ~mode ?pool ~log () in
      let model = mk_hex (Engine.timestep_engine eng) in
      Model.run model ~steps:1);
  let entries = !log in
  List.for_all
    (fun (ph, sub) ->
      let g =
        List.filter
          (fun (e : Exec.entry) -> e.Exec.e_phase = ph && e.Exec.e_substep = sub)
          entries
      in
      let ids = List.sort compare (List.map (fun e -> e.Exec.e_instance) g) in
      let expect =
        List.sort compare (if ph = `Early then early_ids else final_ids)
      in
      let phase_spec = if ph = `Early then spec.Spec.early else spec.Spec.final in
      let by_task = Array.make (Array.length phase_spec.Spec.tasks) None in
      List.iter (fun (e : Exec.entry) -> by_task.(e.Exec.e_task) <- Some e) g;
      (* every instance exactly once per substep *)
      ids = expect
      && Array.for_all Option.is_some by_task
      (* no task starts before all its producers finished *)
      && Array.for_all
           (fun (tk : Spec.task) ->
             match by_task.(tk.Spec.index) with
             | None -> false
             | Some e ->
                 List.for_all
                   (fun p ->
                     match by_task.(p) with
                     | None -> false
                     | Some pe -> pe.Exec.e_finish_seq < e.Exec.e_start_seq)
                   tk.Spec.preds)
           phase_spec.Spec.tasks)
    [ (`Early, 0); (`Early, 1); (`Early, 2); (`Final, 3) ]

let prop_schedule_sound =
  QCheck.Test.make ~name:"exactly-once + happens-before" ~count:12
    QCheck.(
      pair
        (oneofl [ 1; 2; 4 ])
        (oneofl [ Exec.Barrier; Exec.Async; Exec.Steal ]))
    schedule_sound

(* The same soundness over the overlapped distributed programs, whose
   phases carry Pack/Exchange/Unpack tasks: every task of the
   comm-extended DAG runs exactly once per substep, no task starts
   before its predecessors finish, and comm tasks really execute. *)
let ico_dist = lazy (Build.icosahedral ~level:2 ~lloyd_iters:2 ())

let overlap_schedule_sound (domains, mode, depth) =
  let m = Lazy.force ico_dist in
  let log : Exec.log = ref [] in
  let d = Mpas_dist.Driver.init ~n_ranks:3 Williamson.Tc5 m in
  let spec =
    with_optional_pool domains (fun pool ->
        let ov = Mpas_dist.Overlap.of_driver ~mode ?pool ~log ~depth d in
        Mpas_dist.Overlap.run ov ~steps:1;
        Mpas_dist.Overlap.spec ov)
  in
  let entries = !log in
  let comm_ran kind_prefix =
    List.exists
      (fun (e : Exec.entry) ->
        String.length e.Exec.e_instance > 3
        && String.sub e.Exec.e_instance 0 3 = kind_prefix)
      entries
  in
  comm_ran "PK:" && comm_ran "XF:" && comm_ran "UP:"
  && List.for_all
       (fun (ph, sub) ->
         let g =
           List.filter
             (fun (e : Exec.entry) ->
               e.Exec.e_phase = ph && e.Exec.e_substep = sub)
             entries
         in
         let phase_spec =
           if ph = `Early then spec.Spec.early else spec.Spec.final
         in
         let by_task = Array.make (Array.length phase_spec.Spec.tasks) None in
         let dup = ref false in
         List.iter
           (fun (e : Exec.entry) ->
             if by_task.(e.Exec.e_task) <> None then dup := true;
             by_task.(e.Exec.e_task) <- Some e)
           g;
         (not !dup)
         && Array.for_all Option.is_some by_task
         && Array.for_all
              (fun (tk : Spec.task) ->
                match by_task.(tk.Spec.index) with
                | None -> false
                | Some e ->
                    List.for_all
                      (fun p ->
                        match by_task.(p) with
                        | None -> false
                        | Some pe -> pe.Exec.e_finish_seq < e.Exec.e_start_seq)
                      tk.Spec.preds)
              phase_spec.Spec.tasks)
       [ (`Early, 0); (`Early, 1); (`Early, 2); (`Final, 3) ]

let prop_overlap_schedule_sound =
  QCheck.Test.make
    ~name:"overlapped comm programs: exactly-once + happens-before" ~count:8
    QCheck.(
      triple
        (oneofl [ 1; 2; 4 ])
        (oneofl [ Exec.Barrier; Exec.Async; Exec.Steal ])
        (oneofl [ 1; 2 ]))
    overlap_schedule_sound

(* --- engine envelope ---------------------------------------------------- *)

let test_handles () =
  let state0 = { Fields.h = [||]; u = [||]; tracers = [||] } in
  Alcotest.(check bool) "rk4" true (Engine.handles Config.default state0);
  Alcotest.(check bool) "ssprk3" false
    (Engine.handles { Config.default with Config.integrator = Config.Ssprk3 }
       state0);
  Alcotest.(check bool) "visc4" false
    (Engine.handles { Config.default with Config.visc4 = 1e5 } state0);
  Alcotest.(check bool) "tracers" false
    (Engine.handles Config.default { state0 with Fields.tracers = [| [||] |] })

let test_fallback_tracers () =
  let m = Lazy.force ico in
  let bell = Williamson.cosine_bell m in
  let reference = Model.init ~tracers:[| bell |] Williamson.Tc2 m in
  Model.run reference ~steps:2;
  Pool.with_pool ~n_domains:2 (fun pool ->
      let eng = Engine.create ~pool () in
      let model =
        Model.init
          ~engine:(Engine.timestep_engine eng)
          ~tracers:[| bell |] Williamson.Tc2 m
      in
      Model.run model ~steps:2;
      check_bit_identical "fallback" reference.Model.state model.Model.state;
      Alcotest.(check bool) "tracer bit-identical" true
        (bits_equal reference.Model.state.Fields.tracers.(0)
           model.Model.state.Fields.tracers.(0)))

let expect_invalid name f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")
  | exception Invalid_argument _ -> ()

let test_create_validates () =
  expect_invalid "device plan without pool" (fun () ->
      Engine.create ~plan:Mpas_hybrid.Plan.pattern_driven ());
  expect_invalid "split out of range" (fun () -> Engine.create ~split:1.5 ());
  expect_invalid "zero host lanes" (fun () -> Engine.create ~host_lanes:0 ());
  Pool.with_pool ~n_domains:2 (fun pool ->
      expect_invalid "host_lanes beyond pool" (fun () ->
          Engine.create ~pool ~host_lanes:3 ());
      expect_invalid "no device lane left" (fun () ->
          Engine.create ~pool ~plan:Mpas_hybrid.Plan.pattern_driven
            ~host_lanes:2 ());
      (* Sequential mode never needs a device lane. *)
      ignore
        (Engine.create ~mode:Exec.Sequential
           ~plan:Mpas_hybrid.Plan.pattern_driven ()))

(* --- tuner -------------------------------------------------------------- *)

let test_tuner () =
  let m = Lazy.force hex in
  let state = hex_state m in
  let b = Array.make m.Mesh.n_cells 0. in
  Pool.with_pool ~n_domains:2 (fun pool ->
      (match
         Tune.best_split ~candidates:[ 0.25; 0.75 ] ~steps:1 ~pool
           ~plan:Mpas_hybrid.Plan.pattern_driven Config.default m ~b ~dt:5.
           state
       with
      | Some (split, secs) ->
          Alcotest.(check bool) "split from candidates" true
            (List.mem split [ 0.25; 0.75 ]);
          Alcotest.(check bool) "positive time" true (secs > 0.)
      | None -> (* the unsplit baseline won — a legal verdict *) ());
      (* Injected timers pin down the baseline comparison: every split
         slower than no-split must yield None (the old tuner returned
         the least-bad split here), and a genuinely faster split must
         be returned with its measured time. *)
      let tune time_fn =
        Tune.best_split ~candidates:[ 0.25; 0.75 ] ~steps:1 ~time_fn ~pool
          ~plan:Mpas_hybrid.Plan.pattern_driven Config.default m ~b ~dt:5.
          state
      in
      Alcotest.(check bool) "baseline wins -> None" true
        (tune (function None -> 1.0 | Some _ -> 2.0) = None);
      (match tune (function None -> 1.0 | Some f -> if f = 0.75 then 0.5 else 0.9) with
      | Some (0.75, 0.5) -> ()
      | _ -> Alcotest.fail "expected Some (0.75, 0.5)"));
  (* The tuner steps copies; the input state is untouched. *)
  let fresh = hex_state m in
  Alcotest.(check bool) "state untouched" true
    (bits_equal state.Fields.h fresh.Fields.h
    && bits_equal state.Fields.u fresh.Fields.u)

(* --- observability integration ------------------------------------------ *)

let test_observed_integration () =
  let registry = Mpas_obs.Metrics.create () in
  Pool.with_pool ~n_domains:2 (fun pool ->
      let eng = Engine.create ~pool () in
      let te = Timestep.observed ~registry (Engine.timestep_engine eng) in
      let model = mk_hex te in
      Model.run model ~steps:1);
  (* One timer update per task execution, routed through the standard
     kernel instrument: 4 tend tasks x 4 substeps, etc. *)
  let count name =
    Mpas_obs.Metrics.Timer.count (Mpas_obs.Metrics.timer ~registry name)
  in
  Alcotest.(check int) "compute_tend tasks" 16
    (count "swe.kernel.compute_tend");
  Alcotest.(check int) "diagnostics tasks" 44
    (count "swe.kernel.compute_solve_diagnostics");
  Alcotest.(check int) "reconstruct tasks" 2
    (count "swe.kernel.mpas_reconstruct")

let test_trace_spans () =
  let sink = Mpas_obs.Trace.memory () in
  Mpas_obs.Trace.set_sink sink;
  Fun.protect
    ~finally:(fun () -> Mpas_obs.Trace.set_sink Mpas_obs.Trace.noop)
    (fun () ->
      Pool.with_pool ~n_domains:2 (fun pool ->
          let eng = Engine.create ~pool () in
          let model = mk_hex (Engine.timestep_engine eng) in
          Model.run model ~steps:1));
  let tasks =
    List.filter
      (fun (e : Mpas_obs.Trace.event) -> e.Mpas_obs.Trace.ev_cat = "task")
      (Mpas_obs.Trace.events sink)
  in
  (* 19 early tasks x 3 substeps + 20 final tasks. *)
  Alcotest.(check int) "one span per task execution" 77 (List.length tasks)

(* --- steal-mode sleepers/wakeup path ------------------------------------ *)

(* Pin the stingy-wakeup path of the Steal executor: with every root
   task artificially slow and all successors instant, the non-root
   lanes of a 4-lane pool drain their deques, fail their steal sweeps
   and block on the sleepers counter while the roots run; the retire
   broadcasts must wake them and the phase must terminate with every
   task exactly once and every edge witnessed by the sequence counter.
   (The interleaving explorer proves the protocol model exhaustively;
   this drives the real deques and counter.) *)
let test_steal_wakeup_sleepers () =
  let spec = Spec.build ~recon:true () in
  let phase = spec.Spec.early in
  let n = Array.length phase.Spec.tasks in
  let bodies =
    Array.init n (fun i ->
        if phase.Spec.tasks.(i).Spec.preds = [] then fun () ->
          Unix.sleepf 0.02
        else fun () -> ())
  in
  let log : Exec.log = ref [] in
  Pool.with_pool ~n_domains:4 (fun pool ->
      Exec.run_phase ~log ~mode:Exec.Steal ~pool:(Some pool) ~host_lanes:4
        ~phase:`Early ~substep:0
        ~instrument:(fun _ body -> body ())
        phase bodies);
  Alcotest.(check int) "every task retired exactly once" n (List.length !log);
  let entry = Array.make n None in
  List.iter
    (fun (e : Exec.entry) ->
      Alcotest.(check bool)
        (Printf.sprintf "task %d logged once" e.Exec.e_task)
        true
        (entry.(e.Exec.e_task) = None);
      entry.(e.Exec.e_task) <- Some e)
    !log;
  Array.iter
    (fun (t : Spec.task) ->
      List.iter
        (fun p ->
          match (entry.(p), entry.(t.Spec.index)) with
          | Some s, Some d ->
              Alcotest.(check bool)
                (Printf.sprintf "edge %d -> %d respected" p t.Spec.index)
                true
                (s.Exec.e_finish_seq < d.Exec.e_start_seq)
          | _ -> Alcotest.fail "missing log entry")
        t.Spec.preds)
    phase.Spec.tasks

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
  Alcotest.run "runtime"
    [
      ( "spec",
        [
          Alcotest.test_case "well formed" `Quick test_spec_well_formed;
          Alcotest.test_case "task counts" `Quick test_spec_counts;
          Alcotest.test_case "hazard edges" `Quick test_spec_hazard_edges;
          Alcotest.test_case "part ranges tile" `Quick test_part_ranges_tile;
          Alcotest.test_case "fused well formed" `Quick
            test_spec_fused_well_formed;
          Alcotest.test_case "fused task counts" `Quick test_spec_fused_counts;
        ] );
      ( "bit-identity",
        [
          Alcotest.test_case "ico async" `Quick test_ico_async_matches;
          Alcotest.test_case "ico split" `Quick test_ico_split_matches;
          Alcotest.test_case "hex barrier" `Quick test_hex_barrier_matches;
          Alcotest.test_case "hex split" `Quick test_hex_split_matches;
          Alcotest.test_case "sequential mode" `Quick
            test_sequential_mode_matches;
          Alcotest.test_case "pool sizes 1/2/4" `Quick
            test_determinism_across_pool_sizes;
          Alcotest.test_case "split sweep" `Quick test_split_sweep_matches;
          Alcotest.test_case "ico fused+steal+tiled" `Quick
            test_ico_fused_steal_tiled_matches;
          Alcotest.test_case "hex fused+steal+tiled" `Quick
            test_hex_fused_steal_tiled_matches;
          Alcotest.test_case "ico fused split steal" `Quick
            test_ico_fused_split_steal_matches;
        ] );
      ( "engine",
        [
          Alcotest.test_case "handles" `Quick test_handles;
          Alcotest.test_case "fallback (tracers)" `Quick test_fallback_tracers;
          Alcotest.test_case "create validates" `Quick test_create_validates;
          Alcotest.test_case "tuner" `Quick test_tuner;
        ] );
      ( "observability",
        [
          Alcotest.test_case "observed timers" `Quick test_observed_integration;
          Alcotest.test_case "trace spans" `Quick test_trace_spans;
        ] );
      ( "steal",
        [
          Alcotest.test_case "sleepers woken, exactly-once" `Quick
            test_steal_wakeup_sleepers;
        ] );
      ( "properties",
        qcheck_with_seed [ prop_schedule_sound; prop_overlap_schedule_sound ] );
    ]
