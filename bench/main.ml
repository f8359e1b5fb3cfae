(* Benchmark harness.

   Two parts:
   1. regeneration of every table and figure of the paper's evaluation
      (Tables I-III, Figures 5-9) through Mpas_core.Experiments — the
      rows printed here are the reproduction artifacts recorded in
      EXPERIMENTS.md;
   2. micro-benchmarks of the real kernels and steps (the refactoring
      forms of Algorithms 2-4, the pattern instances, whole RK-4 steps
      per engine, the runtime, ensemble and serving layers), run on
      this machine through one warmed, interleaved timer ([measure]):
      every row is a median over [runs] samples with its quartiles.

   Modes:
   - no arguments: part 1 followed by part 2 and the
     measured-vs-roofline report;
   - [--json PATH]: micro-benchmarks only, dumped to PATH as a JSON
     object with a "benchmarks" array (name, median ns/run, number of
     samples "runs", and the quartiles "iqr_ns") and a
     "measured_vs_roofline" section joining a
     measured serial profile with the Costmodel roofline per kernel
     (pretty-print a saved dump with [bin/obs_report]);
   - [--trace FILE]: run one observed RK-4 step (domain pool engine)
     plus one simulated hybrid schedule and write the spans as Chrome
     trace_event JSON to FILE (load in chrome://tracing);
   - [--smoke]: one iteration of every benchmark closure, no timing —
     wired to the [bench-smoke] dune alias as a cheap liveness check. *)

(* --- part 1: the paper's tables and figures ------------------------------ *)

let regenerate_experiments () =
  print_endline "=== Paper evaluation artifacts (see EXPERIMENTS.md) ===\n";
  List.iter Mpas_core.Report.print
    (Mpas_core.Experiments.all ~fig5_level:4 ~fig5_hours:6. ())

(* --- part 2: micro-benchmarks -------------------------------------------- *)

let mesh = lazy (Mpas_mesh.Build.icosahedral ~level:4 ~lloyd_iters:2 ())

(* Lane pool shared by the task-runtime benches, created on first use
   and shut down at exit (live worker domains would keep the process
   from terminating). *)
let bench_pool = lazy (Mpas_par.Pool.create ~n_domains:4)

let () =
  at_exit (fun () ->
      if Lazy.is_val bench_pool then
        Mpas_par.Pool.shutdown (Lazy.force bench_pool))

(* Every micro-benchmark as (group, name, closure); the same list feeds
   the timer, the JSON dump, and the smoke mode. *)
let bench_cases () =
  let open Mpas_swe in
  let m = Lazy.force mesh in
  let rng = Mpas_numerics.Rng.create 11L in
  let x = Array.init m.n_edges (fun _ -> Mpas_numerics.Rng.uniform rng (-1.) 1.) in
  let y = Array.make m.n_cells 0. in
  let labels = Mpas_patterns.Refactor.label_matrix m in
  let refactoring =
    [
      ( "refactoring (Algorithms 2-4)", "alg2 edge-order scatter",
        fun () -> Mpas_patterns.Refactor.edge_to_cell_scatter m ~x ~y );
      ( "refactoring (Algorithms 2-4)", "alg3 cell-order gather",
        fun () -> Mpas_patterns.Refactor.edge_to_cell_gather m ~x ~y );
      ( "refactoring (Algorithms 2-4)", "alg4 branch-free",
        fun () -> Mpas_patterns.Refactor.edge_to_cell_branch_free m labels ~x ~y );
      ( "refactoring (Algorithms 2-4)", "alg4 branch-free CSR",
        fun () -> Mpas_patterns.Refactor.edge_to_cell_csr m ~x ~y );
    ]
  in
  let state, b = Williamson.init Williamson.Tc5 m in
  let diag = Fields.alloc_diagnostics m in
  let tend = Fields.alloc_tendencies m in
  let recon = Reconstruct.init m in
  let recon_out = Fields.alloc_reconstruction m in
  let cfg = Config.default in
  Operators.d2fdx2 m ~h:state.h ~out:diag.d2fdx2_cell;
  Operators.h_edge m ~order:cfg.h_adv_order ~h:state.h
    ~d2fdx2_cell:diag.d2fdx2_cell ~out:diag.h_edge;
  Operators.kinetic_energy m ~u:state.u ~out:diag.ke;
  Operators.vorticity m ~u:state.u ~out:diag.vorticity;
  Operators.h_vertex m ~h:state.h ~out:diag.h_vertex;
  Operators.pv_vertex m ~vorticity:diag.vorticity ~h_vertex:diag.h_vertex
    ~out:diag.pv_vertex;
  Operators.pv_cell m ~pv_vertex:diag.pv_vertex ~out:diag.pv_cell;
  Operators.tangential_velocity m ~u:state.u ~out:diag.v_tangential;
  Operators.grad_pv m ~pv_cell:diag.pv_cell ~pv_vertex:diag.pv_vertex
    ~out_n:diag.grad_pv_n ~out_t:diag.grad_pv_t;
  Operators.pv_edge m ~apvm_factor:cfg.apvm_factor ~dt:60.
    ~pv_vertex:diag.pv_vertex ~grad_pv_n:diag.grad_pv_n
    ~grad_pv_t:diag.grad_pv_t ~u:state.u ~v_tangential:diag.v_tangential
    ~out:diag.pv_edge;
  let operators =
    [
      ( "pattern instances (real kernels)", "A1 tend_h",
        fun () ->
          Operators.tend_h m ~h_edge:diag.h_edge ~u:state.u ~out:tend.tend_h );
      ( "pattern instances (real kernels)", "B1 tend_u",
        fun () ->
          Operators.tend_u m ~gravity:cfg.gravity ~h:state.h ~b ~ke:diag.ke
            ~h_edge:diag.h_edge ~u:state.u ~pv_edge:diag.pv_edge
            ~out:tend.tend_u );
      ( "pattern instances (real kernels)", "B2 h_edge (4th order)",
        fun () ->
          Operators.h_edge m ~order:Config.Fourth ~h:state.h
            ~d2fdx2_cell:diag.d2fdx2_cell ~out:diag.h_edge );
      ( "pattern instances (real kernels)", "D1 vorticity",
        fun () -> Operators.vorticity m ~u:state.u ~out:diag.vorticity );
      ( "pattern instances (real kernels)", "E pv_cell",
        fun () ->
          Operators.pv_cell m ~pv_vertex:diag.pv_vertex ~out:diag.pv_cell );
      ( "pattern instances (real kernels)", "G tangential velocity",
        fun () ->
          Operators.tangential_velocity m ~u:state.u ~out:diag.v_tangential );
      ( "pattern instances (real kernels)", "A4/X6 reconstruct",
        fun () -> Reconstruct.run recon m ~u:state.u ~out:recon_out );
    ]
  in
  let model_original = Model.init ~engine:Timestep.original Williamson.Tc5 m in
  let model_refactored = Model.init Williamson.Tc5 m in
  let bell = Williamson.cosine_bell m in
  let model_tracers = Model.init ~tracers:[| bell |] Williamson.Tc5 m in
  let dist = Mpas_dist.Driver.init ~n_ranks:4 Williamson.Tc5 m in
  let dist2 = Mpas_dist.Driver.init ~n_ranks:2 Williamson.Tc5 m in
  (* Overlapped variants run their comm-extended DAG on the shared
     bench pool (async executor), so pack/exchange/unpack of one rank
     can proceed while another rank's boundary work is still in
     flight; the classic driver bulk-synchronizes between sweeps. *)
  let overlap2 =
    Mpas_dist.Overlap.of_driver
      ~pool:(Lazy.force bench_pool)
      (Mpas_dist.Driver.init ~n_ranks:2 Williamson.Tc5 m)
  in
  let overlap4 =
    Mpas_dist.Overlap.of_driver
      ~pool:(Lazy.force bench_pool)
      (Mpas_dist.Driver.init ~n_ranks:4 Williamson.Tc5 m)
  in
  let steps =
    [
      ( "full RK-4 step", "original (scatter) engine",
        fun () -> Model.run model_original ~steps:1 );
      ( "full RK-4 step", "refactored (gather) engine",
        fun () -> Model.run model_refactored ~steps:1 );
      ( "full RK-4 step", "with one tracer",
        fun () -> Model.run model_tracers ~steps:1 );
      ( "full RK-4 step", "distributed, 2 ranks",
        fun () -> Mpas_dist.Driver.run dist2 ~steps:1 );
      ( "full RK-4 step", "distributed, 4 ranks",
        fun () -> Mpas_dist.Driver.run dist ~steps:1 );
      ( "full RK-4 step", "overlapped, 2 ranks",
        fun () -> Mpas_dist.Overlap.run overlap2 ~steps:1 );
      ( "full RK-4 step", "overlapped, 4 ranks",
        fun () -> Mpas_dist.Overlap.run overlap4 ~steps:1 );
      (* What a served or closed-loop job pays before its first step on
         a mesh that already has a model: workspace, copies and
         diagnostics; the mesh-derived tables are shared. *)
      ( "model setup", "Model.of_state (level 4)",
        fun () ->
          let r = model_refactored in
          ignore
            (Model.of_state ~dt:r.Model.dt ~b:r.Model.b r.Model.mesh
               r.Model.state
              : Model.t) );
    ]
  in
  (* The dataflow task runtime: one full RK-4 step per engine variant.
     The split fraction of the tuned case is chosen by Tune.best_split
     on this machine right here, so the benchmark name records the
     ratio the measurement ran with. *)
  let runtime =
    let open Mpas_runtime in
    let pool = Lazy.force bench_pool in
    let mk engine = Model.init ~engine Williamson.Tc5 m in
    let model_of eng = mk (Engine.timestep_engine eng) in
    let model_seq = model_of (Engine.create ~mode:Exec.Sequential ()) in
    let model_barrier = model_of (Engine.create ~mode:Exec.Barrier ~pool ()) in
    let model_async = model_of (Engine.create ~mode:Exec.Async ~pool ()) in
    let tuned =
      let state, b = Williamson.init Williamson.Tc5 m in
      let dt = Williamson.recommended_dt Williamson.Tc5 m in
      Tune.best_split ~steps:1 ~pool ~plan:Mpas_hybrid.Plan.pattern_driven
        Config.default m ~b ~dt state
    in
    let tuned_split =
      match tuned with
      | Some (f, secs) ->
          Printf.printf
            "task runtime: tuned split f=%.3f (%.3f ms/step during tuning)\n%!"
            f (secs *. 1e3);
          f
      | None ->
          (* Tuner verdict: the plan never beat the unsplit engine on
             this machine.  Still benchmark a split case (the default
             fraction) so the ablation row exists. *)
          Printf.printf
            "task runtime: tuner recommends no split; benching f=0.500\n%!";
          0.5
    in
    let model_split =
      model_of
        (Engine.create ~mode:Exec.Async ~pool
           ~plan:Mpas_hybrid.Plan.pattern_driven ~split:tuned_split
           ~host_lanes:2 ())
    in
    (* Ablation ladder for the super-task work: each optimisation alone,
       then the full stack (fusion + cache tiling + work stealing). *)
    let model_fused =
      model_of (Engine.create ~mode:Exec.Async ~pool ~fuse:true ())
    in
    let model_steal = model_of (Engine.create ~mode:Exec.Steal ~pool ()) in
    let model_full =
      model_of
        (Engine.create ~mode:Exec.Steal ~pool ~fuse:true ~tiling:`Auto ())
    in
    [
      ( "task runtime (dataflow DAG)", "dag sequential",
        fun () -> Model.run model_seq ~steps:1 );
      ( "task runtime (dataflow DAG)", "level-barrier, 4 domains",
        fun () -> Model.run model_barrier ~steps:1 );
      ( "task runtime (dataflow DAG)", "async, 4 domains",
        fun () -> Model.run model_async ~steps:1 );
      ( "task runtime (dataflow DAG)",
        Printf.sprintf "async split-tuned f=%.3f, 4 domains" tuned_split,
        fun () -> Model.run model_split ~steps:1 );
      ( "task runtime (dataflow DAG)", "fused only, 4 domains",
        fun () -> Model.run model_fused ~steps:1 );
      ( "task runtime (dataflow DAG)", "stealing only, 4 domains",
        fun () -> Model.run model_steal ~steps:1 );
      ( "task runtime (dataflow DAG)", "fused+stealing+tiled, 4 domains",
        fun () -> Model.run model_full ~steps:1 );
    ]
  in
  let ensemble =
    (* Member batching: one sequential batch step at 1, 8, 32 and 64
       members of the same Williamson case, divided by the member count
       for ms per member-step.  The A/B rows run the same number of
       [Timestep.refactored] solo steps back to back on separate
       workspaces (no reconstruction, as in the batch), so the pair
       measures what batching adds over the solo kernels it calls. *)
    let engine_of members =
      let open Mpas_ensemble in
      let e =
        Ensemble.create ~capacity:members ~block:(min members 8)
          ~mode:Mpas_runtime.Exec.Sequential m
      in
      for _ = 1 to members do
        ignore (Ensemble.submit_case e Williamson.Tc5)
      done;
      e
    in
    let solo_of members =
      let dt = Williamson.recommended_dt Williamson.Tc5 m in
      let runs =
        Array.init members (fun _ ->
            let state, b = Williamson.init Williamson.Tc5 m in
            let work = Timestep.alloc_workspace m in
            Timestep.init_diagnostics Timestep.refactored cfg m ~dt ~state
              ~work;
            (state, b, work))
      in
      fun () ->
        Array.iter
          (fun (state, b, work) ->
            Timestep.step Timestep.refactored cfg m ~b ~dt ~state ~work ())
          runs
    in
    List.map
      (fun members ->
        let e = engine_of members in
        ( "ensemble (member batching)",
          Printf.sprintf "batch step, %d members" members,
          fun () -> Mpas_ensemble.Ensemble.step e () ))
      [ 1; 8; 32; 64 ]
    @ List.map
        (fun members ->
          ( "ensemble (member batching)",
            Printf.sprintf "solo refactored steps, %d members" members,
            solo_of members ))
        [ 8; 32 ]
  in
  let serving =
    (* Queue throughput of the serving layer: a full submit -> admit ->
       step -> checkpoint -> retire cycle for a burst of short jobs
       over a smaller batch, fault-free — the scheduler, checkpoint
       codec and engine churn together.  Jobs served per second is
       8 / (ns_per_run * 1e-9). *)
    [
      ( "serving layer",
        "submit+drain, 8 jobs x 2 steps, capacity 4",
        fun () ->
          let srv =
            Mpas_server.Server.create
              ~registry:(Mpas_obs.Metrics.create ())
              ~capacity:4 ~block:2 ~checkpoint_every:1 m
          in
          for _ = 1 to 8 do
            ignore (Mpas_server.Server.submit srv ~steps:2 Williamson.Tc5)
          done;
          ignore (Mpas_server.Server.drain srv ()) );
    ]
  in
  refactoring @ operators @ steps @ runtime @ ensemble @ serving

(* Every case is timed the same way.  A warmup (compile the task
   program, fault the arrays in, settle the pool) sizes each case's
   sample to a batch of calls lasting at least [min_sample_s], so a
   microsecond kernel is not timed at the clock's resolution; then
   [runs] samples per case give the median and quartiles.  [--runs]
   raises the count.

   The cases are interleaved round-robin — every case's sample k
   completes before any case's sample k+1 — so that slow drift in
   machine load lands on all rows equally instead of penalizing
   whichever variant happened to run during a spike. *)
let min_sample_s = 1e-3

let measure ~runs cases =
  let cases = Array.of_list cases in
  let n = Array.length cases in
  let time fn calls =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to calls do
      fn ()
    done;
    Unix.gettimeofday () -. t0
  in
  let calls =
    Array.map
      (fun (_, _, fn) ->
        let per_call = time fn 3 /. 3. in
        let calls = Float.ceil (min_sample_s /. Float.max per_call 1e-9) in
        max 1 (int_of_float calls))
      cases
  in
  let samples = Array.init n (fun _ -> Array.make runs 0.) in
  for k = 0 to runs - 1 do
    Array.iteri
      (fun i (_, _, fn) ->
        samples.(i).(k) <- time fn calls.(i) *. 1e9 /. float_of_int calls.(i))
      cases
  done;
  List.init n (fun i ->
      let group, name, _ = cases.(i) in
      let s = samples.(i) in
      Array.sort compare s;
      (* Linear interpolation between order statistics. *)
      let quantile q =
        let x = q *. float_of_int (runs - 1) in
        let lo = int_of_float x in
        let hi = min (runs - 1) (lo + 1) in
        s.(lo) +. ((x -. float_of_int lo) *. (s.(hi) -. s.(lo)))
      in
      (group ^ "/" ^ name, quantile 0.5, runs, (quantile 0.25, quantile 0.75)))

let print_rows rows =
  print_endline
    "\n=== Micro-benchmarks (this machine; interleaved medians) ===\n";
  Printf.printf "%-55s %15s\n" "benchmark" "time/run";
  List.iter
    (fun (name, ns, _, _) ->
      let pretty =
        if ns >= 1e9 then Printf.sprintf "%8.3f  s" (ns /. 1e9)
        else if ns >= 1e6 then Printf.sprintf "%8.3f ms" (ns /. 1e6)
        else if ns >= 1e3 then Printf.sprintf "%8.3f us" (ns /. 1e3)
        else Printf.sprintf "%8.0f ns" ns
      in
      Printf.printf "%-55s %15s\n" name pretty)
    rows

(* --- observability: roofline report and trace dump ----------------------- *)

(* Serial measured profile of a few real steps joined against the
   Costmodel roofline (baseline flags: the measurement runs one
   thread).  Only the distribution across kernels is meaningful — the
   model is calibrated to the paper's Xeon, not this machine. *)
let roofline_report () =
  let open Mpas_swe in
  let m = Lazy.force mesh in
  let model = Model.init Williamson.Tc5 m in
  let profile = Profile.measure model ~steps:2 in
  let measured =
    List.map (fun (k, s) -> (Timestep.kernel_name k, s)) profile
  in
  Mpas_obs_report.Report.make
    ~stats:(Mpas_patterns.Cost.stats_of_mesh m)
    ~steps:2 measured

let write_trace path =
  let open Mpas_swe in
  let sink = Mpas_obs.Trace.memory () in
  Mpas_obs.Trace.set_sink sink;
  Fun.protect
    ~finally:(fun () -> Mpas_obs.Trace.set_sink Mpas_obs.Trace.noop)
    (fun () ->
      (* One observed RK-4 step on the domain pool: kernel spans on the
         caller's lane, pool.worker spans on the worker lanes. *)
      let m = Lazy.force mesh in
      Mpas_par.Pool.with_pool ~n_domains:2 (fun pool ->
          let model =
            Model.init
              ~engine:(Timestep.observed (Timestep.parallel pool))
              Williamson.Tc5 m
          in
          Model.run model ~steps:1);
      (* And the simulated hybrid lanes for the same mesh: per
         pattern-instance spans on host (tid 1) / device (tid 2). *)
      ignore
        (Mpas_hybrid.Schedule.observe
           (Mpas_hybrid.Schedule.default_config ~split:0.6)
           (Mpas_patterns.Cost.stats_of_mesh m)
           Mpas_hybrid.Plan.pattern_driven));
  Mpas_obs.Trace.export sink path;
  Printf.printf "wrote %d trace events to %s\n"
    (List.length (Mpas_obs.Trace.events sink))
    path

let write_json path rows report =
  let open Mpas_obs in
  let json =
    Jsonv.Obj
      [
        ( "benchmarks",
          Jsonv.Arr
            (List.map
               (fun (name, ns, runs, iqr) ->
                 let q1, q3 = iqr in
                 Jsonv.Obj
                   [
                     ("name", Jsonv.Str name);
                     ("ns_per_run", Jsonv.Num ns);
                     ("runs", Jsonv.Num (float_of_int runs));
                     ("iqr_ns", Jsonv.Arr [ Jsonv.Num q1; Jsonv.Num q3 ]);
                   ])
               rows) );
        ("measured_vs_roofline", Mpas_obs_report.Report.to_json report);
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Jsonv.to_string json);
      output_string oc "\n");
  Printf.printf "wrote %d benchmark rows to %s\n" (List.length rows) path

(* Smoke runs every closure twice — re-stepping the same model is what
   catches stale program caches and state-dependent bugs that a single
   run hides. *)
let smoke cases =
  List.iter
    (fun (g, name, fn) ->
      fn ();
      fn ();
      Printf.printf "smoke ok: %s/%s\n" g name)
    cases

(* The sanitizer hook must cost nothing when no monitor is installed.
   Measuring against hook-free code is impossible (the hook is
   compiled into Exec), so bound it from above: even with a no-op
   sanitizer INSTALLED, a full RK-4 step must stay within 2% of the
   uninstrumented step — and the off path (one ref load and a match
   per phase run) is strictly cheaper than that.  Judged on the median
   of per-round paired ratios: the two samples of a round run back to
   back and share whatever machine state the round landed on, so
   pairing cancels drift that would swamp a comparison of independent
   aggregates.  A shared box still jitters past 2% on occasion, so a
   measurement over budget is retried; only consistent excess fails. *)
let sanitizer_overhead_budget = 1.02

let sanitizer_overhead_measure model =
  let noop =
    {
      Mpas_runtime.Exec.san_phase_begin =
        (fun ~phase:_ ~substep:_ ~n_tasks:_ -> ());
      san_task_begin = (fun ~task:_ ~lane:_ -> ());
      san_task_end = (fun ~task:_ ~lane:_ -> ());
      san_phase_end = (fun () -> ());
    }
  in
  let runs = 31 in
  let off = Array.make runs 0. and on_ = Array.make runs 0. in
  let sample hook slot =
    Mpas_runtime.Exec.set_sanitizer hook;
    Gc.minor ();
    let t0 = Unix.gettimeofday () in
    Mpas_swe.Model.run model ~steps:2;
    slot := Unix.gettimeofday () -. t0
  in
  Fun.protect
    ~finally:(fun () -> Mpas_runtime.Exec.set_sanitizer None)
    (fun () ->
      for k = 0 to runs - 1 do
        (* Alternate A/B order per round: whatever systematic state the
           first measurement of a pair inherits (GC phase, frequency
           boost) lands on both sides equally. *)
        let a = ref 0. and b = ref 0. in
        if k land 1 = 0 then begin
          sample None a;
          sample (Some noop) b
        end
        else begin
          sample (Some noop) b;
          sample None a
        end;
        off.(k) <- !a;
        on_.(k) <- !b
      done);
  let ratios = Array.init runs (fun k -> on_.(k) /. off.(k)) in
  Array.sort compare ratios;
  ratios.(runs / 2)

let sanitizer_overhead_check () =
  let open Mpas_swe in
  let m = Lazy.force mesh in
  let eng = Mpas_runtime.Engine.create ~mode:Mpas_runtime.Exec.Sequential () in
  let model =
    Model.init ~engine:(Mpas_runtime.Engine.timestep_engine eng) Williamson.Tc5
      m
  in
  Model.run model ~steps:2;
  let attempts = 3 in
  let rec go n best =
    let ratio = sanitizer_overhead_measure model in
    let best = min best ratio in
    Printf.printf
      "sanitizer hook: installed-no-op/off median paired ratio %.4f (budget \
       %.2f, attempt %d/%d)\n%!"
      ratio sanitizer_overhead_budget n attempts;
    if ratio <= sanitizer_overhead_budget then ()
    else if n < attempts then go (n + 1) best
    else begin
      Printf.eprintf
        "sanitizer hook overhead exceeds the %.0f%% budget on %d consecutive \
         measurements (best ratio %.4f)\n"
        (100. *. (sanitizer_overhead_budget -. 1.))
        attempts best;
      exit 1
    end
  in
  go 1 infinity

type options = {
  smoke_mode : bool;
  json_path : string option;
  trace_path : string option;
  runs : int;
}

let () =
  let rec parse opts = function
    | [] -> opts
    | "--smoke" :: rest -> parse { opts with smoke_mode = true } rest
    | "--json" :: path :: rest -> parse { opts with json_path = Some path } rest
    | "--trace" :: path :: rest -> parse { opts with trace_path = Some path } rest
    | "--runs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 1 -> parse { opts with runs = n } rest
        | _ ->
            prerr_endline ("--runs expects a positive integer (got " ^ n ^ ")");
            exit 2)
    | arg :: _ ->
        prerr_endline
          ("usage: main [--smoke] [--json PATH] [--trace FILE] [--runs N] \
            (got " ^ arg ^ ")");
        exit 2
  in
  let opts =
    parse
      { smoke_mode = false; json_path = None; trace_path = None; runs = 25 }
      (List.tl (Array.to_list Sys.argv))
  in
  if opts.smoke_mode then begin
    smoke (bench_cases ());
    sanitizer_overhead_check ()
  end
  else begin
    Option.iter write_trace opts.trace_path;
    match opts.json_path with
    | Some path ->
        let rows = measure ~runs:opts.runs (bench_cases ()) in
        print_rows rows;
        let report = roofline_report () in
        print_endline "";
        print_endline (Mpas_obs_report.Report.to_string report);
        write_json path rows report
    | None ->
        if opts.trace_path = None then begin
          regenerate_experiments ();
          print_rows (measure ~runs:opts.runs (bench_cases ()));
          print_endline "";
          print_endline (Mpas_obs_report.Report.to_string (roofline_report ()))
        end
  end
