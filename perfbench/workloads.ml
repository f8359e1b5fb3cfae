(* The four workloads.  Each one builds its inputs from the seed, sets
   up several times (the median is [setup_s]), measures for the given
   seconds on one domain in [Exec.Sequential] mode, and checks a sample
   of its outputs against a [Timestep.refactored] solo run of the same
   inputs, outside the timed window.

   With tracing on, the first half of the window runs untraced (the
   baseline of [trace.overhead_frac]) and the second half records spans
   around every layer call into an in-memory sink, with the [Exec]
   monitor adding phase and task spans. *)

open Mpas_mesh
open Mpas_swe
open Mpas_obs
module Rng = Mpas_numerics.Rng
module Stats = Mpas_numerics.Stats
module Cost = Mpas_patterns.Cost
module Pattern = Mpas_patterns.Pattern
module Ensemble = Mpas_ensemble.Ensemble
module Server = Mpas_server.Server
module Fault = Mpas_server.Fault
module Driver = Mpas_dist.Driver
module Exchange = Mpas_dist.Exchange

type ctx = {
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;  (** level-2 meshes and short runs, for the smoke tests *)
  triad_gbs : float;  (** measured bandwidth ceiling, traced runs only *)
}

type outcome = {
  checks : (string * bool) list;  (** correctness gate, by name *)
  attempted : int;  (** jobs, members or submits attempted; checks excluded *)
  failed : int;  (** of those, the ones that failed or were refused *)
  metrics : (string * float) list;
  info : (string * Jsonv.t) list;  (** workload provenance *)
  sink : Trace.sink option;  (** the traced half's spans *)
}

let ms s = s *. 1000.
let fi = float_of_int
let p50 a = Stats.percentile 50. a
let p90 a = Stats.percentile 90. a

(* --- shared pieces ------------------------------------------------------- *)

let build_mesh level = Probe.time (fun () -> Build.icosahedral ~level ())

(* Runs [build] [reps] times, compacting the heap in between and
   keeping only the last value; returns it with the median total and
   median mesh-build seconds.  [build] returns its mesh-build seconds
   with its value. *)
let repeat_setup ~reps build =
  let total = Array.make reps 0. and mesh = Array.make reps 0. in
  let last = ref None in
  for i = 0 to reps - 1 do
    last := None;
    Gc.compact ();
    let (mesh_s, v), t = Probe.time build in
    total.(i) <- t;
    mesh.(i) <- mesh_s;
    last := Some v
  done;
  (p50 total, p50 mesh, Option.get !last)

let setup_reps ctx = if ctx.tiny then 1 else 7

(* A seeded Gaussian height bump, 5-20 m high and ~600 km wide, added
   to [state.h]. *)
let bump rng (mesh : Mesh.t) (st : Fields.state) =
  let lon0 = Rng.uniform rng 0. (2. *. Float.pi) in
  let lat0 = Rng.uniform rng (-1.) 1. in
  let amp = Rng.uniform rng 5. 20. in
  Array.iteri
    (fun c h ->
      let lat = mesh.Mesh.lat_cell.(c) and lon = mesh.Mesh.lon_cell.(c) in
      let cosd = (sin lat *. sin lat0) +. (cos lat *. cos lat0 *. cos (lon -. lon0)) in
      let d = acos (Float.min 1. (Float.max (-1.) cosd)) in
      st.Fields.h.(c) <- h +. (amp *. exp (-.((d /. 0.1) ** 2.))))
    st.Fields.h

(* Gravity perturbed by up to 0.5 % either way. *)
let perturbed_config rng =
  let g = Config.default.Config.gravity in
  { Config.default with Config.gravity = g *. (1. +. Rng.uniform rng (-0.005) 0.005) }

let digest_state (st : Fields.state) =
  Digest.string (Marshal.to_string (st.Fields.h, st.Fields.u) [])

type loop = {
  step_s : float array;  (** wall time of each timed step *)
  members : float array;  (** members each step advanced *)
  latency_ms : float array;  (** one per job *)
  jobs : int;
  wall_s : float;
}

(* One client in a closed loop: [start ()] builds a job, which then
   advances [steps] steps, each timed; the next job starts when the
   previous one ends, until [seconds] have passed (at least one job
   runs).  [members job] is how many members the next step advances;
   [finish job] runs after the job's latency is taken.  Returns the
   samples and the last job. *)
let closed_loop ~seconds ~steps ~start ~members ~step ~finish =
  let step_s = Probe.samples () and mem = Probe.samples () and lat = Probe.samples () in
  let t_begin = Probe.now () in
  let jobs = ref 0 and last = ref None in
  while !jobs = 0 || Probe.now () -. t_begin < seconds do
    let due = Probe.now () in
    let job = start () in
    for _ = 1 to steps do
      Probe.push mem (fi (members job));
      let (), dt = Probe.time (fun () -> step job) in
      Probe.push step_s dt
    done;
    Probe.push lat (ms (Probe.now () -. due));
    finish job;
    incr jobs;
    last := Some job
  done;
  ( {
      step_s = Probe.to_array step_s;
      members = Probe.to_array mem;
      latency_ms = Probe.to_array lat;
      jobs = !jobs;
      wall_s = Probe.now () -. t_begin;
    },
    Option.get !last )

let member_step_ms l =
  p50 (Array.mapi (fun i s -> ms s /. Float.max 1. l.members.(i)) l.step_s)

let loop_metrics l =
  [
    ("member_step_ms", member_step_ms l);
    ("job_latency_ms_p50", p50 l.latency_ms);
    ("job.latency_ms_p90", p90 l.latency_ms);
    ("saturation_jobs_per_s", fi l.jobs /. l.wall_s);
  ]

(* Runs [measure ~traced seconds] once untraced for the whole window,
   or, when tracing, untraced for half and traced for half.  Returns
   the untraced result, the traced one and the traced half's sink. *)
let passes ctx ?name_of measure =
  if not ctx.trace then (measure ~traced:false ctx.seconds, None)
  else begin
    let half = ctx.seconds /. 2. in
    let base = measure ~traced:false half in
    let sink = Trace.memory () in
    Trace.set_sink sink;
    Probe.install_monitor ?name_of ();
    let traced =
      Fun.protect
        ~finally:(fun () ->
          Probe.remove_monitor ();
          Trace.set_sink Trace.noop)
        (fun () -> measure ~traced:true half)
    in
    (base, Some (traced, sink))
  end

let runtime_layers sink ~steps =
  let st = Probe.self_times sink in
  Probe.runtime_metrics st ~tasks:(Probe.span_names sink "task.")
    ~instances:Catalog.ensemble_instances ~steps

(* The reference every sampled output is held to: a solo run of the
   refactored engine from the same inputs.  Returns the bitwise
   comparison and the mass check. *)
let reference_checks name ?config ~dt ~b ~steps mesh ~initial final =
  let r = Model.of_state ?config ~engine:Timestep.refactored ~dt ~b mesh initial in
  Model.run r ~steps;
  [
    (name ^ ".bitwise", Probe.same_state final r.Model.state);
    (name ^ ".mass_drift", Probe.mass_conserved ?config mesh ~b ~initial final);
  ]

let mesh_info level (mesh : Mesh.t) ~working_set =
  [
    ("mesh_level", Jsonv.Num (fi level));
    ("cells", Jsonv.Num (fi mesh.Mesh.n_cells));
    ("edges", Jsonv.Num (fi mesh.Mesh.n_edges));
    ("vertices", Jsonv.Num (fi mesh.Mesh.n_vertices));
    ("working_set_bytes_computed", Jsonv.Num (fi working_set));
  ]

(* Computed working set of a batch: the mesh plus, per member slot, the
   fields a solo model of the same mesh holds. *)
let batch_bytes mesh ~capacity =
  let r = Model.init ~engine:Timestep.refactored Williamson.Tc5 mesh in
  Probe.heap_bytes mesh + (capacity * Probe.heap_bytes (r.Model.state, r.Model.work, r.Model.b))

let loop_info l ~steps_per_job =
  [
    ("steps_per_job", Jsonv.Num (fi steps_per_job));
    ("jobs", Jsonv.Num (fi l.jobs));
    ("steps_timed", Jsonv.Num (fi (Array.length l.step_s)));
  ]

(* --- solo-l6 -------------------------------------------------------------- *)

let pattern_kernel name =
  List.find (fun k -> Pattern.kernel_name k = name) Pattern.all_kernels

let solo ctx =
  let level = if ctx.tiny then 2 else 6 and steps = 5 and case = Williamson.Tc5 in
  let build () =
    let mesh, mesh_s = build_mesh level in
    let mesh = Williamson.prepare_mesh case mesh in
    let state, b = Williamson.init case mesh in
    bump (Rng.create (Int64.of_int ctx.seed)) mesh state;
    let dt = Williamson.recommended_dt case mesh in
    (mesh_s, (mesh, state, b, dt, Model.of_state ~dt ~b mesh state))
  in
  let setup_s, mesh_s, (mesh, initial, b, dt, model0) =
    repeat_setup ~reps:(setup_reps ctx) build
  in
  let default_engine = model0.Model.engine in
  let kernel_spans =
    Timestep.with_instrument default_engine (fun k f ->
        Probe.span ("kernel." ^ Timestep.kernel_name k) (fun () ->
            default_engine.Timestep.instrument k f))
  in
  let measure ~traced seconds =
    let engine = if traced then kernel_spans else default_engine in
    closed_loop ~seconds ~steps
      ~start:(fun () -> Model.of_state ~engine ~dt ~b mesh initial)
      ~members:(fun _ -> 1)
      ~step:(fun m -> Probe.span "solo.step" (fun () -> Model.run m ~steps:1))
      ~finish:ignore
  in
  let (base, last), traced = passes ctx measure in
  let last = match traced with Some ((_, m), _) -> m | None -> last in
  let checks =
    reference_checks "solo.final_state" ~dt ~b ~steps mesh ~initial last.Model.state
  in
  let layers =
    match traced with
    | None -> []
    | Some ((l, _), sink) ->
        let st = Probe.self_times sink in
        let n = Array.length l.step_s in
        let per_step us = us /. 1000. /. fi n in
        let stats = Cost.stats_of_mesh mesh in
        let kernel k =
          let name = Timestep.kernel_name k in
          let ms_step = per_step (st ("kernel." ^ name)).Probe.total_us in
          let pk = pattern_kernel name in
          let bytes =
            (Cost.kernel_work stats pk).Cost.bytes *. fi (Cost.kernel_calls_per_step pk)
          in
          [
            ("swe.kernel." ^ name ^ ".ms_per_step", ms_step);
            ("swe.kernel." ^ name ^ ".gbs_computed", bytes /. (ms_step /. 1000.) /. 1e9);
          ]
        in
        let work = Cost.rk4_step_work stats in
        let step_gbs = work.Cost.bytes /. p50 base.step_s /. 1e9 in
        List.concat_map kernel Timestep.all_kernels
        @ [
            ("swe.step.flops_per_byte", work.Cost.flops /. work.Cost.bytes);
            ("swe.step.bw_frac", step_gbs /. ctx.triad_gbs);
            ("model.step_ms_p90", ms (p90 base.step_s));
            ("model.driver_self_ms_per_step", per_step (st "solo.step").Probe.self_us);
            ("trace.overhead_frac", (member_step_ms l /. member_step_ms base) -. 1.);
          ]
        @ runtime_layers sink ~steps:n
  in
  {
    checks;
    attempted = base.jobs + (match traced with Some ((l, _), _) -> l.jobs | None -> 0);
    failed = 0;
    metrics =
      [ ("setup_s", setup_s); ("mesh.build_s", mesh_s) ] @ loop_metrics base @ layers;
    info =
      mesh_info level mesh ~working_set:(Probe.heap_bytes model0)
      @ loop_info base ~steps_per_job:steps
      @ [ ("inputs", Jsonv.Str (Digest.to_hex (digest_state initial))) ];
    sink = Option.map snd traced;
  }

(* --- ensemble-l4x32 ------------------------------------------------------- *)

let ensemble_cases = [| Williamson.Tc5; Williamson.Tc2; Williamson.Tc6; Williamson.Galewsky |]

let ensemble ctx =
  let level = if ctx.tiny then 2 else 4 in
  let capacity = 32 and block = 8 and steps = 3 in
  let rng = Rng.create (Int64.of_int ctx.seed) in
  let configs = Array.init capacity (fun _ -> perturbed_config rng) in
  let case i = ensemble_cases.(i mod Array.length ensemble_cases) in
  let build () =
    let mesh, mesh_s = build_mesh level in
    let ens = Ensemble.create ~capacity ~block mesh in
    let submit_s = Probe.samples () in
    let ids =
      Array.mapi
        (fun i config ->
          let dt = Williamson.recommended_dt (case i) mesh in
          let id, s =
            Probe.time (fun () -> Ensemble.submit_case ens ~config ~dt (case i))
          in
          Probe.push submit_s s;
          id)
        configs
    in
    (mesh_s, (mesh, ens, ids, Probe.to_array submit_s))
  in
  let setup_s, mesh_s, (mesh, ens, ids, submit_s) =
    repeat_setup ~reps:(setup_reps ctx) build
  in
  let initial = Array.map (Ensemble.state ens) ids in
  let failed_members = ref 0 in
  let measure ~traced:_ seconds =
    closed_loop ~seconds ~steps
      ~start:(fun () -> Array.iteri (fun i id -> Ensemble.set_state ens id initial.(i)) ids)
      ~members:(fun () -> Float.to_int (Float.round (Ensemble.occupancy ens *. fi capacity)))
      ~step:(fun () -> Probe.span "ensemble.step" (fun () -> Ensemble.step ens ()))
      ~finish:(fun () ->
        List.iter
          (fun (i : Ensemble.info) ->
            match i.Ensemble.i_status with Ensemble.Failed _ -> incr failed_members | _ -> ())
          (Ensemble.members ens))
  in
  let spec = Ensemble.spec ens in
  let (base, ()), traced =
    passes ctx ~name_of:(Probe.ensemble_task_names spec) measure
  in
  let checks =
    List.concat
      (List.init (Array.length ensemble_cases) (fun i ->
           let c = case i in
           let m = Williamson.prepare_mesh c mesh in
           let _, b = Williamson.init c m in
           reference_checks (Printf.sprintf "ensemble.member%d" i) ~config:configs.(i) ~dt:(Williamson.recommended_dt c mesh) ~b ~steps m
             ~initial:initial.(i) (Ensemble.state ens ids.(i))))
  in
  let jobs = base.jobs + (match traced with Some ((l, ()), _) -> l.jobs | None -> 0) in
  let layers =
    match traced with
    | None -> []
    | Some ((l, ()), sink) ->
        let st = Probe.self_times sink in
        let n = Array.length l.step_s in
        let panels = (capacity + block - 1) / block in
        [
          ("ensemble.step_ms_p50", ms (p50 l.step_s));
          ("ensemble.self_ms_per_step", (st "ensemble.step").Probe.self_us /. 1000. /. fi n);
          ("ensemble.panel_fill", Stats.mean l.members /. fi (panels * block));
          ("ensemble.submit_ms", ms (p50 submit_s));
          ("trace.overhead_frac", (member_step_ms l /. member_step_ms base) -. 1.);
        ]
        @ runtime_layers sink ~steps:n
  in
  {
    checks;
    attempted = jobs * capacity;
    failed = !failed_members;
    metrics =
      [ ("setup_s", setup_s); ("mesh.build_s", mesh_s) ] @ loop_metrics base @ layers;
    info =
      mesh_info level mesh ~working_set:(batch_bytes mesh ~capacity)
      @ loop_info base ~steps_per_job:steps
      @ [
          ("members", Jsonv.Num (fi capacity));
          ("block", Jsonv.Num (fi block));
          ("inputs", Jsonv.Str (Digest.to_hex (Digest.string (Marshal.to_string configs []))));
        ];
    sink = Option.map snd traced;
  }

(* --- dist-l5x4 ------------------------------------------------------------ *)

let dist ctx =
  let level = if ctx.tiny then 2 else 5 and n_ranks = 4 and steps = 10 in
  let case = Williamson.Tc5 and parts = Probe.samples () in
  let build () =
    let mesh, mesh_s = build_mesh level in
    let mesh = Williamson.prepare_mesh case mesh in
    let state, b = Williamson.init case mesh in
    bump (Rng.create (Int64.of_int ctx.seed)) mesh state;
    let dt = Williamson.recommended_dt case mesh in
    let _, part_s =
      Probe.time (fun () ->
          Exchange.build mesh (Mpas_partition.Partition.sfc mesh ~n_parts:n_ranks))
    in
    Probe.push parts part_s;
    (mesh_s, (mesh, state, b, dt, Driver.of_state ~n_ranks ~dt ~b mesh state))
  in
  let setup_s, mesh_s, (mesh, initial, b, dt, driver0) =
    repeat_setup ~reps:(setup_reps ctx) build
  in
  let halo = ref (0, 0) in
  let measure ~traced:_ seconds =
    closed_loop ~seconds ~steps
      ~start:(fun () ->
        let d = Driver.of_state ~n_ranks ~dt ~b mesh initial in
        (d, d.Driver.exchange.Exchange.exchanges, d.Driver.exchange.Exchange.values_moved))
      ~members:(fun _ -> 1)
      ~step:(fun (d, _, _) ->
        Probe.span "dist.step" (fun () -> Driver.run d ~steps:1))
      ~finish:(fun (d, x0, v0) ->
        let x = d.Driver.exchange in
        halo := (x.Exchange.exchanges - x0, x.Exchange.values_moved - v0))
  in
  let (base, (last, _, _)), traced = passes ctx measure in
  let last = match traced with Some ((_, (d, _, _)), _) -> d | None -> last in
  let checks =
    reference_checks "dist.gather_state" ~dt ~b ~steps mesh ~initial
      (Driver.gather_state last)
  in
  let layers =
    match traced with
    | None -> []
    | Some ((l, _), sink) ->
        let xch, values = !halo in
        let exchanges_per_step = fi xch /. fi steps in
        (* Direct exchanges on the last job's own per-rank arrays; the
           ghosts already hold owner values, so the state is unchanged. *)
        let x = last.Driver.exchange in
        let rounds = if ctx.tiny then 5 else 300 in
        let (), exch_s =
          Probe.time (fun () ->
              for _ = 1 to rounds do
                Exchange.exchange x Exchange.Cells
                  (Array.map (fun s -> s.Fields.h) last.Driver.states);
                Exchange.exchange x Exchange.Edges
                  (Array.map (fun s -> s.Fields.u) last.Driver.states);
                Exchange.exchange x Exchange.Vertices
                  (Array.map (fun d -> d.Fields.vorticity) last.Driver.diags)
              done)
        in
        Exchange.reset_stats x;
        let exchange_us = exch_s *. 1e6 /. fi (3 * rounds) in
        let step_ms = member_step_ms l in
        [
          ("dist.partition_s", p50 (Probe.to_array parts));
          ("dist.halo.exchanges_per_step", exchanges_per_step);
          ("dist.halo.bytes_per_step", 8. *. fi values /. fi steps);
          ("dist.exchange_us", exchange_us);
          ("dist.compute_ms_per_step", step_ms -. (exchanges_per_step *. exchange_us /. 1000.));
          ("trace.overhead_frac", (step_ms /. member_step_ms base) -. 1.);
        ]
        @ runtime_layers sink ~steps:(Array.length l.step_s)
  in
  {
    checks;
    attempted = base.jobs + (match traced with Some ((l, _), _) -> l.jobs | None -> 0);
    failed = 0;
    metrics =
      [ ("setup_s", setup_s); ("mesh.build_s", mesh_s) ] @ loop_metrics base @ layers;
    info =
      mesh_info level mesh ~working_set:(Probe.heap_bytes driver0)
      @ loop_info base ~steps_per_job:steps
      @ [
          ("ranks", Jsonv.Num (fi n_ranks));
          ("inputs", Jsonv.Str (Digest.to_hex (digest_state initial)));
        ];
    sink = Option.map snd traced;
  }

(* --- served-l4 ------------------------------------------------------------ *)

(* Three tenants with fair-share weights 2/1/1 and step budgets of 6, 9
   and 2; the third submits its short jobs in the High lane.  One budget
   per tenant keeps the latency quantiles inside a budget class (p50 in
   the 6-step jobs, p90 in the 9-step ones) rather than on the edge
   between two, where they would jump by a whole tick between runs. *)
let tenants =
  [|
    ("alpha", 2., Server.Normal, 6);
    ("beta", 1., Server.Normal, 9);
    ("gamma", 1., Server.High, 2);
  |]

let served_capacity = 16
let served_block = 8

(* Open-loop arrival rate, fixed so that every commit sees the same
   offered load: a tenth of the burst-drain saturation rate (~100
   jobs/s on one lane of an AMD EPYC host, OCaml 5.1.1, no flambda).
   Ticks with one or two members cost nearly as much as full ones, so
   at half the saturation rate the server is busy ~90% of the time and
   the latency quantiles amplified run-to-run speed changes several
   times over; at this rate a job mostly runs alone. *)
let open_rate = 10.

(* Share of the window given to the open loop; the burst drain takes the
   rest, sized at [burst_rate] jobs per second of it. *)
let open_share = 0.6
let burst_rate = 75.

type job = {
  due : float;  (** seconds after the phase starts *)
  tenant : int;
  steps : int;
  case : Williamson.case;
  config : Config.t;
}

(* Job [n] of a phase.  Tenants take turns, so every run carries the
   same budget mix; the seed draws the arrival times, the cases and the
   gravity perturbations. *)
let make_job rng n ~due =
  let tenant = n mod Array.length tenants in
  let _, _, _, steps = tenants.(tenant) in
  {
    due;
    tenant;
    steps;
    case = ensemble_cases.(Rng.int rng (Array.length ensemble_cases));
    config = perturbed_config rng;
  }

(* Poisson arrivals at [rate] over [seconds]; the first job is due at 0
   so that even a short window carries one. *)
let arrivals rng ~rate ~seconds =
  let rec go n t acc =
    let t = t -. (log (1. -. Rng.float rng) /. rate) in
    if t >= seconds then List.rev acc else go (n + 1) t (make_job rng n ~due:t :: acc)
  in
  go 1 0. [ make_job rng 0 ~due:0. ]

(* One event of each kind, in seeded order, at least [gap / 2] ticks
   apart from [first] on: no job can then meet more than two failures
   or lose its only valid checkpoint, so none ends [Failed]. *)
let fault_plan rng ~first ~gap : Fault.plan =
  let kinds = [| Fault.Kernel_raise; Fault.Snapshot_truncate; Fault.Lane_death |] in
  Rng.shuffle rng kinds;
  Array.to_list
    (Array.mapi
       (fun i k ->
         {
           Fault.ev_tick = first + (i * gap) + Rng.int rng (gap / 2);
           ev_kind = k;
           ev_arg = Rng.int rng 4;
         })
       kinds)

type phase = {
  tick_s : float array;
  latency_ms : float array;  (** due time to the end of the completing tick *)
  lag_ms : float array;  (** how late each submit was *)
  submit_s : float array;
  depth : float array;  (** queue depth after each tick *)
  running : float array;  (** running jobs after each tick *)
  fill : float array;  (** members stepped per tick / slots *)
  drain_s : float;  (** from the first tick to the last *)
  completed_steps : int;
  stepped : int;  (** ensemble.members_stepped over the phase *)
  ticks_stepped : int;
  submitted : int;
  lost : int;  (** rejected, failed, shed or cancelled *)
  checkpoints : int;
  checkpoint_bytes : int;
  restores : int;
  rejects : int;
  server : Server.t;
  by_id : (int, job) Hashtbl.t;
}

let counter snap name =
  List.fold_left
    (fun n (_, e) -> match e with Metrics.Counter_value v -> n + v | _ -> n)
    0
    (Metrics.group_labeled snap name)

(* Runs one served phase: [jobs] arrive at their due times (all at once
   for a burst), the server ticks whenever it holds live work, and the
   phase ends when every job is terminal. *)
let served_phase ~mesh ~dts ~fault jobs =
  Gc.compact ();
  let registry = Metrics.create () in
  let s =
    Server.create ~registry ~capacity:served_capacity ~block:served_block
      ~checkpoint_every:2 ~queue_limit:100_000 ~tenant_quota:100_000 ~fault mesh
  in
  let by_id = Hashtbl.create 256 and outstanding = Hashtbl.create 64 in
  let tick_s = Probe.samples () and lat = Probe.samples () and lag = Probe.samples () in
  let submit_s = Probe.samples () and depth = Probe.samples () and running = Probe.samples () in
  let fill = Probe.samples () in
  let lost = ref 0 and completed_steps = ref 0 and submitted = ref 0 in
  let stepped () = counter (Metrics.snapshot registry) "ensemble.members_stepped" in
  let t0 = Probe.now () in
  let t_first_tick = ref nan in
  let submit j =
    let name, weight, priority, _ = tenants.(j.tenant) in
    Probe.push lag (ms (Probe.now () -. (t0 +. j.due)));
    let r, dt =
      Probe.time (fun () ->
          Probe.span "server.submit" (fun () ->
              Server.submit s ~tenant:name ~weight ~priority ~config:j.config
                ~dt:(List.assoc j.case dts) ~steps:j.steps j.case))
    in
    Probe.push submit_s dt;
    incr submitted;
    match r with
    | Ok id ->
        Hashtbl.replace by_id id j;
        Hashtbl.replace outstanding id j
    | Error _ -> incr lost
  in
  let tick () =
    if Float.is_nan !t_first_tick then t_first_tick := Probe.now ();
    let before = stepped () in
    let (), d = Probe.time (fun () -> Probe.span "server.tick" (fun () -> Server.tick s)) in
    let t_end = Probe.now () in
    Probe.push tick_s d;
    Probe.push fill (fi (stepped () - before) /. fi served_capacity);
    Probe.push depth (fi (Server.queue_depth s));
    Probe.push running (fi (Server.running s));
    let finished =
      Hashtbl.fold
        (fun id j acc ->
          match (Server.query s id).Server.jb_status with
          | Server.Completed ->
              Probe.push lat (ms (t_end -. (t0 +. j.due)));
              completed_steps := !completed_steps + j.steps;
              id :: acc
          | Server.Failed _ | Server.Shed _ | Server.Cancelled ->
              incr lost;
              id :: acc
          | Server.Queued | Server.Delayed _ | Server.Running -> acc)
        outstanding []
    in
    List.iter (Hashtbl.remove outstanding) finished
  in
  let pending = ref jobs in
  let rec submit_due () =
    match !pending with
    | j :: rest when t0 +. j.due <= Probe.now () ->
        pending := rest;
        submit j;
        submit_due ()
    | _ -> ()
  in
  let live () = Hashtbl.length outstanding > 0 in
  while !pending <> [] || live () do
    submit_due ();
    if live () then tick ()
    else
      match !pending with
      | j :: _ -> Unix.sleepf (Float.max 0. (t0 +. j.due -. Probe.now ()))
      | [] -> ()
  done;
  let drain_s = Probe.now () -. !t_first_tick in
  let snap = Metrics.snapshot registry in
  let fill = Probe.to_array fill in
  {
    tick_s = Probe.to_array tick_s;
    latency_ms = Probe.to_array lat;
    lag_ms = Probe.to_array lag;
    submit_s = Probe.to_array submit_s;
    depth = Probe.to_array depth;
    running = Probe.to_array running;
    fill;
    drain_s;
    completed_steps = !completed_steps;
    stepped = counter snap "ensemble.members_stepped";
    ticks_stepped = Array.fold_left (fun n f -> if f > 0. then n + 1 else n) 0 fill;
    submitted = !submitted;
    lost = !lost;
    checkpoints = counter snap "server.checkpoints_written";
    checkpoint_bytes = counter snap "server.checkpoint_bytes";
    restores = counter snap "server.restores";
    rejects = counter snap "server.jobs_rejected";
    server = s;
    by_id;
  }

(* Completed jobs held to the reference: the first one that recovered
   from a fault, if any, and the first one to complete. *)
let served_checks name ~mesh ~dts { server = s; by_id; _ } =
  let completed =
    List.filter (fun i -> i.Server.jb_status = Server.Completed) (Server.jobs s)
  in
  let pick =
    List.sort_uniq compare
      (List.filter_map Fun.id
         [
           Option.map (fun i -> i.Server.jb_id)
             (List.find_opt (fun i -> i.Server.jb_retries > 0) completed);
           Option.map (fun i -> i.Server.jb_id) (List.nth_opt completed 0);
         ])
  in
  List.concat_map
    (fun id ->
      let j = Hashtbl.find by_id id in
      let m = Williamson.prepare_mesh j.case mesh in
      let initial, b = Williamson.init j.case m in
      match Server.result s id with
      | Some final ->
          reference_checks
            (Printf.sprintf "%s.job_%d" name id)
            ~config:j.config ~dt:(List.assoc j.case dts) ~b ~steps:j.steps m ~initial final
      | None -> [ (Printf.sprintf "%s.job_%d.result" name id, false) ])
    pick

let served ctx =
  let level = if ctx.tiny then 2 else 4 in
  let build () =
    let mesh, mesh_s = build_mesh level in
    let s =
      Server.create ~registry:(Metrics.create ()) ~capacity:served_capacity
        ~block:served_block ~checkpoint_every:2 mesh
    in
    (mesh_s, (mesh, s))
  in
  let setup_s, mesh_s, (mesh, _) = repeat_setup ~reps:(setup_reps ctx) build in
  let dts = Array.to_list (Array.map (fun c -> (c, Williamson.recommended_dt c mesh)) ensemble_cases) in
  let first, gap = if ctx.tiny then (2, 4) else (5, 12) in
  let results = ref [] and inputs = ref None in
  let measure ~traced:_ seconds =
    let rng = Rng.create (Int64.of_int ctx.seed) in
    let open_s = seconds *. open_share in
    let open_jobs = arrivals rng ~rate:open_rate ~seconds:open_s in
    let burst =
      List.init
        (max 2 (Float.to_int (burst_rate *. (seconds -. open_s))))
        (fun n -> make_job rng n ~due:0.)
    in
    let faults = (fault_plan rng ~first ~gap, fault_plan rng ~first ~gap) in
    if !inputs = None then
      inputs := Some (Digest.to_hex (Digest.string (Marshal.to_string (open_jobs, burst, faults) [])));
    let a = served_phase ~mesh ~dts ~fault:(fst faults) open_jobs in
    let b = served_phase ~mesh ~dts ~fault:(snd faults) burst in
    results := [ a; b ];
    (a, b, List.length burst)
  in
  let spec = Ensemble.spec (Ensemble.create ~capacity:served_capacity ~block:served_block mesh) in
  let base, traced = passes ctx ~name_of:(Probe.ensemble_task_names spec) measure in
  let checks =
    List.concat
      (List.mapi
         (fun i p -> served_checks (if i = 0 then "served.open" else "served.burst") ~mesh ~dts p)
         !results)
  in
  let e2e (pa, pb, n_burst) =
    let tick_total p = Array.fold_left ( +. ) 0. p.tick_s in
    [
      ( "member_step_ms",
        ms (tick_total pa +. tick_total pb) /. fi (pa.completed_steps + pb.completed_steps) );
      ("job_latency_ms_p50", p50 pa.latency_ms);
      ("job.latency_ms_p90", p90 pa.latency_ms);
      ("saturation_jobs_per_s", fi (n_burst - pb.lost) /. pb.drain_s);
    ]
  in
  let counts (pa, pb, _) = (pa.submitted + pb.submitted, pa.lost + pb.lost) in
  let layers =
    match traced with
    | None -> []
    | Some (((pa, pb, _) as t), sink) ->
        let st = Probe.self_times sink in
        let tick = st "server.tick" in
        let ticks = Array.append pa.tick_s pb.tick_s in
        let n_ticks = fi (Array.length ticks) in
        let steps = pa.ticks_stepped + pb.ticks_stepped in
        let fill = List.filter (fun f -> f > 0.) (Array.to_list (Array.append pa.fill pb.fill)) in
        let base_step = List.assoc "member_step_ms" (e2e base) in
        [
          ("server.tick_ms_p50", ms (p50 ticks));
          ("server.tick_ms_p90", ms (p90 ticks));
          ("server.tick_self_ms", tick.Probe.self_us /. 1000. /. fi (max 1 tick.Probe.count));
          ("server.submit_us_p50", p50 pa.submit_s *. 1e6);
          ("server.queue_depth_p90", p90 pa.depth);
          ("server.running_mean", Stats.mean pa.running);
          ( "server.useful_step_frac",
            fi (pa.completed_steps + pb.completed_steps) /. fi (max 1 (pa.stepped + pb.stepped)) );
          ("server.checkpoints_per_tick", fi (pa.checkpoints + pb.checkpoints) /. n_ticks);
          ( "server.checkpoint_kb_per_tick",
            fi (pa.checkpoint_bytes + pb.checkpoint_bytes) /. 1024. /. n_ticks );
          ("server.restores", fi (pa.restores + pb.restores));
          ("server.rejects", fi (pa.rejects + pb.rejects));
          ("server.generator_lag_ms_p90", p90 pa.lag_ms);
          ("ensemble.panel_fill", if fill = [] then 0. else Stats.mean (Array.of_list fill));
          ( "trace.overhead_frac",
            (List.assoc "member_step_ms" (e2e t) /. base_step) -. 1. );
        ]
        @ runtime_layers sink ~steps
  in
  let submitted, lost = counts base in
  let submitted', lost' = match traced with Some (t, _) -> counts t | None -> (0, 0) in
  {
    checks;
    attempted = submitted + submitted';
    failed = lost + lost';
    metrics = [ ("setup_s", setup_s); ("mesh.build_s", mesh_s) ] @ e2e base @ layers;
    info =
      mesh_info level mesh ~working_set:(batch_bytes mesh ~capacity:served_capacity)
      @ [
          ("capacity", Jsonv.Num (fi served_capacity));
          ("block", Jsonv.Num (fi served_block));
          ("open_rate_jobs_per_s", Jsonv.Num open_rate);
          ("burst_rate_jobs_per_s", Jsonv.Num burst_rate);
          ("inputs", Jsonv.Str (Option.get !inputs));
        ];
    sink = Option.map snd traced;
  }

(* --- registry ------------------------------------------------------------- *)

(* BENCHMARK.json records why each workload is in the set. *)
type t = { name : string; run : ctx -> outcome }

let all =
  [
    { name = "solo-l6"; run = solo };
    { name = "ensemble-l4x32"; run = ensemble };
    { name = "served-l4"; run = served };
    { name = "dist-l5x4"; run = dist };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Snapshot codec timings for one level-4 member image, from direct
   calls: the same work on every workload. *)
let snapshot_layers ~tiny =
  let n_cells = Icosphere.points_at_level 4 in
  let st =
    {
      Fields.h = Array.init n_cells (fun i -> 5000. +. fi i);
      u = Array.init (3 * (n_cells - 2)) (fun i -> sin (fi i));
      tracers = [||];
    }
  in
  let reps = if tiny then 3 else 51 in
  let image = Snapshot.encode (Snapshot.singleton ~step:1 0 st) in
  let timed f = p50 (Array.init reps (fun _ -> snd (Probe.time f))) in
  [
    ("snapshot.encode_ms", ms (timed (fun () -> ignore (Snapshot.encode (Snapshot.singleton ~step:1 0 st)))));
    ("snapshot.decode_ms", ms (timed (fun () -> ignore (Snapshot.decode image))));
  ]

let run w ctx =
  let o = w.run ctx in
  let extra = if ctx.trace then snapshot_layers ~tiny:ctx.tiny @ [ ("machine.triad_gbs", ctx.triad_gbs) ] else [] in
  let checks = o.checks in
  let attempted = o.attempted + List.length checks in
  let failed = o.failed + List.length (List.filter (fun (_, ok) -> not ok) checks) in
  {
    o with
    attempted;
    failed;
    metrics =
      o.metrics @ extra
      @ [ ("ok_frac", 1. -. (fi failed /. fi attempted)); ("peak_rss_mb", Probe.peak_rss_mb ()) ];
  }
