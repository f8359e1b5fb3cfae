open Mpas_par
open Mpas_swe
open Mpas_patterns

type cache = {
  c_cfg : Config.t;
  c_mesh : Mpas_mesh.Mesh.t;
  c_b : float array;
  c_dt : float;
  c_state : Fields.state;
  c_work : Timestep.workspace;
  c_recon : Reconstruct.t option;
  c_spec : Spec.t;
  c_env : Bind.env;
  c_early : (unit -> unit) array;
  c_final : (unit -> unit) array;
}

type tiling = [ `Off | `Auto | `Block of int ]

type t = {
  t_mode : Exec.mode;
  t_pool : Pool.t option;
  t_plan : Mpas_hybrid.Plan.t option;
  t_split : float;
  t_host_lanes : int;
  t_fuse : bool;
  t_tiling : tiling;
  t_log : Exec.log option;
  mutable t_cache : cache option;
}

let create ?(mode = Exec.Async) ?pool ?plan ?(split = 0.5) ?host_lanes
    ?(fuse = false) ?(tiling = `Off) ?log () =
  if not (0. <= split && split <= 1.) then
    invalid_arg "Mpas_runtime.Engine.create: split outside [0, 1]";
  (match tiling with
  | `Block b when b < 1 ->
      invalid_arg "Mpas_runtime.Engine.create: tile block < 1"
  | _ -> ());
  let lanes = match pool with None -> 1 | Some p -> Pool.size p in
  let host_lanes =
    match host_lanes with
    | Some h ->
        if h < 1 || h > lanes then
          invalid_arg "Mpas_runtime.Engine.create: host_lanes out of range";
        h
    | None -> (
        match plan with None -> lanes | Some _ -> Int.max 1 (lanes / 2))
  in
  (* Probe with the full instance set: a plan that puts work on the
     device needs a device lane regardless of reconstruction. *)
  (match plan with
  | Some _ when mode <> Exec.Sequential ->
      let probe = Spec.build ?plan ~split ~recon:true () in
      if Spec.uses_device probe && lanes - host_lanes < 1 then
        invalid_arg
          "Mpas_runtime.Engine.create: plan places device work but no lane \
           is left to serve it (pool too small or host_lanes too high)"
  | _ -> ());
  {
    t_mode = mode;
    t_pool = pool;
    t_plan = plan;
    t_split = split;
    t_host_lanes = host_lanes;
    t_fuse = fuse;
    t_tiling = tiling;
    t_log = log;
    t_cache = None;
  }

let mode t = t.t_mode
let split t = t.t_split
let host_lanes t = t.t_host_lanes
let fused t = t.t_fuse
let program t = Option.map (fun c -> c.c_spec) t.t_cache

(* A (super-)task's loop runs over its output space; tile count rounds
   the space length up into cache-sized blocks.  [`Auto] sizes the
   block from the private L2 of the paper's host CPU model, a fixed
   constant rather than a probe of the running machine (every lane of
   this runtime is a CPU thread — the device lanes emulate the
   accelerator stream), but never cuts a space into more than ~2 tiles
   per core the OS can actually run: tiles below the cache block buy no
   locality, and tiles beyond the stealable parallelism only buy
   scheduler overhead. *)
let tile_fn tiling (m : Mpas_mesh.Mesh.t) =
  match tiling with
  | `Off -> fun _ -> 1
  | (`Auto | `Block _) as tl ->
      let block_of =
        match tl with
        | `Block b -> fun _ -> b
        | `Auto ->
            let cache_block =
              Mpas_machine.Hw.(tile_elements (cache_of xeon_e5_2680_v2))
            in
            let cores = Domain.recommended_domain_count () in
            fun len -> Int.max cache_block ((len + (2 * cores) - 1) / (2 * cores))
      in
      fun (inst : Pattern.instance) ->
        let space =
          match Pattern.stencil_output inst with
          | Some p -> p
          | None -> (
              match inst.Pattern.spaces with p :: _ -> p | [] -> Pattern.Mass)
        in
        let len =
          match space with
          | Pattern.Mass -> m.Mpas_mesh.Mesh.n_cells
          | Pattern.Velocity -> m.Mpas_mesh.Mesh.n_edges
          | Pattern.Vorticity -> m.Mpas_mesh.Mesh.n_vertices
        in
        let block = block_of len in
        Int.max 1 ((len + block - 1) / block)

let handles (cfg : Config.t) (state : Fields.state) =
  cfg.Config.integrator = Config.Rk4
  && cfg.Config.visc4 = 0.
  && Fields.n_tracers state = 0

let same_recon a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> x == y
  | _ -> false

(* Compiling the program is O(instances), not O(mesh); still, model
   runs call step with the same arrays every time, so one compiled
   program is reused for the whole run. *)
let prepare t cfg m ~b ~recon ~dt ~state ~work =
  match t.t_cache with
  | Some c
    when c.c_cfg = cfg && c.c_mesh == m && c.c_b == b && c.c_dt = dt
         && c.c_state == state && c.c_work == work
         && same_recon c.c_recon recon ->
      c
  | _ ->
      let spec =
        Spec.build ?plan:t.t_plan ~split:t.t_split ~fuse:t.t_fuse
          ~tile:(tile_fn t.t_tiling m) ~recon:(recon <> None) ()
      in
      let env =
        { Bind.cfg; mesh = m; b; dt; state; work; recon; rk = 0 }
      in
      let c =
        {
          c_cfg = cfg;
          c_mesh = m;
          c_b = b;
          c_dt = dt;
          c_state = state;
          c_work = work;
          c_recon = recon;
          c_spec = spec;
          c_env = env;
          c_early =
            Array.map (Bind.compile env ~final:false) spec.Spec.early.Spec.tasks;
          c_final =
            Array.map (Bind.compile env ~final:true) spec.Spec.final.Spec.tasks;
        }
      in
      t.t_cache <- Some c;
      c

let step t (e : Timestep.engine) cfg m ~b ~recon ~dt ~state ~work =
  if not (handles cfg state) then
    (* Outside the task program (SSP RK-3, tracers, del4): the classic
       driver, on the same pool. *)
    Timestep.step
      { e with Timestep.custom = None }
      cfg m ~b ?recon ~dt ~state ~work ()
  else begin
    let c = prepare t cfg m ~b ~recon ~dt ~state ~work in
    let env = c.c_env in
    Fields.blit_state ~src:state ~dst:work.Timestep.accum;
    Fields.blit_state ~src:state ~dst:work.Timestep.provis;
    let instrument tk body =
      e.Timestep.instrument
        (Bind.timestep_kernel tk.Spec.instance.Pattern.kernel)
        body
    in
    for rk = 0 to 2 do
      env.Bind.rk <- rk;
      Exec.run_phase ?log:t.t_log ~mode:t.t_mode ~pool:t.t_pool
        ~host_lanes:t.t_host_lanes ~phase:`Early ~substep:rk ~instrument
        c.c_spec.Spec.early c.c_early
    done;
    env.Bind.rk <- 3;
    Exec.run_phase ?log:t.t_log ~mode:t.t_mode ~pool:t.t_pool
      ~host_lanes:t.t_host_lanes ~phase:`Final ~substep:3 ~instrument
      c.c_spec.Spec.final c.c_final
  end

let timestep_engine t =
  let custom e cfg m ~b ~recon ~dt ~state ~work =
    step t e cfg m ~b ~recon ~dt ~state ~work
  in
  {
    Timestep.refactored with
    Timestep.pool = t.t_pool;
    custom = Some custom;
  }
