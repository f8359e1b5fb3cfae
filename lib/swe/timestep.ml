
open Mpas_par

type kernel =
  | Compute_tend
  | Enforce_boundary_edge
  | Compute_next_substep_state
  | Compute_solve_diagnostics
  | Accumulative_update
  | Mpas_reconstruct
  | Halo_exchange

let kernel_name = function
  | Compute_tend -> "compute_tend"
  | Enforce_boundary_edge -> "enforce_boundary_edge"
  | Compute_next_substep_state -> "compute_next_substep_state"
  | Compute_solve_diagnostics -> "compute_solve_diagnostics"
  | Accumulative_update -> "accumulative_update"
  | Mpas_reconstruct -> "mpas_reconstruct"
  | Halo_exchange -> "halo_exchange"

(* Halo_exchange carries no serial profile row: only the distributed
   runtime issues it. *)
let all_kernels =
  [ Compute_tend; Enforce_boundary_edge; Compute_next_substep_state;
    Compute_solve_diagnostics; Accumulative_update; Mpas_reconstruct ]

type workspace = {
  provis : Fields.state;
  tend : Fields.tendencies;
  accum : Fields.state;
  diag : Fields.diagnostics;
  recon : Fields.reconstruction;
}

type engine = {
  gather : bool;
  pool : Pool.t option;
  instrument : kernel -> (unit -> unit) -> unit;
  custom : custom option;
}

and custom =
  engine ->
  Config.t ->
  Mpas_mesh.Mesh.t ->
  b:float array ->
  recon:Reconstruct.t option ->
  dt:float ->
  state:Fields.state ->
  work:workspace ->
  unit

let no_instrument _ f = f ()

let original =
  { gather = false; pool = None; instrument = no_instrument; custom = None }

let refactored =
  { gather = true; pool = None; instrument = no_instrument; custom = None }

let parallel pool =
  { gather = true; pool = Some pool; instrument = no_instrument; custom = None }

let with_instrument e instrument = { e with instrument }
let with_custom e custom = { e with custom = Some custom }

let observed ?(registry = Mpas_obs.Metrics.default) e =
  let open Mpas_obs in
  (* One timer per kernel, resolved once; the span arguments record the
     engine variant the measurement was taken under. *)
  let timers =
    List.map
      (fun k -> (k, Metrics.timer ~registry ("swe.kernel." ^ kernel_name k)))
      all_kernels
  in
  let layout = if e.gather then "csr" else "scatter" in
  let domains =
    match e.pool with Some p -> Mpas_par.Pool.size p | None -> 1
  in
  let args =
    [ ("layout", layout); ("domains", string_of_int domains) ]
  in
  let base = e.instrument in
  with_instrument e (fun kernel f ->
      Metrics.Timer.time (List.assq kernel timers) (fun () ->
          Trace.with_span ~cat:"kernel" ~args (kernel_name kernel) (fun () ->
              base kernel f)))

let alloc_workspace ?(n_tracers = 0) m =
  {
    provis = Fields.alloc_state ~n_tracers m;
    tend = Fields.alloc_tendencies ~n_tracers m;
    accum = Fields.alloc_state ~n_tracers m;
    diag = Fields.alloc_diagnostics ~n_tracers m;
    recon = Fields.alloc_reconstruction m;
  }

(* --- kernels ----------------------------------------------------------- *)

let compute_solve_diagnostics e (cfg : Config.t) m ~dt ~(state : Fields.state)
    ~(diag : Fields.diagnostics) =
  let pool = e.pool in
  let h = state.h and u = state.u in
  if e.gather then begin
    (match cfg.h_adv_order with
    | Config.Second -> ()
    | Config.Fourth -> Operators.d2fdx2 ?pool m ~h ~out:diag.d2fdx2_cell);
    Operators.h_edge ?pool m ~order:cfg.h_adv_order ~h
      ~d2fdx2_cell:diag.d2fdx2_cell ~out:diag.h_edge;
    Operators.kinetic_energy ?pool m ~u ~out:diag.ke;
    Operators.divergence ?pool m ~u ~out:diag.divergence;
    Operators.vorticity ?pool m ~u ~out:diag.vorticity;
    Operators.h_vertex ?pool m ~h ~out:diag.h_vertex
  end
  else begin
    (match cfg.h_adv_order with
    | Config.Second -> ()
    | Config.Fourth -> Operators.d2fdx2_scatter m ~h ~out:diag.d2fdx2_cell);
    Operators.h_edge m ~order:cfg.h_adv_order ~h
      ~d2fdx2_cell:diag.d2fdx2_cell ~out:diag.h_edge;
    Operators.kinetic_energy_scatter m ~u ~out:diag.ke;
    Operators.divergence_scatter m ~u ~out:diag.divergence;
    Operators.vorticity_scatter m ~u ~out:diag.vorticity;
    Operators.h_vertex m ~h ~out:diag.h_vertex
  end;
  Operators.pv_vertex ?pool m ~vorticity:diag.vorticity ~h_vertex:diag.h_vertex
    ~out:diag.pv_vertex;
  (if e.gather then
     Operators.pv_cell ?pool m ~pv_vertex:diag.pv_vertex ~out:diag.pv_cell
   else Operators.pv_cell_scatter m ~pv_vertex:diag.pv_vertex ~out:diag.pv_cell);
  Operators.tangential_velocity ?pool m ~u ~out:diag.v_tangential;
  Operators.grad_pv ?pool m ~pv_cell:diag.pv_cell ~pv_vertex:diag.pv_vertex
    ~out_n:diag.grad_pv_n ~out_t:diag.grad_pv_t;
  Operators.pv_edge ?pool m ~apvm_factor:cfg.apvm_factor ~dt
    ~pv_vertex:diag.pv_vertex ~grad_pv_n:diag.grad_pv_n
    ~grad_pv_t:diag.grad_pv_t ~u ~v_tangential:diag.v_tangential
    ~out:diag.pv_edge;
  Array.iteri
    (fun k tracer ->
      Operators.tracer_edge ?pool m ~scheme:cfg.tracer_adv ~tracer ~u
        ~out:diag.tracer_edge.(k))
    state.Fields.tracers

let compute_tend e (cfg : Config.t) m ~b ~(state : Fields.state)
    ~(diag : Fields.diagnostics) ~(tend : Fields.tendencies) =
  let pool = e.pool in
  (if e.gather then
     Operators.tend_h ?pool m ~h_edge:diag.h_edge ~u:state.u ~out:tend.tend_h
   else
     Operators.tend_h_scatter m ~h_edge:diag.h_edge ~u:state.u
       ~out:tend.tend_h);
  Operators.tend_u ?pool ~pv_average:cfg.pv_average m ~gravity:cfg.gravity
    ~h:state.h ~b ~ke:diag.ke ~h_edge:diag.h_edge ~u:state.u
    ~pv_edge:diag.pv_edge ~out:tend.tend_u;
  Operators.dissipation ?pool m ~visc2:cfg.visc2 ~divergence:diag.divergence
    ~vorticity:diag.vorticity ~tend_u:tend.tend_u;
  Operators.local_forcing ?pool m ~drag:cfg.bottom_drag ~u:state.u
    ~tend_u:tend.tend_u;
  (* Biharmonic diffusion (extension): two more Laplacian sweeps. *)
  if cfg.visc4 <> 0. then begin
    Operators.velocity_laplacian ?pool m ~divergence:diag.divergence
      ~vorticity:diag.vorticity ~out:diag.lap_u;
    (if e.gather then begin
       Operators.divergence ?pool m ~u:diag.lap_u ~out:diag.div_lap;
       Operators.vorticity ?pool m ~u:diag.lap_u ~out:diag.vort_lap
     end
     else begin
       Operators.divergence_scatter m ~u:diag.lap_u ~out:diag.div_lap;
       Operators.vorticity_scatter m ~u:diag.lap_u ~out:diag.vort_lap
     end);
    Operators.del4_dissipation ?pool m ~visc4:cfg.visc4 ~div_lap:diag.div_lap
      ~vort_lap:diag.vort_lap ~tend_u:tend.tend_u
  end;
  (* Tracer transport (extension): conservative flux divergence. *)
  Array.iteri
    (fun k tracer_edge ->
      if e.gather then
        Operators.tend_tracer ?pool m ~h_edge:diag.h_edge ~u:state.u
          ~tracer_edge ~out:tend.tend_tracers.(k)
      else
        Operators.tend_tracer_scatter m ~h_edge:diag.h_edge ~u:state.u
          ~tracer_edge ~out:tend.tend_tracers.(k))
    diag.tracer_edge

(* --- driver ------------------------------------------------------------- *)

let init_diagnostics e cfg m ~dt ~state ~work =
  compute_solve_diagnostics e cfg m ~dt ~state ~diag:work.diag

let rk4_step e cfg m ~b ?recon ~dt ~(state : Fields.state) ~work () =
  let substep_coef = [| dt /. 2.; dt /. 2.; dt |] in
  let accum_coef = [| dt /. 6.; dt /. 3.; dt /. 3.; dt /. 6. |] in
  Fields.blit_state ~src:state ~dst:work.accum;
  Fields.blit_state ~src:state ~dst:work.provis;
  (* Tracer accumulators carry the conservative quantity h * tracer. *)
  Operators.seed_tracer_accumulator ?pool:e.pool m ~state ~accum:work.accum;
  (* Invariant: work.diag matches work.provis at every compute_tend. *)
  for rk = 0 to 3 do
    e.instrument Compute_tend (fun () ->
        compute_tend e cfg m ~b ~state:work.provis ~diag:work.diag
          ~tend:work.tend);
    e.instrument Enforce_boundary_edge (fun () ->
        Operators.enforce_boundary_edge ?pool:e.pool m ~tend_u:work.tend.tend_u);
    if rk < 3 then begin
      e.instrument Compute_next_substep_state (fun () ->
          Operators.next_substep_state ?pool:e.pool m ~coef:substep_coef.(rk)
            ~base:state ~tend:work.tend ~provis:work.provis;
          Operators.next_substep_tracers ?pool:e.pool m
            ~coef:substep_coef.(rk) ~base:state ~tend:work.tend
            ~provis:work.provis);
      e.instrument Compute_solve_diagnostics (fun () ->
          compute_solve_diagnostics e cfg m ~dt ~state:work.provis
            ~diag:work.diag);
      e.instrument Accumulative_update (fun () ->
          Operators.accumulate ?pool:e.pool m ~coef:accum_coef.(rk)
            ~tend:work.tend ~accum:work.accum;
          Operators.accumulate_tracers ?pool:e.pool m ~coef:accum_coef.(rk)
            ~tend:work.tend ~accum:work.accum)
    end
    else begin
      e.instrument Accumulative_update (fun () ->
          Operators.accumulate ?pool:e.pool m ~coef:accum_coef.(rk)
            ~tend:work.tend ~accum:work.accum;
          Operators.accumulate_tracers ?pool:e.pool m ~coef:accum_coef.(rk)
            ~tend:work.tend ~accum:work.accum);
      Fields.blit_state ~src:work.accum ~dst:state;
      Operators.finalize_tracers ?pool:e.pool m ~state;
      e.instrument Compute_solve_diagnostics (fun () ->
          compute_solve_diagnostics e cfg m ~dt ~state ~diag:work.diag);
      match recon with
      | None -> ()
      | Some r ->
          e.instrument Mpas_reconstruct (fun () ->
              Reconstruct.run ?pool:e.pool r m ~u:state.u ~out:work.recon)
    end
  done

(* Strong-stability-preserving RK-3 (Shu & Osher 1988):
     s1 = state + dt L(state)
     s2 = 3/4 state + 1/4 (s1 + dt L(s1))
     new = 1/3 state + 2/3 (s2 + dt L(s2))
   The same six kernels as Algorithm 1 in a different driver loop; the
   paper's registry and data-flow diagram are untouched. *)
let ssprk3_step e cfg m ~b ?recon ~dt ~(state : Fields.state) ~work () =
  let stage ~a ~bcoef ~c ~from ~out =
    e.instrument Compute_tend (fun () ->
        compute_tend e cfg m ~b ~state:from ~diag:work.diag ~tend:work.tend);
    e.instrument Enforce_boundary_edge (fun () ->
        Operators.enforce_boundary_edge ?pool:e.pool m ~tend_u:work.tend.tend_u);
    e.instrument Compute_next_substep_state (fun () ->
        Operators.blend ?pool:e.pool m ~a ~base:state ~b:bcoef ~other:from ~c
          ~tend:work.tend ~out);
    e.instrument Compute_solve_diagnostics (fun () ->
        compute_solve_diagnostics e cfg m ~dt ~state:out ~diag:work.diag)
  in
  (* Diagnostics entering the step describe [state]. *)
  Fields.blit_state ~src:state ~dst:work.provis;
  stage ~a:1. ~bcoef:0. ~c:dt ~from:work.provis ~out:work.accum;
  stage ~a:(3. /. 4.) ~bcoef:(1. /. 4.) ~c:(dt /. 4.) ~from:work.accum
    ~out:work.provis;
  stage ~a:(1. /. 3.) ~bcoef:(2. /. 3.) ~c:(2. *. dt /. 3.) ~from:work.provis
    ~out:work.accum;
  Fields.blit_state ~src:work.accum ~dst:state;
  match recon with
  | None -> ()
  | Some r ->
      e.instrument Mpas_reconstruct (fun () ->
          Reconstruct.run ?pool:e.pool r m ~u:state.Fields.u ~out:work.recon)

(* Dispatch: a custom step (the dataflow task runtime) takes the whole
   step over; otherwise select the configured integrator. *)
let step e (cfg : Config.t) m ~b ?recon ~dt ~state ~work () =
  match e.custom with
  | Some f -> f e cfg m ~b ~recon ~dt ~state ~work
  | None -> (
      match cfg.Config.integrator with
      | Config.Rk4 -> rk4_step e cfg m ~b ?recon ~dt ~state ~work ()
      | Config.Ssprk3 -> ssprk3_step e cfg m ~b ?recon ~dt ~state ~work ())
