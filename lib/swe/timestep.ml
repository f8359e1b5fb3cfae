
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

(* --- the paper's original loops (Algorithm 2) --------------------------- *)

(* The [original] engine's phases: irregular reductions in their scatter
   form, one kernel after another, on one full-range rank. *)
let scatter_diagnostics e (cfg : Config.t) m ~dt ~(state : Fields.state)
    ~(diag : Fields.diagnostics) =
  let pool = e.pool in
  let h = state.h and u = state.u in
  (match cfg.h_adv_order with
  | Config.Second -> ()
  | Config.Fourth -> Operators.d2fdx2_scatter m ~h ~out:diag.d2fdx2_cell);
  Operators.h_edge ?pool m ~order:cfg.h_adv_order ~h
    ~d2fdx2_cell:diag.d2fdx2_cell ~out:diag.h_edge;
  Operators.kinetic_energy_scatter m ~u ~out:diag.ke;
  Operators.divergence_scatter m ~u ~out:diag.divergence;
  Operators.vorticity_scatter m ~u ~out:diag.vorticity;
  Operators.h_vertex ?pool m ~h ~out:diag.h_vertex;
  Operators.pv_vertex ?pool m ~vorticity:diag.vorticity ~h_vertex:diag.h_vertex
    ~out:diag.pv_vertex;
  Operators.pv_cell_scatter m ~pv_vertex:diag.pv_vertex ~out:diag.pv_cell;
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

let scatter_tend e (cfg : Config.t) m ~b ~(state : Fields.state)
    ~(diag : Fields.diagnostics) ~(tend : Fields.tendencies) =
  let pool = e.pool in
  Operators.tend_h_scatter m ~h_edge:diag.h_edge ~u:state.u ~out:tend.tend_h;
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
    Operators.divergence_scatter m ~u:diag.lap_u ~out:diag.div_lap;
    Operators.vorticity_scatter m ~u:diag.lap_u ~out:diag.vort_lap;
    Operators.del4_dissipation ?pool m ~visc4:cfg.visc4 ~div_lap:diag.div_lap
      ~vort_lap:diag.vort_lap ~tend_u:tend.tend_u
  end;
  (* Tracer transport (extension): conservative flux divergence. *)
  Array.iteri
    (fun k tracer_edge ->
      Operators.tend_tracer_scatter m ~h_edge:diag.h_edge ~u:state.u
        ~tracer_edge ~out:tend.tend_tracers.(k))
    diag.tracer_edge

(* --- rank-local sweeps: the fused chain order ------------------------- *)

type halo = Cells | Edges | Vertices

type rank = {
  cells : Span.t;
  edges : Span.t;
  vertices : Span.t;
  state : Fields.state;
  work : workspace;
}

type exchange = halo -> (rank -> float array) -> unit

let no_exchange _ _ = ()

let solo_rank (m : Mpas_mesh.Mesh.t) ~state ~work =
  {
    cells = Span.full m.n_cells;
    edges = Span.full m.n_edges;
    vertices = Span.full m.n_vertices;
    state;
    work;
  }

(* The accumulative update riding a chain: [accum += coef * tend], the
   sum also stored into [publish] when given. *)
let ride acc accum publish =
  Option.map (fun coef -> (coef, accum, publish)) acc

(* compute_tend on [src r], in the runtime's fused order: [A1 (+X4)],
   [B1 C1 X1 X2 (+X5)], then the extensions.  In the final substep
   [publish = Some coef] rides the accumulative update on both chains
   and stores the sums into the state.  Del-4 diffusion lands after the
   chain, so then X2 and X5 leave it: {!mask_boundary} and the final
   substep's update run them. *)
let tendencies e (cfg : Config.t) m ~b ~(exchange : exchange) ~src ~publish
    ranks =
  if not e.gather then
    Array.iter
      (fun r ->
        scatter_tend e cfg m ~b ~state:(src r) ~diag:r.work.diag
          ~tend:r.work.tend)
      ranks
  else begin
    let pool = e.pool in
    let del4 = cfg.visc4 <> 0. in
    let dissip (d : Fields.diagnostics) =
      if cfg.visc2 <> 0. then Some (cfg.visc2, d.divergence, d.vorticity)
      else None
    in
    Array.iter
      (fun r ->
        let s : Fields.state = src r and d = r.work.diag and t = r.work.tend in
        Operators.tend_h_chain ?pool m ~h_edge:d.h_edge ~u:s.u ~out:t.tend_h
          ~x4:(ride publish r.work.accum.h (Some r.state.h))
          ~on:r.cells;
        Operators.tend_u_chain ?pool m ~pv_average:cfg.pv_average
          ~gravity:cfg.gravity ~h:s.h ~b ~ke:d.ke ~h_edge:d.h_edge ~u:s.u
          ~pv_edge:d.pv_edge ~out:t.tend_u ~dissip:(dissip d)
          ~drag:cfg.bottom_drag
          ~boundary:(m.Mpas_mesh.Mesh.has_boundary && not del4)
          ~x5:
            (if del4 then None
             else ride publish r.work.accum.u (Some r.state.u))
          ~on:r.edges)
      ranks;
    (* Biharmonic diffusion (extension): two more Laplacian sweeps. *)
    if del4 then begin
      Array.iter
        (fun r ->
          let d = r.work.diag in
          Operators.velocity_laplacian ?pool ~on:r.edges m
            ~divergence:d.divergence ~vorticity:d.vorticity ~out:d.lap_u)
        ranks;
      exchange Edges (fun r -> r.work.diag.lap_u);
      Array.iter
        (fun r ->
          let d = r.work.diag in
          Operators.divergence ?pool ~on:r.cells m ~u:d.lap_u ~out:d.div_lap;
          Operators.vorticity ?pool ~on:r.vertices m ~u:d.lap_u
            ~out:d.vort_lap)
        ranks;
      exchange Cells (fun r -> r.work.diag.div_lap);
      exchange Vertices (fun r -> r.work.diag.vort_lap);
      Array.iter
        (fun r ->
          let d = r.work.diag and t = r.work.tend in
          Operators.del4_dissipation ?pool ~on:r.edges m ~visc4:cfg.visc4
            ~div_lap:d.div_lap ~vort_lap:d.vort_lap ~tend_u:t.tend_u)
        ranks
    end;
    (* Tracer transport (extension): conservative flux divergence. *)
    Array.iter
      (fun r ->
        let s : Fields.state = src r and d = r.work.diag and t = r.work.tend in
        Array.iteri
          (fun k tracer_edge ->
            Operators.tend_tracer ?pool ~on:r.cells m ~h_edge:d.h_edge ~u:s.u
              ~tracer_edge ~out:t.tend_tracers.(k))
          d.tracer_edge)
      ranks
  end

(* X2 where the tend chain did not carry it: always in the scatter
   order, and when del-4 diffusion followed the chain (the boundary mask
   applies after every contribution). *)
let mask_boundary e (cfg : Config.t) m ranks =
  if (not e.gather) || cfg.visc4 <> 0. then
    Array.iter
      (fun r ->
        Operators.enforce_boundary_edge ?pool:e.pool ~on:r.edges m
          ~tend_u:r.work.tend.tend_u)
      ranks

(* compute_solve_diagnostics on [src r], in the runtime's fused order:
   [H2 A2 A3 (+X4)], [B2 G (+X5)], [D1 C2 D2], [E], [H1 F], then the
   tracer edges.  [acc] rides the substep's accumulative update on the
   first two chains.  A halo exchange follows every output that a
   neighbouring rank's stencil reads. *)
let diagnostics e (cfg : Config.t) m ~dt ~(exchange : exchange) ~src ~acc
    ranks =
  if not e.gather then
    Array.iter
      (fun r ->
        scatter_diagnostics e cfg m ~dt ~state:(src r) ~diag:r.work.diag)
      ranks
  else begin
    let pool = e.pool in
    let fourth = cfg.h_adv_order = Config.Fourth in
    Array.iter
      (fun r ->
        let s : Fields.state = src r and d = r.work.diag in
        Operators.diag_cells_chain ?pool m ~h:s.h ~u:s.u
          ~d2:(if fourth then Some d.d2fdx2_cell else None)
          ~ke_out:(Some d.ke) ~div_out:(Some d.divergence)
          ~x4:(ride acc r.work.accum.h None) ~tend_h:r.work.tend.tend_h
          ~on:r.cells)
      ranks;
    if fourth then exchange Cells (fun r -> r.work.diag.d2fdx2_cell);
    Array.iter
      (fun r ->
        let s : Fields.state = src r and d = r.work.diag in
        Operators.diag_edges_chain ?pool m ~order:cfg.h_adv_order ~h:s.h
          ~d2fdx2_cell:d.d2fdx2_cell ~h_edge_out:d.h_edge
          ~g:(Some (s.u, d.v_tangential))
          ~x5:(ride acc r.work.accum.u None) ~tend_u:r.work.tend.tend_u
          ~on:r.edges)
      ranks;
    exchange Edges (fun r -> r.work.diag.h_edge);
    Array.iter
      (fun r ->
        let s : Fields.state = src r and d = r.work.diag in
        Operators.vortex_chain ?pool m ~u:s.u ~h:s.h ~vort_out:d.vorticity
          ~hv_out:(Some d.h_vertex) ~pv_out:(Some d.pv_vertex) ~on:r.vertices)
      ranks;
    exchange Cells (fun r -> r.work.diag.ke);
    exchange Cells (fun r -> r.work.diag.divergence);
    exchange Vertices (fun r -> r.work.diag.vorticity);
    exchange Vertices (fun r -> r.work.diag.pv_vertex);
    Array.iter
      (fun r ->
        let d = r.work.diag in
        Operators.pv_cell ?pool ~on:r.cells m ~pv_vertex:d.pv_vertex
          ~out:d.pv_cell)
      ranks;
    exchange Cells (fun r -> r.work.diag.pv_cell);
    Array.iter
      (fun r ->
        let s : Fields.state = src r and d = r.work.diag in
        Operators.pv_edge_chain ?pool m ~g:None ~pv_cell:d.pv_cell
          ~pv_vertex:d.pv_vertex ~gn_out:d.grad_pv_n ~gt_out:d.grad_pv_t
          ~f:(Some (cfg.apvm_factor, dt, s.u, d.v_tangential, d.pv_edge))
          ~on:r.edges)
      ranks;
    exchange Edges (fun r -> r.work.diag.pv_edge);
    let n_tracers = Array.length ranks.(0).work.diag.tracer_edge in
    for k = 0 to n_tracers - 1 do
      Array.iter
        (fun r ->
          let s : Fields.state = src r in
          Operators.tracer_edge ?pool ~on:r.edges m ~scheme:cfg.tracer_adv
            ~tracer:s.tracers.(k) ~u:s.u ~out:r.work.diag.tracer_edge.(k))
        ranks;
      exchange Edges (fun r -> r.work.diag.tracer_edge.(k))
    done
  end

(* The prognostic rows of [state r], after its owners wrote them. *)
let exchange_state (exchange : exchange) state ranks =
  exchange Cells (fun r -> (state r).Fields.h);
  exchange Edges (fun r -> (state r).Fields.u);
  for k = 0 to Array.length ranks.(0).state.tracers - 1 do
    exchange Cells (fun r -> (state r).Fields.tracers.(k))
  done

let diagnose e cfg m ~dt ?(exchange = no_exchange) ranks =
  diagnostics e cfg m ~dt ~exchange ~src:(fun r -> r.state) ~acc:None ranks

let rk4_sweep e cfg m ~b ?recon ~dt ?(exchange = no_exchange) ranks =
  let pool = e.pool in
  let substep_coef = [| dt /. 2.; dt /. 2.; dt |] in
  let accum_coef = [| dt /. 6.; dt /. 3.; dt /. 3.; dt /. 6. |] in
  let provis r = r.work.provis in
  Array.iter
    (fun r ->
      Fields.blit_state ~src:r.state ~dst:r.work.accum;
      Fields.blit_state ~src:r.state ~dst:r.work.provis;
      (* Tracer accumulators carry the conservative quantity h * tracer. *)
      Operators.seed_tracer_accumulator ?pool ~on:r.cells m ~state:r.state
        ~accum:r.work.accum)
    ranks;
  (* In the fused order X4/X5 ride the diagnostics chains (early
     substeps) and the tend chains (final substep); the scatter order
     runs them as the accumulative update of Algorithm 1. *)
  let fused = e.gather in
  (* Invariant: every rank's diag matches its provis at compute_tend. *)
  for rk = 0 to 2 do
    let coef = accum_coef.(rk) in
    e.instrument Compute_tend (fun () ->
        tendencies e cfg m ~b ~exchange ~src:provis ~publish:None ranks);
    e.instrument Enforce_boundary_edge (fun () -> mask_boundary e cfg m ranks);
    e.instrument Compute_next_substep_state (fun () ->
        Array.iter
          (fun r ->
            Operators.next_substep_state ?pool ~on_cells:r.cells
              ~on_edges:r.edges m ~coef:substep_coef.(rk) ~base:r.state
              ~tend:r.work.tend ~provis:r.work.provis;
            Operators.next_substep_tracers ?pool ~on:r.cells m
              ~coef:substep_coef.(rk) ~base:r.state ~tend:r.work.tend
              ~provis:r.work.provis)
          ranks;
        exchange_state exchange provis ranks);
    e.instrument Compute_solve_diagnostics (fun () ->
        diagnostics e cfg m ~dt ~exchange ~src:provis
          ~acc:(if fused then Some coef else None)
          ranks);
    e.instrument Accumulative_update (fun () ->
        Array.iter
          (fun r ->
            if not fused then
              Operators.accumulate ?pool ~on_cells:r.cells ~on_edges:r.edges m
                ~coef ~tend:r.work.tend ~accum:r.work.accum;
            Operators.accumulate_tracers ?pool ~on:r.cells m ~coef
              ~tend:r.work.tend ~accum:r.work.accum)
          ranks)
  done;
  (* The final substep publishes the accumulated state from its tend
     chains; the diagnostics then describe the new state. *)
  let coef = accum_coef.(3) in
  e.instrument Compute_tend (fun () ->
      tendencies e cfg m ~b ~exchange ~src:provis
        ~publish:(if fused then Some coef else None)
        ranks);
  e.instrument Enforce_boundary_edge (fun () -> mask_boundary e cfg m ranks);
  e.instrument Accumulative_update (fun () ->
      Array.iter
        (fun r ->
          (* whatever the tend chains did not carry, published as well *)
          let on_cells = if fused then Span.empty else r.cells in
          if (not fused) || cfg.Config.visc4 <> 0. then
            Operators.accumulate ?pool ~on_cells ~on_edges:r.edges
              ~publish:r.state m ~coef ~tend:r.work.tend ~accum:r.work.accum;
          Operators.accumulate_tracers ?pool ~on:r.cells m ~coef
            ~tend:r.work.tend ~accum:r.work.accum;
          Operators.finalize_tracers ?pool ~on:r.cells m ~accum:r.work.accum
            ~state:r.state)
        ranks;
      exchange_state exchange (fun r -> r.state) ranks);
  e.instrument Compute_solve_diagnostics (fun () ->
      diagnose e cfg m ~dt ~exchange ranks);
  Option.iter
    (fun recon ->
      e.instrument Mpas_reconstruct (fun () ->
          Array.iter
            (fun r ->
              Reconstruct.run ?pool ~on:r.cells recon m ~u:r.state.u
                ~out:r.work.recon)
            ranks))
    recon

(* --- solo drivers ------------------------------------------------------ *)

let init_diagnostics e cfg m ~dt ~state ~work =
  diagnose e cfg m ~dt [| solo_rank m ~state ~work |]

let rk4_step e cfg m ~b ?recon ~dt ~state ~work () =
  rk4_sweep e cfg m ~b ?recon ~dt [| solo_rank m ~state ~work |]

(* Strong-stability-preserving RK-3 (Shu & Osher 1988):
     s1 = state + dt L(state)
     s2 = 3/4 state + 1/4 (s1 + dt L(s1))
     new = 1/3 state + 2/3 (s2 + dt L(s2))
   The same six kernels as Algorithm 1 in a different driver loop; the
   paper's registry and data-flow diagram are untouched. *)
let ssprk3_step e cfg m ~b ?recon ~dt ~(state : Fields.state) ~work () =
  let solo = [| solo_rank m ~state ~work |] in
  let exchange = no_exchange in
  let stage ~a ~bcoef ~c ~from ~out =
    e.instrument Compute_tend (fun () ->
        tendencies e cfg m ~b ~exchange ~src:(fun _ -> from) ~publish:None
          solo);
    e.instrument Enforce_boundary_edge (fun () -> mask_boundary e cfg m solo);
    e.instrument Compute_next_substep_state (fun () ->
        Operators.blend ?pool:e.pool m ~a ~base:state ~b:bcoef ~other:from ~c
          ~tend:work.tend ~out);
    e.instrument Compute_solve_diagnostics (fun () ->
        diagnostics e cfg m ~dt ~exchange ~src:(fun _ -> out) ~acc:None solo)
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
