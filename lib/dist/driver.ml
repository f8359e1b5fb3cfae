open Mpas_mesh
open Mpas_par
open Mpas_swe

type t = {
  mesh : Mesh.t;
  config : Config.t;
  b : float array;
  exchange : Exchange.t;
  recon : Reconstruct.t;
  dt : float;
  states : Fields.state array;
  provis : Fields.state array;
  tends : Fields.tendencies array;
  accums : Fields.state array;
  diags : Fields.diagnostics array;
  recons : Fields.reconstruction array;
  ranks : Timestep.rank array;
  mutable steps_taken : int;
}

let each t f =
  for r = 0 to t.exchange.Exchange.n_ranks - 1 do
    f r t.exchange.Exchange.sets.(r)
  done

(* The sweep's halo hook: one [Exchange.exchange] of the field each
   rank's arrays hold at [loc]. *)
let halo t : Timestep.exchange =
 fun loc field ->
  let loc =
    match loc with
    | Timestep.Cells -> Exchange.Cells
    | Timestep.Edges -> Exchange.Edges
    | Timestep.Vertices -> Exchange.Vertices
  in
  Exchange.exchange t.exchange loc (Array.map field t.ranks)

let m_steps = Mpas_obs.Metrics.counter "dist.steps"

(* Every rank runs [Timestep.refactored]'s chain order on its owned
   spans, with a halo exchange after each producing chain (paper
   Figures 2/4: "Exchange halo"). *)
let step_body t =
  Timestep.rk4_sweep Timestep.refactored t.config t.mesh ~b:t.b
    ~recon:t.recon ~dt:t.dt ~exchange:(halo t) t.ranks;
  t.steps_taken <- t.steps_taken + 1

let step t =
  Mpas_obs.Metrics.Counter.incr m_steps;
  Mpas_obs.Trace.with_span ~cat:"dist"
    ~args:[ ("ranks", string_of_int t.exchange.Exchange.n_ranks) ]
    "dist.step" (fun () -> step_body t)

let run t ~steps =
  for _ = 1 to steps do
    step t
  done

let of_state ?(config = Config.default) ~n_ranks ~dt ~b m state =
  Model.check_inputs ~who:"Driver.of_state" m ~dt ~b state;
  let part = Mpas_partition.Partition.sfc m ~n_parts:n_ranks in
  let exchange = Exchange.build m part in
  let n_tracers = Fields.n_tracers state in
  let alloc f = Array.init n_ranks (fun _ -> f ?n_tracers:(Some n_tracers) m) in
  let states = Array.init n_ranks (fun _ -> Fields.copy_state state) in
  let provis = alloc Fields.alloc_state and tends = alloc Fields.alloc_tendencies
  and accums = alloc Fields.alloc_state
  and diags = alloc Fields.alloc_diagnostics
  and recons = Array.init n_ranks (fun _ -> Fields.alloc_reconstruction m) in
  let ranks =
    Array.map
      (fun (s : Exchange.rank_sets) ->
        let r = s.Exchange.rank in
        {
          Timestep.cells = s.Exchange.own_cells;
          edges = s.Exchange.own_edges;
          vertices = s.Exchange.own_vertices;
          state = states.(r);
          work =
            {
              Timestep.provis = provis.(r);
              tend = tends.(r);
              accum = accums.(r);
              diag = diags.(r);
              recon = recons.(r);
            };
        })
      exchange.Exchange.sets
  in
  let t =
    {
      mesh = m;
      config;
      b = Array.copy b;
      exchange;
      recon = Reconstruct.init m;
      dt;
      states;
      provis;
      tends;
      accums;
      diags;
      recons;
      ranks;
      steps_taken = 0;
    }
  in
  Timestep.diagnose Timestep.refactored config m ~dt ~exchange:(halo t) ranks;
  t

let init ?config ?dt ?(tracers = [||]) ~n_ranks case m =
  let m = Williamson.prepare_mesh case m in
  let state, b = Williamson.init case m in
  let state = { state with Fields.tracers } in
  let dt =
    match dt with Some d -> d | None -> Williamson.recommended_dt case m
  in
  of_state ?config ~n_ranks ~dt ~b m state

let gather_state t =
  let global = Fields.alloc_state t.mesh in
  each t (fun r s ->
      Span.iter (fun c -> global.Fields.h.(c) <- t.states.(r).Fields.h.(c))
        s.Exchange.own_cells;
      Span.iter (fun e -> global.Fields.u.(e) <- t.states.(r).Fields.u.(e))
        s.Exchange.own_edges);
  global

let poison_invisible t =
  let m = t.mesh in
  each t (fun r s ->
      let cell_ok = Array.make m.n_cells false in
      let edge_ok = Array.make m.n_edges false in
      Span.iter (fun c -> cell_ok.(c) <- true) s.Exchange.own_cells;
      Array.iter (fun c -> cell_ok.(c) <- true) s.Exchange.ghost_cells;
      Span.iter (fun e -> edge_ok.(e) <- true) s.Exchange.own_edges;
      Array.iter (fun e -> edge_ok.(e) <- true) s.Exchange.ghost_edges;
      for c = 0 to m.n_cells - 1 do
        if not cell_ok.(c) then t.states.(r).Fields.h.(c) <- Float.nan
      done;
      for e = 0 to m.n_edges - 1 do
        if not edge_ok.(e) then t.states.(r).Fields.u.(e) <- Float.nan
      done)

let owned_values_finite t =
  let ok = ref true in
  each t (fun r s ->
      Span.iter
        (fun c -> if Float.is_nan t.states.(r).Fields.h.(c) then ok := false)
        s.Exchange.own_cells;
      Span.iter
        (fun e -> if Float.is_nan t.states.(r).Fields.u.(e) then ok := false)
        s.Exchange.own_edges);
  !ok
