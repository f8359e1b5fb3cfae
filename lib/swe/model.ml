open Mpas_mesh
open Mpas_par

type t = {
  mesh : Mesh.t;
  config : Config.t;
  b : float array;
  state : Fields.state;
  work : Timestep.workspace;
  recon : Reconstruct.t;
  dt : float;
  mutable engine : Timestep.engine;
  mutable steps_taken : int;
}

let check_inputs ~who (mesh : Mesh.t) ~dt ~b (state : Fields.state) =
  let counted what got expected =
    if got <> expected then
      invalid_arg
        (Printf.sprintf "%s: %s (got %d, expected %d)" who what got expected)
  in
  counted "state.h cells" (Array.length state.h) mesh.n_cells;
  counted "state.u edges" (Array.length state.u) mesh.n_edges;
  Array.iteri
    (fun k row ->
      counted (Printf.sprintf "tracer row %d cells" k) (Array.length row)
        mesh.n_cells)
    state.tracers;
  counted "b cells" (Array.length b) mesh.n_cells;
  if not (dt > 0.) then
    invalid_arg (Printf.sprintf "%s: dt = %g, need > 0" who dt)

let of_state ?(config = Config.default) ?(engine = Timestep.refactored) ~dt ~b
    mesh state =
  check_inputs ~who:"Model.of_state" mesh ~dt ~b state;
  let t =
    {
      mesh;
      config;
      b = Array.copy b;
      state = Fields.copy_state state;
      work = Timestep.alloc_workspace ~n_tracers:(Fields.n_tracers state) mesh;
      recon = Reconstruct.init mesh;
      dt;
      engine;
      steps_taken = 0;
    }
  in
  Timestep.init_diagnostics t.engine t.config t.mesh ~dt:t.dt ~state:t.state
    ~work:t.work;
  t

let init ?config ?dt ?engine ?(tracers = [||]) case mesh =
  let mesh = Williamson.prepare_mesh case mesh in
  let state, b = Williamson.init case mesh in
  let state = { state with Fields.tracers } in
  let dt =
    match dt with Some d -> d | None -> Williamson.recommended_dt case mesh
  in
  of_state ?config ?engine ~dt ~b mesh state

let set_engine t engine =
  t.engine <- engine;
  Timestep.init_diagnostics t.engine t.config t.mesh ~dt:t.dt ~state:t.state
    ~work:t.work

let run t ~steps =
  for _ = 1 to steps do
    Timestep.step t.engine t.config t.mesh ~b:t.b ~recon:t.recon ~dt:t.dt
      ~state:t.state ~work:t.work ();
    t.steps_taken <- t.steps_taken + 1
  done

let time t = float_of_int t.steps_taken *. t.dt
let invariants t = Conservation.measure t.config t.mesh ~b:t.b t.state

let total_height t =
  Array.init t.mesh.n_cells (fun c -> t.state.h.(c) +. t.b.(c))

let with_parallel_engine t ~n_domains f =
  Pool.with_pool ~n_domains (fun pool ->
      let saved = t.engine in
      set_engine t (Timestep.parallel pool);
      Fun.protect
        ~finally:(fun () -> set_engine t saved)
        (fun () -> f t))
