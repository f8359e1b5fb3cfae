open Mpas_mesh
open Mpas_swe
open Mpas_runtime
open Mpas_par
module Pattern = Mpas_patterns.Pattern
module Metrics = Mpas_obs.Metrics

type status = Running | Done | Failed of string

let status_name = function
  | Running -> "running"
  | Done -> "done"
  | Failed r -> "failed: " ^ r

type info = {
  i_id : int;
  i_tenant : string;
  i_status : status;
  i_steps : int;
  i_target : int option;
}

type rw = Read | Write | Update

type access = { a_slot : string; a_point : Pattern.point; a_rw : rw }

(* One slot's arrays and the per-member inputs its kernels read.  The
   arrays are allocated on the slot's first [submit] and reused after
   [evict]; [l_work] is the solo driver's RK-4 workspace without the
   extension fields (tracer rows, del-4 work arrays, reconstruction), which
   the batch never runs. *)
type lane = {
  mutable l_mesh : Mesh.t;
      (** the engine mesh, or a copy carrying the member's own Coriolis
          field and sharing the engine mesh's CSR *)
  mutable l_cfg : Config.t;
  mutable l_dt : float;
  l_state : Fields.state;
  l_b : float array;
  l_work : Timestep.workspace;
}

(* Everything the kernel bodies close over.  Built before the phase
   programs so the closures never see the engine record itself. *)
type env = {
  mesh : Mesh.t;
  nc : int;
  ne : int;
  nv : int;
  cap : int;
  blk : int;
  on : bool array;  (** running members: stepped by every kernel *)
  lanes : lane option array;  (** indexed by slot *)
  rk : int ref;  (** current substep, read by the bodies at call time *)
}

type slot = {
  s_id : int;
  s_tenant : string;
  s_target : int option;
  mutable s_status : status;
  mutable s_steps : int;
  c_stepped : Metrics.Counter.t;
  c_failed : Metrics.Counter.t;
  t_step : Metrics.Timer.t;
}

type kdef = {
  kd_id : string;
  kd_kernel : Pattern.kernel;
  kd_body : block:int -> unit -> unit;
  kd_acc : (string * Pattern.point * rw) list;
}

type t = {
  env : env;
  registry : Metrics.t;
  mode : Exec.mode;
  pool : Pool.t option;
  log : Exec.log option;
  interrupt : (phase:[ `Early | `Final ] -> substep:int -> unit) option;
  preempt : (unit -> bool) option;
  blocks : int;
  early_defs : kdef array;
  final_defs : kdef array;
  sp : Spec.t;
  early_bodies : (unit -> unit) array;
  final_bodies : (unit -> unit) array;
  slots : slot option array;
  by_id : (int, int) Hashtbl.t;  (** member id -> slot index *)
  mutable free : int list;
  mutable next_id : int;
  g_occupancy : Metrics.Gauge.t;
  c_batch_steps : Metrics.Counter.t;
  t_batch_step : Metrics.Timer.t;
}

(* --- kernel chains ------------------------------------------------------ *)

(* A task body: [f] on every running member of the block, in slot
   order.  Each call is the solo kernel on the member's own arrays. *)
let each v f ~block () =
  let mlo = block * v.blk in
  for s = mlo to min v.cap (mlo + v.blk) - 1 do
    if v.on.(s) then Option.iter f v.lanes.(s)
  done

(* [Timestep.rk4_step]'s coefficient tables, entry by entry. *)
let substep_coef dt rk = if rk < 2 then dt /. 2. else dt
let accum_coef dt rk = if rk = 0 || rk = 3 then dt /. 6. else dt /. 3.

(* The RK-4 substep chains, in the unfused kernel order whose fusion
   [Timestep.rk4_step] runs (bitwise the same values).
   Early (substeps 0-2): tendencies of the provisional state, boundary,
   next provisional state, diagnostics of it, accumulate.  Final
   (substep 3): tendencies, boundary, accumulate, publish the
   accumulator into the state, diagnostics of the new state.  The
   diagnostic sub-chain differs between the phases only in which state
   it reads. *)
let tend_defs v =
  [
    {
      kd_id = "ens.tend_h";
      kd_kernel = Pattern.Compute_tend;
      kd_body =
        each v (fun l ->
            let w = l.l_work in
            Operators.tend_h l.l_mesh ~h_edge:w.diag.h_edge ~u:w.provis.u
              ~out:w.tend.tend_h);
      kd_acc =
        [
          ("h_edge", Pattern.Velocity, Read);
          ("provis_u", Pattern.Velocity, Read);
          ("tend_h", Pattern.Mass, Write);
        ];
    };
    {
      kd_id = "ens.tend_u";
      kd_kernel = Pattern.Compute_tend;
      kd_body =
        each v (fun l ->
            let w = l.l_work in
            Operators.tend_u ~pv_average:l.l_cfg.pv_average l.l_mesh
              ~gravity:l.l_cfg.gravity ~h:w.provis.h ~b:l.l_b ~ke:w.diag.ke
              ~h_edge:w.diag.h_edge ~u:w.provis.u ~pv_edge:w.diag.pv_edge
              ~out:w.tend.tend_u);
      kd_acc =
        [
          ("provis_h", Pattern.Mass, Read);
          ("b", Pattern.Mass, Read);
          ("ke", Pattern.Mass, Read);
          ("h_edge", Pattern.Velocity, Read);
          ("provis_u", Pattern.Velocity, Read);
          ("pv_edge", Pattern.Velocity, Read);
          ("tend_u", Pattern.Velocity, Write);
        ];
    };
    {
      kd_id = "ens.dissipation";
      kd_kernel = Pattern.Compute_tend;
      kd_body =
        each v (fun l ->
            let w = l.l_work in
            Operators.dissipation l.l_mesh ~visc2:l.l_cfg.visc2
              ~divergence:w.diag.divergence ~vorticity:w.diag.vorticity
              ~tend_u:w.tend.tend_u);
      kd_acc =
        [
          ("divergence", Pattern.Mass, Read);
          ("vorticity", Pattern.Vorticity, Read);
          ("tend_u", Pattern.Velocity, Update);
        ];
    };
    {
      kd_id = "ens.local_forcing";
      kd_kernel = Pattern.Compute_tend;
      kd_body =
        each v (fun l ->
            let w = l.l_work in
            Operators.local_forcing l.l_mesh ~drag:l.l_cfg.bottom_drag
              ~u:w.provis.u ~tend_u:w.tend.tend_u);
      kd_acc =
        [ ("provis_u", Pattern.Velocity, Read); ("tend_u", Pattern.Velocity, Update) ];
    };
    {
      kd_id = "ens.boundary";
      kd_kernel = Pattern.Enforce_boundary_edge;
      kd_body =
        each v (fun l ->
            Operators.enforce_boundary_edge l.l_mesh
              ~tend_u:l.l_work.tend.tend_u);
      kd_acc = [ ("tend_u", Pattern.Velocity, Update) ];
    };
  ]

(* Diagnostics of [src l]: the provisional state in the early phase,
   the state in the final one. *)
let diag_defs v ~src ~h_name ~u_name =
  let d l = l.l_work.Timestep.diag in
  [
    {
      kd_id = "ens.d2fdx2";
      kd_kernel = Pattern.Compute_solve_diagnostics;
      kd_body =
        each v (fun l ->
            match l.l_cfg.h_adv_order with
            | Config.Second -> ()
            | Config.Fourth ->
                Operators.d2fdx2 l.l_mesh ~h:(src l).Fields.h
                  ~out:(d l).d2fdx2_cell);
      kd_acc = [ (h_name, Pattern.Mass, Read); ("d2fdx2", Pattern.Mass, Write) ];
    };
    {
      kd_id = "ens.h_edge";
      kd_kernel = Pattern.Compute_solve_diagnostics;
      kd_body =
        each v (fun l ->
            Operators.h_edge l.l_mesh ~order:l.l_cfg.h_adv_order
              ~h:(src l).Fields.h ~d2fdx2_cell:(d l).d2fdx2_cell
              ~out:(d l).h_edge);
      kd_acc =
        [
          (h_name, Pattern.Mass, Read);
          ("d2fdx2", Pattern.Mass, Read);
          ("h_edge", Pattern.Velocity, Write);
        ];
    };
    {
      kd_id = "ens.kinetic_energy";
      kd_kernel = Pattern.Compute_solve_diagnostics;
      kd_body =
        each v (fun l ->
            Operators.kinetic_energy l.l_mesh ~u:(src l).Fields.u
              ~out:(d l).ke);
      kd_acc = [ (u_name, Pattern.Velocity, Read); ("ke", Pattern.Mass, Write) ];
    };
    {
      kd_id = "ens.divergence";
      kd_kernel = Pattern.Compute_solve_diagnostics;
      kd_body =
        each v (fun l ->
            Operators.divergence l.l_mesh ~u:(src l).Fields.u
              ~out:(d l).divergence);
      kd_acc =
        [ (u_name, Pattern.Velocity, Read); ("divergence", Pattern.Mass, Write) ];
    };
    {
      kd_id = "ens.vorticity";
      kd_kernel = Pattern.Compute_solve_diagnostics;
      kd_body =
        each v (fun l ->
            Operators.vorticity l.l_mesh ~u:(src l).Fields.u
              ~out:(d l).vorticity);
      kd_acc =
        [ (u_name, Pattern.Velocity, Read); ("vorticity", Pattern.Vorticity, Write) ];
    };
    {
      kd_id = "ens.h_vertex";
      kd_kernel = Pattern.Compute_solve_diagnostics;
      kd_body =
        each v (fun l ->
            Operators.h_vertex l.l_mesh ~h:(src l).Fields.h
              ~out:(d l).h_vertex);
      kd_acc =
        [ (h_name, Pattern.Mass, Read); ("h_vertex", Pattern.Vorticity, Write) ];
    };
    {
      kd_id = "ens.pv_vertex";
      kd_kernel = Pattern.Compute_solve_diagnostics;
      kd_body =
        each v (fun l ->
            Operators.pv_vertex l.l_mesh ~vorticity:(d l).vorticity
              ~h_vertex:(d l).h_vertex ~out:(d l).pv_vertex);
      kd_acc =
        [
          ("f_vertex", Pattern.Vorticity, Read);
          ("vorticity", Pattern.Vorticity, Read);
          ("h_vertex", Pattern.Vorticity, Read);
          ("pv_vertex", Pattern.Vorticity, Write);
        ];
    };
    {
      kd_id = "ens.pv_cell";
      kd_kernel = Pattern.Compute_solve_diagnostics;
      kd_body =
        each v (fun l ->
            Operators.pv_cell l.l_mesh ~pv_vertex:(d l).pv_vertex
              ~out:(d l).pv_cell);
      kd_acc =
        [ ("pv_vertex", Pattern.Vorticity, Read); ("pv_cell", Pattern.Mass, Write) ];
    };
    {
      kd_id = "ens.tangential_velocity";
      kd_kernel = Pattern.Compute_solve_diagnostics;
      kd_body =
        each v (fun l ->
            Operators.tangential_velocity l.l_mesh ~u:(src l).Fields.u
              ~out:(d l).v_tangential);
      kd_acc =
        [ (u_name, Pattern.Velocity, Read); ("v_tangential", Pattern.Velocity, Write) ];
    };
    {
      kd_id = "ens.grad_pv";
      kd_kernel = Pattern.Compute_solve_diagnostics;
      kd_body =
        each v (fun l ->
            Operators.grad_pv l.l_mesh ~pv_cell:(d l).pv_cell
              ~pv_vertex:(d l).pv_vertex ~out_n:(d l).grad_pv_n
              ~out_t:(d l).grad_pv_t);
      kd_acc =
        [
          ("pv_cell", Pattern.Mass, Read);
          ("pv_vertex", Pattern.Vorticity, Read);
          ("grad_pv_n", Pattern.Velocity, Write);
          ("grad_pv_t", Pattern.Velocity, Write);
        ];
    };
    {
      kd_id = "ens.pv_edge";
      kd_kernel = Pattern.Compute_solve_diagnostics;
      kd_body =
        each v (fun l ->
            let d = d l in
            Operators.pv_edge l.l_mesh ~apvm_factor:l.l_cfg.apvm_factor
              ~dt:l.l_dt ~pv_vertex:d.pv_vertex ~grad_pv_n:d.grad_pv_n
              ~grad_pv_t:d.grad_pv_t ~u:(src l).Fields.u
              ~v_tangential:d.v_tangential ~out:d.pv_edge);
      kd_acc =
        [
          ("pv_vertex", Pattern.Vorticity, Read);
          ("grad_pv_n", Pattern.Velocity, Read);
          ("grad_pv_t", Pattern.Velocity, Read);
          (u_name, Pattern.Velocity, Read);
          ("v_tangential", Pattern.Velocity, Read);
          ("pv_edge", Pattern.Velocity, Write);
        ];
    };
  ]

let accumulate_def v =
  {
    kd_id = "ens.accumulate";
    kd_kernel = Pattern.Accumulative_update;
    kd_body =
      each v (fun l ->
          let w = l.l_work in
          Operators.accumulate l.l_mesh ~coef:(accum_coef l.l_dt !(v.rk))
            ~tend:w.tend ~accum:w.accum);
    kd_acc =
      [
        ("tend_h", Pattern.Mass, Read);
        ("tend_u", Pattern.Velocity, Read);
        ("accum_h", Pattern.Mass, Update);
        ("accum_u", Pattern.Velocity, Update);
      ];
  }

let early_kdefs v =
  tend_defs v
  @ [
      {
        kd_id = "ens.next_substep";
        kd_kernel = Pattern.Compute_next_substep_state;
        kd_body =
          each v (fun l ->
              let w = l.l_work in
              Operators.next_substep_state l.l_mesh
                ~coef:(substep_coef l.l_dt !(v.rk)) ~base:l.l_state
                ~tend:w.tend ~provis:w.provis);
        kd_acc =
          [
            ("state_h", Pattern.Mass, Read);
            ("state_u", Pattern.Velocity, Read);
            ("tend_h", Pattern.Mass, Read);
            ("tend_u", Pattern.Velocity, Read);
            ("provis_h", Pattern.Mass, Write);
            ("provis_u", Pattern.Velocity, Write);
          ];
      };
    ]
  @ diag_defs v
      ~src:(fun l -> l.l_work.provis)
      ~h_name:"provis_h" ~u_name:"provis_u"
  @ [ accumulate_def v ]

let final_kdefs v =
  tend_defs v
  @ [
      accumulate_def v;
      {
        kd_id = "ens.publish";
        kd_kernel = Pattern.Accumulative_update;
        kd_body =
          each v (fun l -> Fields.blit_state ~src:l.l_work.accum ~dst:l.l_state);
        kd_acc =
          [
            ("accum_h", Pattern.Mass, Read);
            ("accum_u", Pattern.Velocity, Read);
            ("state_h", Pattern.Mass, Write);
            ("state_u", Pattern.Velocity, Write);
          ];
      };
    ]
  @ diag_defs v ~src:(fun l -> l.l_state) ~h_name:"state_h" ~u_name:"state_u"

(* --- construction ------------------------------------------------------- *)

let create ?(registry = Metrics.default) ?(capacity = 64) ?(block = 8)
    ?(mode = Exec.Sequential) ?pool ?log ?interrupt ?preempt mesh =
  if capacity < 1 then
    invalid_arg
      (Printf.sprintf "Ensemble.create: capacity %d, need >= 1" capacity);
  if block < 1 then
    invalid_arg (Printf.sprintf "Ensemble.create: block %d, need >= 1" block);
  (* A block wider than the batch would only schedule empty slots. *)
  let block = min block capacity in
  let env =
    {
      mesh;
      nc = mesh.Mesh.n_cells;
      ne = mesh.Mesh.n_edges;
      nv = mesh.Mesh.n_vertices;
      cap = capacity;
      blk = block;
      on = Array.make capacity false;
      lanes = Array.make capacity None;
      rk = ref 0;
    }
  in
  let blocks = (capacity + block - 1) / block in
  let to_batch kd =
    { Batch.bk_id = kd.kd_id; bk_kernel = kd.kd_kernel; bk_body = kd.kd_body }
  in
  let early_defs = Array.of_list (early_kdefs env) in
  let final_defs = Array.of_list (final_kdefs env) in
  let early, early_bodies =
    Batch.build ~kernels:(Array.to_list (Array.map to_batch early_defs)) ~blocks
  in
  let final, final_bodies =
    Batch.build ~kernels:(Array.to_list (Array.map to_batch final_defs)) ~blocks
  in
  {
    env;
    registry;
    mode;
    pool;
    log;
    interrupt;
    preempt;
    blocks;
    early_defs;
    final_defs;
    sp = { Spec.early; final };
    early_bodies;
    final_bodies;
    slots = Array.make capacity None;
    by_id = Hashtbl.create 64;
    free = List.init capacity (fun i -> i);
    next_id = 0;
    g_occupancy = Metrics.gauge ~registry "ensemble.occupancy";
    c_batch_steps = Metrics.counter ~registry "ensemble.batch_steps";
    t_batch_step = Metrics.timer ~registry "ensemble.batch_step";
  }

let capacity t = t.env.cap
let block t = t.env.blk
let mesh t = t.env.mesh
let spec t = t.sp

let info_of s =
  {
    i_id = s.s_id;
    i_tenant = s.s_tenant;
    i_status = s.s_status;
    i_steps = s.s_steps;
    i_target = s.s_target;
  }

let members t =
  Array.to_list t.slots
  |> List.filter_map (Option.map info_of)
  |> List.sort (fun a b -> compare a.i_id b.i_id)

let running_count t =
  Array.fold_left
    (fun n -> function Some { s_status = Running; _ } -> n + 1 | _ -> n)
    0 t.slots

let occupancy t = float_of_int (running_count t) /. float_of_int t.env.cap

let update_occupancy t =
  Metrics.Gauge.set t.g_occupancy (occupancy t)

(* --- submit ------------------------------------------------------------- *)

let check_counted what got expected =
  if got <> expected then
    invalid_arg
      (Printf.sprintf "Ensemble.submit: %s (got %d, expected %d)" what got
         expected)

let validate_config (cfg : Config.t) =
  (match cfg.integrator with
  | Config.Rk4 -> ()
  | Config.Ssprk3 ->
      invalid_arg
        "Ensemble.submit: integrator unsupported (got ssprk3, expected rk4)");
  if cfg.visc4 <> 0. then
    invalid_arg
      (Printf.sprintf
         "Ensemble.submit: del-4 dissipation unsupported (got visc4 = %g, \
          expected 0)"
         cfg.visc4)

(* A slot's arrays: the twelve Table-I diagnostics and nothing of the
   extension fields, so a batched member costs what its kernels touch. *)
let alloc_lane v =
  let m = v.mesh in
  let cells () = Array.make v.nc 0.
  and edges () = Array.make v.ne 0.
  and verts () = Array.make v.nv 0. in
  let state () = { Fields.h = cells (); u = edges (); tracers = [||] } in
  {
    l_mesh = m;
    l_cfg = Config.default;
    l_dt = 0.;
    l_state = state ();
    l_b = cells ();
    l_work =
      {
        Timestep.provis = state ();
        accum = state ();
        tend =
          { Fields.tend_h = cells (); tend_u = edges (); tend_tracers = [||] };
        diag =
          {
            Fields.d2fdx2_cell = cells ();
            h_edge = edges ();
            ke = cells ();
            divergence = cells ();
            vorticity = verts ();
            h_vertex = verts ();
            pv_vertex = verts ();
            pv_cell = cells ();
            v_tangential = edges ();
            grad_pv_n = edges ();
            grad_pv_t = edges ();
            pv_edge = edges ();
            tracer_edge = [||];
            lap_u = [||];
            div_lap = [||];
            vort_lap = [||];
          };
        recon = { Fields.ux = [||]; uy = [||]; uz = [||]; zonal = [||]; meridional = [||] };
      };
  }

(* Diagnostics of the member's state, as [Model.of_state] computes them
   for a solo run, so the first tendency evaluation sees diagnostics
   matching the state. *)
let init_member_diagnostics l =
  Timestep.init_diagnostics Timestep.refactored l.l_cfg l.l_mesh ~dt:l.l_dt
    ~state:l.l_state ~work:l.l_work

let submit t ?(tenant = "default") ?(config = Config.default) ?target
    ?f_vertex ~dt ~b (state : Fields.state) =
  let v = t.env in
  validate_config config;
  check_counted "state.h cells" (Array.length state.Fields.h) v.nc;
  check_counted "state.u edges" (Array.length state.Fields.u) v.ne;
  check_counted "tracer rows" (Array.length state.Fields.tracers) 0;
  check_counted "b cells" (Array.length b) v.nc;
  let fvert = Option.value f_vertex ~default:v.mesh.Mesh.f_vertex in
  check_counted "f_vertex vertices" (Array.length fvert) v.nv;
  if dt <= 0. then
    invalid_arg (Printf.sprintf "Ensemble.submit: dt = %g, need > 0" dt);
  (match target with
  | Some n when n < 0 ->
      invalid_arg (Printf.sprintf "Ensemble.submit: target = %d, need >= 0" n)
  | _ -> ());
  let slot =
    match t.free with
    | [] ->
        invalid_arg
          (Printf.sprintf "Ensemble.submit: batch full (got %d members, \
                           expected < %d)"
             v.cap v.cap)
    | s :: rest ->
        t.free <- rest;
        s
  in
  let id = t.next_id in
  t.next_id <- id + 1;
  let l =
    match v.lanes.(slot) with
    | Some l -> l
    | None ->
        let l = alloc_lane v in
        v.lanes.(slot) <- Some l;
        l
  in
  Array.blit state.Fields.h 0 l.l_state.h 0 v.nc;
  Array.blit state.Fields.u 0 l.l_state.u 0 v.ne;
  Array.blit b 0 l.l_b 0 v.nc;
  (* Only [pv_vertex] reads the Coriolis field: a member with its own
     gets a mesh record that differs in [f_vertex] alone. *)
  l.l_mesh <-
    (if fvert == v.mesh.Mesh.f_vertex || fvert = v.mesh.Mesh.f_vertex then
       v.mesh
     else Mesh.with_f_vertex v.mesh (Array.copy fvert));
  l.l_cfg <- config;
  l.l_dt <- dt;
  init_member_diagnostics l;
  let labels = [ ("tenant", tenant) ] in
  let s =
    {
      s_id = id;
      s_tenant = tenant;
      s_target = target;
      s_status = (if target = Some 0 then Done else Running);
      s_steps = 0;
      c_stepped =
        Metrics.counter ~registry:t.registry ~labels "ensemble.members_stepped";
      c_failed =
        Metrics.counter ~registry:t.registry ~labels "ensemble.member_failures";
      t_step = Metrics.timer ~registry:t.registry ~labels "ensemble.step";
    }
  in
  v.on.(slot) <- s.s_status = Running;
  t.slots.(slot) <- Some s;
  Hashtbl.replace t.by_id id slot;
  update_occupancy t;
  id

let submit_case t ?tenant ?(config = Config.default) ?dt ?target case =
  let m = t.env.mesh in
  let prepared = Williamson.prepare_mesh case m in
  let state, b = Williamson.init case prepared in
  let dt =
    match dt with Some d -> d | None -> Williamson.recommended_dt case m
  in
  submit t ?tenant ~config ?target ~f_vertex:prepared.Mesh.f_vertex ~dt ~b
    state

(* --- stepping ----------------------------------------------------------- *)

let slot_of t id =
  match Hashtbl.find_opt t.by_id id with
  | Some s -> s
  | None -> raise Not_found

(* Quarantine scan of one member's own h and u: the first finding, h
   before u, lowest entity first, non-finite before non-positive.  A
   member only ever writes its own arrays, so a blow-up stays contained;
   this scan records it so [step] can drop the member from the mask. *)
let scan_member (st : Fields.state) =
  let h = st.Fields.h and u = st.Fields.u in
  let c = ref 0 in
  while !c < Array.length h && Float.is_finite h.(!c) && h.(!c) > 0. do
    incr c
  done;
  if !c < Array.length h then
    Some
      (Printf.sprintf "%s h at cell %d"
         (if Float.is_finite h.(!c) then "non-positive" else "non-finite")
         !c)
  else begin
    let e = ref 0 in
    while !e < Array.length u && Float.is_finite u.(!e) do
      incr e
    done;
    if !e < Array.length u then
      Some (Printf.sprintf "non-finite u at edge %d" !e)
    else None
  end

let instrument _ f = f ()

let sweep t =
  let v = t.env in
  let fire phase substep =
    match t.interrupt with None -> () | Some f -> f ~phase ~substep
  in
  (* Seed the accumulator and the provisional state; tracer-free, so
     this is the whole of the solo driver's pre-substep work. *)
  for s = 0 to v.cap - 1 do
    if v.on.(s) then
      Option.iter
        (fun l ->
          Fields.blit_state ~src:l.l_state ~dst:l.l_work.accum;
          Fields.blit_state ~src:l.l_state ~dst:l.l_work.provis)
        v.lanes.(s)
  done;
  for rk = 0 to 2 do
    v.rk := rk;
    fire `Early rk;
    Batch.run ?log:t.log ?preempt:t.preempt ~mode:t.mode ?pool:t.pool
      ~instrument ~phase:`Early ~substep:rk t.sp.Spec.early t.early_bodies
  done;
  v.rk := 3;
  fire `Final 3;
  Batch.run ?log:t.log ?preempt:t.preempt ~mode:t.mode ?pool:t.pool
    ~instrument ~phase:`Final ~substep:3 t.sp.Spec.final t.final_bodies

let step t ?(n = 1) () =
  let v = t.env in
  for _ = 1 to n do
    if running_count t > 0 then begin
      let t0 = Unix.gettimeofday () in
      sweep t;
      let dt_wall = Unix.gettimeofday () -. t0 in
      Metrics.Counter.incr t.c_batch_steps;
      Metrics.Timer.record t.t_batch_step dt_wall;
      let tenants_seen = Hashtbl.create 8 in
      Array.iteri
        (fun slot s ->
          match (s, v.lanes.(slot)) with
          | Some ({ s_status = Running; _ } as s), Some l ->
              s.s_steps <- s.s_steps + 1;
              Metrics.Counter.incr s.c_stepped;
              if not (Hashtbl.mem tenants_seen s.s_tenant) then begin
                Hashtbl.add tenants_seen s.s_tenant ();
                Metrics.Timer.record s.t_step dt_wall
              end;
              (match scan_member l.l_state with
              | Some reason ->
                  s.s_status <- Failed reason;
                  Metrics.Counter.incr s.c_failed;
                  v.on.(slot) <- false
              | None -> (
                  match s.s_target with
                  | Some tgt when s.s_steps >= tgt ->
                      s.s_status <- Done;
                      v.on.(slot) <- false
                  | _ -> ()))
          | _ -> ())
        t.slots;
      update_occupancy t
    end
  done

(* --- query / mutation --------------------------------------------------- *)

let query t id =
  let slot = slot_of t id in
  match t.slots.(slot) with
  | Some s -> info_of s
  | None -> raise Not_found

let lane t id =
  match t.env.lanes.(slot_of t id) with
  | Some l -> l
  | None -> raise Not_found

let state t id = Fields.copy_state (lane t id).l_state
let member_mesh t id = (lane t id).l_mesh

let set_state t id (st : Fields.state) =
  let slot = slot_of t id in
  let v = t.env in
  check_counted "state.h cells" (Array.length st.Fields.h) v.nc;
  check_counted "state.u edges" (Array.length st.Fields.u) v.ne;
  check_counted "tracer rows" (Array.length st.Fields.tracers) 0;
  let l = lane t id in
  Array.blit st.Fields.h 0 l.l_state.h 0 v.nc;
  Array.blit st.Fields.u 0 l.l_state.u 0 v.ne;
  (match t.slots.(slot) with
  | Some s ->
      s.s_status <- Running;
      v.on.(slot) <- true
  | None -> raise Not_found);
  init_member_diagnostics l;
  update_occupancy t

let evict t id =
  let slot = slot_of t id in
  t.slots.(slot) <- None;
  Hashtbl.remove t.by_id id;
  t.env.on.(slot) <- false;
  t.free <- slot :: t.free;
  update_occupancy t

(* --- analysis hooks ----------------------------------------------------- *)

let task_accesses t phase ~task =
  let defs = match phase with `Early -> t.early_defs | `Final -> t.final_defs in
  let nk = Array.length defs in
  let b = task / nk and k = task mod nk in
  if b >= t.blocks || task < 0 then
    invalid_arg
      (Printf.sprintf "Ensemble.task_accesses: task %d of %d" task
         (t.blocks * nk));
  List.map
    (fun (name, point, arw) ->
      { a_slot = Printf.sprintf "%s@b%d" name b; a_point = point; a_rw = arw })
    defs.(k).kd_acc