open Mpas_mesh
open Mpas_par
open Mpas_swe
open Mpas_patterns

type env = {
  cfg : Config.t;
  mesh : Mesh.t;
  b : float array;
  dt : float;
  state : Fields.state;
  work : Timestep.workspace;
  recon : Reconstruct.t option;
  mutable rk : int;
}

let cut n f =
  let k = int_of_float (Float.round (f *. float_of_int n)) in
  Int.max 0 (Int.min n k)

let part_range ~n (f0, f1) =
  let lo = cut n f0 in
  Span.range lo (Int.max lo (cut n f1))

(* The span set a task covers in an n-element space: the full range,
   or its part's single span — the same set for the fused tile chains
   and the member-sequential path. *)
let part_span n = function
  | None -> Span.full n
  | Some p -> part_range ~n p

let timestep_kernel : Pattern.kernel -> Timestep.kernel = function
  | Pattern.Compute_tend -> Timestep.Compute_tend
  | Pattern.Enforce_boundary_edge -> Timestep.Enforce_boundary_edge
  | Pattern.Compute_next_substep_state -> Timestep.Compute_next_substep_state
  | Pattern.Compute_solve_diagnostics -> Timestep.Compute_solve_diagnostics
  | Pattern.Accumulative_update -> Timestep.Accumulative_update
  | Pattern.Mpas_reconstruct -> Timestep.Mpas_reconstruct
  | Pattern.Halo_exchange -> Timestep.Halo_exchange

let space_size (m : Mesh.t) = function
  | Pattern.Mass -> m.Mesh.n_cells
  | Pattern.Velocity -> m.Mesh.n_edges
  | Pattern.Vorticity -> m.Mesh.n_vertices

let substep_coef env = [| env.dt /. 2.; env.dt /. 2.; env.dt |]

let accum_coef env =
  [| env.dt /. 6.; env.dt /. 3.; env.dt /. 3.; env.dt /. 6. |]

(* The shared instance-to-closure table.  [on] is the span set for an
   instance with a single iteration space; X3/X4/X5 use [on_cells] /
   [on_edges] instead.  [None] = the full range. *)
let compile_body env ~final ~(on : Span.t option) ~(on_cells : Span.t option)
    ~(on_edges : Span.t option) (inst : Pattern.instance) =
  let m = env.mesh and cfg = env.cfg and work = env.work in
  let diag = work.Timestep.diag and tend = work.Timestep.tend in
  let provis = work.Timestep.provis and accum = work.Timestep.accum in
  (* The tend group always reads the provisional state (also in the
     final substep); renamed diagnostics/reconstruction read the
     updated state the final X4/X5 publish. *)
  let src = if final then env.state else provis in
  let publish = if final then Some env.state else None in
  let substep_coef = substep_coef env in
  let accum_coef = accum_coef env in
  match inst.Pattern.id with
  (* compute_tend *)
  | "A1" ->
      fun () ->
        Operators.tend_h ?on m ~h_edge:diag.Fields.h_edge ~u:provis.Fields.u
          ~out:tend.Fields.tend_h
  | "B1" ->
      fun () ->
        Operators.tend_u ?on ~pv_average:cfg.Config.pv_average m
          ~gravity:cfg.Config.gravity ~h:provis.Fields.h ~b:env.b
          ~ke:diag.Fields.ke ~h_edge:diag.Fields.h_edge ~u:provis.Fields.u
          ~pv_edge:diag.Fields.pv_edge ~out:tend.Fields.tend_u
  | "C1" ->
      fun () ->
        Operators.dissipation ?on m ~visc2:cfg.Config.visc2
          ~divergence:diag.Fields.divergence ~vorticity:diag.Fields.vorticity
          ~tend_u:tend.Fields.tend_u
  | "X1" ->
      fun () ->
        Operators.local_forcing ?on m ~drag:cfg.Config.bottom_drag
          ~u:provis.Fields.u ~tend_u:tend.Fields.tend_u
  (* enforce_boundary_edge *)
  | "X2" -> fun () -> Operators.enforce_boundary_edge ?on m ~tend_u:tend.Fields.tend_u
  (* compute_next_substep_state (early phases only) *)
  | "X3" ->
      fun () ->
        Operators.next_substep_state ?on_cells ?on_edges m
          ~coef:substep_coef.(env.rk) ~base:env.state ~tend ~provis
  (* compute_solve_diagnostics *)
  | "H2" -> (
      match cfg.Config.h_adv_order with
      | Config.Second -> fun () -> ()
      | Config.Fourth ->
          fun () ->
            Operators.d2fdx2 ?on m ~h:src.Fields.h
              ~out:diag.Fields.d2fdx2_cell)
  | "B2" ->
      fun () ->
        Operators.h_edge ?on m ~order:cfg.Config.h_adv_order ~h:src.Fields.h
          ~d2fdx2_cell:diag.Fields.d2fdx2_cell ~out:diag.Fields.h_edge
  | "A2" ->
      fun () -> Operators.kinetic_energy ?on m ~u:src.Fields.u ~out:diag.Fields.ke
  | "A3" ->
      fun () ->
        Operators.divergence ?on m ~u:src.Fields.u ~out:diag.Fields.divergence
  | "D1" ->
      fun () ->
        Operators.vorticity ?on m ~u:src.Fields.u ~out:diag.Fields.vorticity
  | "C2" ->
      fun () ->
        Operators.h_vertex ?on m ~h:src.Fields.h ~out:diag.Fields.h_vertex
  | "D2" ->
      fun () ->
        Operators.pv_vertex ?on m ~vorticity:diag.Fields.vorticity
          ~h_vertex:diag.Fields.h_vertex ~out:diag.Fields.pv_vertex
  | "E" ->
      fun () ->
        Operators.pv_cell ?on m ~pv_vertex:diag.Fields.pv_vertex
          ~out:diag.Fields.pv_cell
  | "G" ->
      fun () ->
        Operators.tangential_velocity ?on m ~u:src.Fields.u
          ~out:diag.Fields.v_tangential
  | "H1" ->
      fun () ->
        Operators.grad_pv ?on m ~pv_cell:diag.Fields.pv_cell
          ~pv_vertex:diag.Fields.pv_vertex ~out_n:diag.Fields.grad_pv_n
          ~out_t:diag.Fields.grad_pv_t
  | "F" ->
      fun () ->
        Operators.pv_edge ?on m ~apvm_factor:cfg.Config.apvm_factor ~dt:env.dt
          ~pv_vertex:diag.Fields.pv_vertex ~grad_pv_n:diag.Fields.grad_pv_n
          ~grad_pv_t:diag.Fields.grad_pv_t ~u:src.Fields.u
          ~v_tangential:diag.Fields.v_tangential ~out:diag.Fields.pv_edge
  (* accumulative_update; in the final substep the task also publishes
     its slice of the accumulator into the state (the blit of the
     sequential driver, split per space and per part) *)
  | "X4" ->
      fun () ->
        Operators.accumulate ?on_cells ~on_edges:Span.empty ?publish m
          ~coef:accum_coef.(env.rk) ~tend ~accum
  | "X5" ->
      fun () ->
        Operators.accumulate ~on_cells:Span.empty ?on_edges ?publish m
          ~coef:accum_coef.(env.rk) ~tend ~accum
  (* mpas_reconstruct (final phase only) *)
  | "A4" -> (
      match env.recon with
      | None -> invalid_arg "Mpas_runtime.Bind: A4 compiled without recon"
      | Some r ->
          fun () ->
            Reconstruct.run_cartesian ?on r m ~u:env.state.Fields.u
              ~out:work.Timestep.recon)
  | "X6" -> (
      match env.recon with
      | None -> invalid_arg "Mpas_runtime.Bind: X6 compiled without recon"
      | Some r ->
          fun () -> Reconstruct.run_horizontal ?on r m ~out:work.Timestep.recon)
  | id -> invalid_arg ("Mpas_runtime.Bind: unknown instance " ^ id)

let compile_single env ~final ~part (inst : Pattern.instance) =
  let m = env.mesh in
  let on =
    match (part, inst.Pattern.spaces) with
    | None, _ -> None
    | Some p, [ sp ] -> Some (part_range ~n:(space_size m sp) p)
    | Some _, _ -> None
  in
  let on_cells = Option.map (part_range ~n:m.Mesh.n_cells) part in
  let on_edges = Option.map (part_range ~n:m.Mesh.n_edges) part in
  compile_body env ~final ~on ~on_cells ~on_edges inst

(* Explicit span sets instead of part fractions: the distributed
   overlap driver compiles each instance once per rank per
   interior/boundary region. *)
let compile_on env ~final ~on_cells ~on_edges ~on_vertices
    (inst : Pattern.instance) =
  let on =
    match inst.Pattern.spaces with
    | [ Pattern.Mass ] -> Some on_cells
    | [ Pattern.Velocity ] -> Some on_edges
    | [ Pattern.Vorticity ] -> Some on_vertices
    | _ -> None
  in
  compile_body env ~final ~on ~on_cells:(Some on_cells)
    ~on_edges:(Some on_edges) inst

(* Communication bodies: plain array copies over precomputed ghost
   maps (supplied by [Mpas_dist.Exchange]); the runtime stays free of
   a dist dependency.  Each is bitwise the per-entity copy
   [Exchange.exchange] performs, split into its pack / wire / unpack
   thirds so the scheduler can overlap them with interior compute. *)

(* [buf.(j) <- src.(send.(j))] *)
let pack_body ~src ~send ~buf () =
  Array.iteri (fun j i -> Array.unsafe_set buf j (Array.unsafe_get src i)) send

(* The simulated wire: every rank's send buffer into its receive
   mirror. *)
let transfer_body ~sbufs ~rbufs () =
  Array.iteri
    (fun r sb -> Array.blit sb 0 rbufs.(r) 0 (Array.length sb))
    sbufs

(* [dst.(ghosts.(j)) <- rbufs.(from_rank.(j)).(from_off.(j))]: the
   owner's packed value lands in this rank's ghost slot. *)
let unpack_body ~dst ~ghosts ~from_rank ~from_off ~rbufs () =
  Array.iteri
    (fun j g -> dst.(g) <- rbufs.(from_rank.(j)).(from_off.(j)))
    ghosts

(* Specialized closures for the fused chains the spec planner packs.
   Each handler consumes a maximal prefix of the member list and
   returns the remaining members; anything it does not recognize falls
   back to the member-sequential path, so correctness never depends on
   the planner's exact output. *)
let compile_segment env ~final ~part (insts : Pattern.instance list) =
  let m = env.mesh and cfg = env.cfg and work = env.work in
  let diag = work.Timestep.diag and tend = work.Timestep.tend in
  let provis = work.Timestep.provis and accum = work.Timestep.accum in
  let src = if final then env.state else provis in
  let accum_coef = accum_coef env in
  let eat id l =
    match l with
    | (x : Pattern.instance) :: tl when x.Pattern.id = id -> (true, tl)
    | _ -> (false, l)
  in
  (* The accumulative updates read the coefficient of the live RK
     substep at call time, like the member-sequential path. *)
  let x4_arg present =
    if present then
      Some
        ( accum_coef.(env.rk),
          accum.Fields.h,
          if final then Some env.state.Fields.h else None )
    else None
  in
  let x5_arg present =
    if present then
      Some
        ( accum_coef.(env.rk),
          accum.Fields.u,
          if final then Some env.state.Fields.u else None )
    else None
  in
  match insts with
  | [] -> None
  | first :: rest0 -> (
      match first.Pattern.id with
      | "A1" ->
          let x4, rest = eat "X4" rest0 in
          let on = part_span m.Mesh.n_cells part in
          Some
            ( (fun () ->
                Operators.tend_h_chain m ~h_edge:diag.Fields.h_edge
                  ~u:provis.Fields.u ~out:tend.Fields.tend_h ~x4:(x4_arg x4)
                  ~on),
              rest )
      | "B1" ->
          let c1, rest = eat "C1" rest0 in
          let x1, rest = eat "X1" rest in
          let x2, rest = eat "X2" rest in
          let x5, rest = eat "X5" rest in
          let on = part_span m.Mesh.n_edges part in
          let dissip =
            if c1 && cfg.Config.visc2 <> 0. then
              Some
                ( cfg.Config.visc2,
                  diag.Fields.divergence,
                  diag.Fields.vorticity )
            else None
          in
          let drag = if x1 then cfg.Config.bottom_drag else 0. in
          let boundary = x2 && m.Mesh.has_boundary in
          Some
            ( (fun () ->
                Operators.tend_u_chain m ~pv_average:cfg.Config.pv_average
                  ~gravity:cfg.Config.gravity ~h:provis.Fields.h ~b:env.b
                  ~ke:diag.Fields.ke ~h_edge:diag.Fields.h_edge
                  ~u:provis.Fields.u ~pv_edge:diag.Fields.pv_edge
                  ~out:tend.Fields.tend_u ~dissip ~drag ~boundary
                  ~x5:(x5_arg x5) ~on),
              rest )
      | "H2" | "A2" ->
          let h2 = first.Pattern.id = "H2" in
          let a2, rest =
            if h2 then eat "A2" rest0 else (true, rest0)
          in
          let a3, rest = eat "A3" rest in
          let x4, rest = eat "X4" rest in
          let d2 =
            if h2 && cfg.Config.h_adv_order = Config.Fourth then
              Some diag.Fields.d2fdx2_cell
            else None
          in
          let ke_out = if a2 then Some diag.Fields.ke else None in
          let div_out = if a3 then Some diag.Fields.divergence else None in
          let on = part_span m.Mesh.n_cells part in
          if
            (* a lone H2 at second-order advection is a no-op; don't
               compile it to an empty sweep *)
            Option.is_none d2 && Option.is_none ke_out
            && Option.is_none div_out && not x4
          then Some ((fun () -> ()), rest)
          else
            Some
              ( (fun () ->
                  Operators.diag_cells_chain m ~h:src.Fields.h
                    ~u:src.Fields.u ~d2 ~ke_out ~div_out ~x4:(x4_arg x4)
                    ~tend_h:tend.Fields.tend_h ~on),
                rest )
      | "B2" ->
          let g, rest = eat "G" rest0 in
          let x5, rest = eat "X5" rest in
          let g_arg =
            if g then Some (src.Fields.u, diag.Fields.v_tangential) else None
          in
          let on = part_span m.Mesh.n_edges part in
          Some
            ( (fun () ->
                Operators.diag_edges_chain m ~order:cfg.Config.h_adv_order
                  ~h:src.Fields.h ~d2fdx2_cell:diag.Fields.d2fdx2_cell
                  ~h_edge_out:diag.Fields.h_edge ~g:g_arg ~x5:(x5_arg x5)
                  ~tend_u:tend.Fields.tend_u ~on),
              rest )
      | "D1" ->
          let c2, rest = eat "C2" rest0 in
          let d2, rest = if c2 then eat "D2" rest else (false, rest) in
          let hv_out = if c2 then Some diag.Fields.h_vertex else None in
          let pv_out = if d2 then Some diag.Fields.pv_vertex else None in
          let on = part_span m.Mesh.n_vertices part in
          Some
            ( (fun () ->
                Operators.vortex_chain m ~u:src.Fields.u ~h:src.Fields.h
                  ~vort_out:diag.Fields.vorticity ~hv_out ~pv_out ~on),
              rest )
      | "G" | "H1" -> (
          let g_arg, rest =
            if first.Pattern.id = "G" then
              match rest0 with
              | h1 :: tl when h1.Pattern.id = "H1" ->
                  (Some (Some (src.Fields.u, diag.Fields.v_tangential)), tl)
              | _ -> (None, rest0)
            else (Some None, rest0)
          in
          match g_arg with
          | None -> None (* bare G not followed by H1: member path *)
          | Some g ->
              let f, rest = eat "F" rest in
              let f_arg =
                if f then
                  Some
                    ( cfg.Config.apvm_factor,
                      env.dt,
                      src.Fields.u,
                      diag.Fields.v_tangential,
                      diag.Fields.pv_edge )
                else None
              in
              let on = part_span m.Mesh.n_edges part in
              Some
                ( (fun () ->
                    Operators.pv_edge_chain m ~g ~pv_cell:diag.Fields.pv_cell
                      ~pv_vertex:diag.Fields.pv_vertex
                      ~gn_out:diag.Fields.grad_pv_n
                      ~gt_out:diag.Fields.grad_pv_t ~f:f_arg ~on),
                  rest ))
      | "A4" -> (
          match env.recon with
          | None -> invalid_arg "Mpas_runtime.Bind: A4 compiled without recon"
          | Some r ->
              let x6, rest = eat "X6" rest0 in
              let on = part_span m.Mesh.n_cells part in
              let run =
                if x6 then Reconstruct.run else Reconstruct.run_cartesian
              in
              Some
                ( (fun () ->
                    run ~on r m ~u:env.state.Fields.u ~out:work.Timestep.recon),
                  rest ))
      | _ -> None)

let rec compile_members env ~final ~part = function
  | [] -> []
  | first :: rest as insts -> (
      match compile_segment env ~final ~part insts with
      | Some (body, rest') -> body :: compile_members env ~final ~part rest'
      | None ->
          compile_single env ~final ~part first
          :: compile_members env ~final ~part rest)

(* Single-member tasks go through [compile_segment] too, so a tiled
   part of a lone chain head still runs its fused range kernel; the
   rest reach {!Operators} through [compile_single] with the part's
   index set. *)
let compile env ~final (tk : Spec.task) =
  match compile_members env ~final ~part:tk.Spec.part tk.Spec.members with
  | [] -> fun () -> ()
  | [ body ] -> body
  | bodies ->
      let bodies = Array.of_list bodies in
      fun () -> Array.iter (fun body -> body ()) bodies
