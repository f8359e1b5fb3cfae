open Mpas_numerics
open Mpas_mesh
open Mpas_par
open Mpas_swe
open Mpas_dist

let mesh = lazy (Build.icosahedral ~level:3 ~lloyd_iters:2 ())

(* Smaller instances for the overlapped-driver matrix. *)
let ico_small = lazy (Build.icosahedral ~level:2 ~lloyd_iters:2 ())
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

(* --- exchange structure ------------------------------------------------- *)

let build_exchange n_ranks =
  let m = Lazy.force mesh in
  Exchange.build m (Mpas_partition.Partition.sfc m ~n_parts:n_ranks)

let test_exchange_well_formed () =
  List.iter
    (fun n_ranks ->
      Alcotest.(check (list string))
        (Format.sprintf "%d ranks" n_ranks)
        []
        (Exchange.check (build_exchange n_ranks)))
    [ 1; 2; 4; 7 ]

let test_single_rank_has_no_ghosts () =
  let x = build_exchange 1 in
  let s = x.Exchange.sets.(0) in
  Alcotest.(check int) "no ghost cells" 0 (Array.length s.Exchange.ghost_cells);
  Alcotest.(check int) "no ghost edges" 0 (Array.length s.Exchange.ghost_edges);
  Alcotest.(check int) "owns all cells" (Lazy.force mesh).n_cells
    (Span.cardinal s.Exchange.own_cells)

let test_exchange_moves_ghost_values () =
  let x = build_exchange 3 in
  let m = Lazy.force mesh in
  (* Each rank's copy starts with its rank id everywhere; after the
     exchange every ghost slot holds its owner's id. *)
  let fields =
    Array.init 3 (fun r -> Array.make m.n_cells (float_of_int r))
  in
  Exchange.exchange x Exchange.Cells fields;
  Array.iter
    (fun s ->
      Array.iter
        (fun g ->
          Alcotest.(check (float 0.))
            "ghost holds owner's value"
            (float_of_int x.Exchange.cell_owner.(g))
            fields.(s.Exchange.rank).(g))
        s.Exchange.ghost_cells)
    x.Exchange.sets

let test_exchange_counts_traffic () =
  let x = build_exchange 4 in
  let m = Lazy.force mesh in
  Exchange.reset_stats x;
  let fields = Array.init 4 (fun _ -> Array.make m.n_cells 0.) in
  Exchange.exchange x Exchange.Cells fields;
  let ghost_total =
    Array.fold_left
      (fun acc s -> acc + Array.length s.Exchange.ghost_cells)
      0 x.Exchange.sets
  in
  Alcotest.(check (float 0.1))
    "bytes = 8 * ghosts"
    (8. *. float_of_int ghost_total)
    (Exchange.bytes_moved x)

(* --- distributed model --------------------------------------------------- *)

let test_distributed_matches_serial () =
  let m = Lazy.force mesh in
  let serial = Model.init Williamson.Tc5 m in
  let dist = Driver.init ~n_ranks:4 Williamson.Tc5 m in
  Model.run serial ~steps:5;
  Driver.run dist ~steps:5;
  let gathered = Driver.gather_state dist in
  (* Owned entries use identical per-item arithmetic: bitwise equal. *)
  let same_h =
    Array.for_all Fun.id
      (Array.init m.n_cells (fun c ->
           Float.equal serial.Model.state.Fields.h.(c) gathered.Fields.h.(c)))
  in
  let same_u =
    Array.for_all Fun.id
      (Array.init m.n_edges (fun e ->
           Float.equal serial.Model.state.Fields.u.(e) gathered.Fields.u.(e)))
  in
  Alcotest.(check bool) "h bitwise equal" true same_h;
  Alcotest.(check bool) "u bitwise equal" true same_u

let test_rank_count_invariance () =
  let m = Lazy.force mesh in
  let d2 = Driver.init ~n_ranks:2 Williamson.Tc2 m in
  let d6 = Driver.init ~n_ranks:6 Williamson.Tc2 m in
  Driver.run d2 ~steps:3;
  Driver.run d6 ~steps:3;
  let g2 = Driver.gather_state d2 and g6 = Driver.gather_state d6 in
  Alcotest.(check bool) "2 vs 6 ranks bitwise equal" true
    (g2.Fields.h = g6.Fields.h && g2.Fields.u = g6.Fields.u)

let test_poison_does_not_leak () =
  (* NaN planted outside own+ghost must never reach owned values: the
     kernels only read what the ownership discipline allows. *)
  let m = Lazy.force mesh in
  let dist = Driver.init ~n_ranks:4 Williamson.Tc5 m in
  Driver.poison_invisible dist;
  Driver.run dist ~steps:2;
  Alcotest.(check bool) "owned values stay finite" true
    (Driver.owned_values_finite dist)

let test_distributed_conserves_mass () =
  let m = Lazy.force mesh in
  let dist = Driver.init ~n_ranks:3 Williamson.Tc5 m in
  let mass state =
    let acc = ref 0. in
    for c = 0 to m.n_cells - 1 do
      acc := !acc +. (state.Fields.h.(c) *. m.area_cell.(c))
    done;
    !acc
  in
  let before = mass (Driver.gather_state dist) in
  Driver.run dist ~steps:5;
  let after = mass (Driver.gather_state dist) in
  Alcotest.(check bool) "mass conserved" true
    (Stats.rel_diff before after < 1e-13)

let test_traffic_matches_netmodel_scale () =
  (* The measured per-step halo traffic should be within a small factor
     of what the analytic network model assumes. *)
  let m = Lazy.force mesh in
  let dist = Driver.init ~n_ranks:4 Williamson.Tc5 m in
  Exchange.reset_stats dist.Driver.exchange;
  Driver.run dist ~steps:1;
  let measured = Exchange.bytes_moved dist.Driver.exchange in
  let patch = Mpas_machine.Netmodel.analytic_patch ~cells:m.n_cells ~ranks:4 in
  (* Analytic model: 8 exchanges of 2 fields over the boundary; the
     fine-grained driver exchanges ~13 fields x 4 substeps. *)
  let boundary = float_of_int patch.Mpas_machine.Netmodel.boundary_cells in
  let analytic_low = 8. *. 2. *. boundary *. 8. *. 4. (* 4 ranks *) in
  Alcotest.(check bool)
    (Format.sprintf "measured %.0f within [1x, 40x] of coarse model %.0f"
       measured analytic_low)
    true
    (measured > analytic_low && measured < 40. *. analytic_low)

let test_dt_default_and_explicit () =
  let m = Lazy.force mesh in
  let auto = Driver.init ~n_ranks:2 Williamson.Tc5 m in
  let fixed = Driver.init ~n_ranks:2 ~dt:100. Williamson.Tc5 m in
  Alcotest.(check (float 1e-9))
    "default dt matches Williamson heuristic"
    (Williamson.recommended_dt Williamson.Tc5 m)
    auto.Driver.dt;
  Alcotest.(check (float 0.)) "explicit dt" 100. fixed.Driver.dt

let test_distributed_tracers_and_del4 () =
  (* The extension paths (tracer transport, biharmonic diffusion) must
     also be bitwise identical between serial and distributed runs. *)
  let m = Lazy.force mesh in
  let bell = Williamson.cosine_bell m in
  let dx = Mesh.mean_spacing m in
  let config =
    { Config.default with visc4 = 1e-4 *. (dx ** 4.) /. 86400. }
  in
  let serial = Model.init ~config ~tracers:[| bell |] Williamson.Tc5 m in
  let dist =
    Driver.init ~config ~tracers:[| bell |] ~n_ranks:4 Williamson.Tc5 m
  in
  Model.run serial ~steps:3;
  Driver.run dist ~steps:3;
  let same = ref true in
  Array.iter
    (fun s ->
      Span.iter
        (fun c ->
          if
            not
              (Float.equal
                 serial.Model.state.Fields.tracers.(0).(c)
                 dist.Driver.states.(s.Exchange.rank).Fields.tracers.(0).(c))
          then same := false;
          if
            not
              (Float.equal serial.Model.state.Fields.h.(c)
                 dist.Driver.states.(s.Exchange.rank).Fields.h.(c))
          then same := false)
        s.Exchange.own_cells)
    dist.Driver.exchange.Exchange.sets;
  Alcotest.(check bool) "tracers + del4 bitwise equal" true !same

(* --- dist vs solo under the shared chain order ------------------------ *)

(* A planar-hex mesh with real boundary edges: the periodic family with
   one edge in seven masked, so X2 does work inside the tend chain. *)
let hex_bounded = lazy (Mesh.with_boundary_edges (Lazy.force hex) (fun e -> e mod 7 = 0))

(* Every switch the chain order branches on, each taken at least once:
   advection order, PV average, del-2 and del-4 diffusion, bottom drag,
   and both tracer schemes (with the tracer count). *)
let battery_configs (m : Mesh.t) =
  let d = Config.default and dx = Mesh.mean_spacing m in
  let visc2 = 1e-3 *. dx and visc4 = 1e-4 *. (dx ** 4.) /. 86400. in
  [
    ("default", d, 0);
    ("second, edge-only", { d with h_adv_order = Second; pv_average = Edge_only }, 0);
    ("visc2 + drag", { d with visc2; bottom_drag = 1e-5 }, 0);
    ("visc4, centered tracer", { d with visc4 }, 1);
    ("visc2, upwind tracers", { d with visc2; tracer_adv = Upwind }, 2);
    ( "everything",
      {
        d with
        h_adv_order = Second;
        pv_average = Edge_only;
        visc2;
        visc4;
        bottom_drag = 1e-5;
        tracer_adv = Upwind;
      },
      1 );
  ]

let battery_cases () =
  let ico = Williamson.prepare_mesh Williamson.Tc5 (Lazy.force ico_small) in
  let ico_state, ico_b = Williamson.init Williamson.Tc5 ico in
  let hex = Lazy.force hex_bounded in
  [
    ("icosahedral", ico, ico_state, ico_b, Williamson.recommended_dt Williamson.Tc5 ico);
    ( "planar-hex bounded",
      hex,
      (* a bump on the balanced state, so the flow evolves *)
      (let s = hex_state hex in
       { s with Fields.h = Array.mapi (fun c h -> h +. (10. *. sin (float_of_int c))) s.Fields.h }),
      Array.make hex.Mesh.n_cells 0.,
      5. );
  ]

(* Owned entries of every rank, tracers included, against the solo
   [Timestep.refactored] run: bitwise. *)
let dist_matches_solo (m : Mesh.t) state ~b ~dt ~config ~n_tracers ~n_ranks
    ~steps =
  let tracers =
    Array.init n_tracers (fun k ->
        Array.init m.Mesh.n_cells (fun c ->
            0.5 +. (0.4 *. sin (float_of_int (c * (k + 3))))))
  in
  let state = { state with Fields.tracers } in
  let solo = Model.of_state ~config ~dt ~b m state in
  let dist = Driver.of_state ~config ~n_ranks ~dt ~b m state in
  Model.run solo ~steps;
  Driver.run dist ~steps;
  let ok = ref true in
  let same a b i = if not (Float.equal a.(i) b.(i)) then ok := false in
  let s = solo.Model.state in
  Array.iter
    (fun (r : Timestep.rank) ->
      Span.iter
        (fun c ->
          same s.Fields.h r.Timestep.state.Fields.h c;
          Array.iteri
            (fun k row -> same row r.Timestep.state.Fields.tracers.(k) c)
            s.Fields.tracers)
        r.Timestep.cells;
      Span.iter (fun e -> same s.Fields.u r.Timestep.state.Fields.u e)
        r.Timestep.edges)
    dist.Driver.ranks;
  !ok

let test_battery_dist_matches_solo () =
  List.iter
    (fun (mname, m, state, b, dt) ->
      List.iter
        (fun (cname, config, n_tracers) ->
          List.iter
            (fun n_ranks ->
              Alcotest.(check bool)
                (Printf.sprintf "%s, %s, %d ranks" mname cname n_ranks)
                true
                (dist_matches_solo m state ~b ~dt ~config ~n_tracers ~n_ranks
                   ~steps:2))
            [ 1; 3; 4 ])
        (battery_configs m))
    (battery_cases ())

(* 40 exchanges per step at the default (fourth-order) configuration,
   10 per substep, whatever the rank count. *)
let test_battery_exchange_count () =
  List.iter
    (fun (mname, m, state, b, dt) ->
      List.iter
        (fun n_ranks ->
          let d = Driver.of_state ~n_ranks ~dt ~b m state in
          Exchange.reset_stats d.Driver.exchange;
          Driver.run d ~steps:2;
          Alcotest.(check int)
            (Printf.sprintf "%s, %d ranks" mname n_ranks)
            80 d.Driver.exchange.Exchange.exchanges)
        [ 1; 3; 4 ])
    (battery_cases ())

(* NaN outside own + ghost never reaches an owned value, under every
   battery configuration. *)
let test_battery_poison () =
  List.iter
    (fun (mname, m, state, b, dt) ->
      List.iter
        (fun (cname, config, _) ->
          let d = Driver.of_state ~config ~n_ranks:4 ~dt ~b m state in
          Driver.poison_invisible d;
          Driver.run d ~steps:2;
          Alcotest.(check bool)
            (Printf.sprintf "%s, %s" mname cname)
            true (Driver.owned_values_finite d))
        (battery_configs m))
    (battery_cases ())

(* Models on a mesh whose reconstruction table an earlier model built
   run bitwise like the same models on a fresh deserialized copy, which
   builds its own table: the shared table carries nothing stale.  The
   reconstructed velocities are compared too, since they feed no
   tendency. *)
let test_shared_table_matches_fresh () =
  let m = Williamson.prepare_mesh Williamson.Tc5 (Lazy.force ico_small) in
  let earlier = Model.init Williamson.Tc5 m in
  Model.run earlier ~steps:1;
  let fresh = Mesh_io.of_string (Mesh_io.to_string m) in
  Alcotest.(check bool) "later models share the table" true
    (Reconstruct.init m == earlier.Model.recon);
  Alcotest.(check bool) "the fresh copy has none yet" true
    (fresh.Mesh.recon_cache = None);
  let state, b = Williamson.init Williamson.Tc5 m in
  let dt = Williamson.recommended_dt Williamson.Tc5 m in
  let same what a b =
    Alcotest.(check bool) what true
      (Array.for_all2 (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y) a b)
  in
  let recon_fields (r : Fields.reconstruction) =
    [ r.Fields.ux; r.Fields.uy; r.Fields.uz; r.Fields.zonal; r.Fields.meridional ]
  in
  let solo mesh =
    let t = Model.of_state ~dt ~b mesh state in
    Model.run t ~steps:3;
    t
  in
  let a = solo m and f = solo fresh in
  same "model h" a.Model.state.Fields.h f.Model.state.Fields.h;
  same "model u" a.Model.state.Fields.u f.Model.state.Fields.u;
  List.iter2 (same "model reconstruction")
    (recon_fields a.Model.work.Timestep.recon)
    (recon_fields f.Model.work.Timestep.recon);
  let dist mesh =
    let d = Driver.of_state ~n_ranks:3 ~dt ~b mesh state in
    Driver.run d ~steps:3;
    d
  in
  let a = dist m and f = dist fresh in
  same "driver h" (Driver.gather_state a).Fields.h (Driver.gather_state f).Fields.h;
  same "driver u" (Driver.gather_state a).Fields.u (Driver.gather_state f).Fields.u;
  Array.iteri
    (fun r (rank : Timestep.rank) ->
      List.iter2
        (fun x y ->
          Span.iter
            (fun c ->
              if Int64.bits_of_float x.(c) <> Int64.bits_of_float y.(c) then
                Alcotest.failf "driver reconstruction: rank %d cell %d" r c)
            rank.Timestep.cells)
        (recon_fields rank.Timestep.work.Timestep.recon)
        (recon_fields f.Driver.ranks.(r).Timestep.work.Timestep.recon))
    a.Driver.ranks

(* Both constructors check their inputs against the mesh before anything
   is built: one case per kind of bad input, on the 162-cell mesh. *)
let entry_cases who (make : dt:float -> b:float array -> Fields.state -> unit)
    =
  let m = Lazy.force ico_small in
  let nc = m.Mesh.n_cells and ne = m.Mesh.n_edges in
  let state = { Fields.h = Array.make nc 1000.; u = Array.make ne 0.; tracers = [||] } in
  let b = Array.make nc 0. in
  let rejects inputs expected () =
    List.iter2
      (fun (dt, b, state) expected ->
        match make ~dt ~b state with
        | () -> Alcotest.failf "%s accepted: %s" who expected
        | exception Invalid_argument msg ->
            Alcotest.(check string) "message" (who ^ ": " ^ expected) msg)
      inputs expected
  in
  let counted what got expected =
    Printf.sprintf "%s (got %d, expected %d)" what got expected
  in
  [
    ( who ^ " b length",
      rejects [ (60., Array.make 10 0., state) ] [ counted "b cells" 10 nc ] );
    ( who ^ " dt <= 0",
      rejects
        [ (-1., b, state); (0., b, state); (Float.nan, b, state) ]
        [ "dt = -1, need > 0"; "dt = 0, need > 0"; "dt = nan, need > 0" ] );
    ( who ^ " h and u lengths",
      rejects
        [
          (60., b, { state with Fields.h = Array.make (nc - 1) 1000. });
          (60., b, { state with Fields.u = Array.make (ne + 1) 0. });
        ]
        [ counted "state.h cells" (nc - 1) nc; counted "state.u edges" (ne + 1) ne ]
    );
    ( who ^ " tracer row length",
      rejects
        [ (60., b, { state with Fields.tracers = [| Array.make nc 1.; Array.make 5 1. |] }) ]
        [ counted "tracer row 1 cells" 5 nc ] );
  ]

let entry_check_tests =
  List.map
    (fun (name, f) -> Alcotest.test_case name `Quick f)
    (entry_cases "Model.of_state" (fun ~dt ~b s ->
         ignore (Model.of_state ~dt ~b (Lazy.force ico_small) s : Model.t))
    @ entry_cases "Driver.of_state" (fun ~dt ~b s ->
          ignore
            (Driver.of_state ~n_ranks:2 ~dt ~b (Lazy.force ico_small) s
              : Driver.t)))

(* The owned span sets of all ranks tile [0, n) of each space exactly
   once. *)
let test_owned_spans_tile () =
  List.iter
    (fun (mname, (m : Mesh.t), _, _, _) ->
      List.iter
        (fun n_ranks ->
          let x = Exchange.build m (Mpas_partition.Partition.sfc m ~n_parts:n_ranks) in
          List.iter
            (fun (space, n, own) ->
              let hits = Array.make n 0 in
              Array.iter
                (fun s -> Span.iter (fun i -> hits.(i) <- hits.(i) + 1) (own s))
                x.Exchange.sets;
              Alcotest.(check bool)
                (Printf.sprintf "%s, %d ranks, %s" mname n_ranks space)
                true
                (Array.for_all (fun h -> h = 1) hits
                && Array.for_all (fun s -> Span.bound (own s) <= n) x.Exchange.sets))
            [
              ("cells", m.Mesh.n_cells, fun s -> s.Exchange.own_cells);
              ("edges", m.Mesh.n_edges, fun s -> s.Exchange.own_edges);
              ("vertices", m.Mesh.n_vertices, fun s -> s.Exchange.own_vertices);
            ])
        [ 1; 3; 4 ])
    (battery_cases ())

(* --- overlapped driver ------------------------------------------------- *)

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

let test_exchange_arity_reports_counts () =
  let x = build_exchange 4 in
  (match
     Exchange.exchange x Exchange.Cells (Array.init 3 (fun _ -> [||]))
   with
  | () -> Alcotest.fail "short field array accepted"
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        ("reports actual and expected: " ^ msg)
        true
        (contains msg "got 3" && contains msg "expected 4"));
  match
    Exchange.exchange x Exchange.Cells (Array.init 6 (fun _ -> [||]))
  with
  | () -> Alcotest.fail "long field array accepted"
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        ("reports actual and expected: " ^ msg)
        true
        (contains msg "got 6" && contains msg "expected 4")

(* The pairs (classic, overlapped) both built from the same initial
   state; bitwise identity of the gathered state after [steps]. *)
let overlap_matches_classic m state ~dt ~n_ranks ~depth ~steps =
  let b = Array.make m.Mesh.n_cells 0. in
  let classic = Driver.of_state ~n_ranks ~dt ~b m state in
  let ov = Overlap.of_driver ~depth (Driver.of_state ~n_ranks ~dt ~b m state) in
  Driver.run classic ~steps;
  Overlap.run ov ~steps;
  let a = Driver.gather_state classic and o = Overlap.gather_state ov in
  a.Fields.h = o.Fields.h && a.Fields.u = o.Fields.u

let test_overlap_matches_classic_10_steps () =
  let cases =
    [
      ("icosahedral", Lazy.force ico_small, None);
      ("planar-hex", Lazy.force hex, Some (hex_state (Lazy.force hex)));
    ]
  in
  List.iter
    (fun (name, m, state) ->
      let state, dt =
        match state with
        | Some s -> (s, 5.)
        | None ->
            let m' = Williamson.prepare_mesh Williamson.Tc5 m in
            let s, _b = Williamson.init Williamson.Tc5 m' in
            (s, Williamson.recommended_dt Williamson.Tc5 m')
      in
      List.iter
        (fun n_ranks ->
          List.iter
            (fun depth ->
              Alcotest.(check bool)
                (Printf.sprintf "%s, %d ranks, depth %d" name n_ranks depth)
                true
                (overlap_matches_classic m state ~dt ~n_ranks ~depth ~steps:10))
            [ 1; 2 ])
        [ 1; 2; 4 ])
    cases

let test_overlap_spec_well_formed () =
  let m = Lazy.force ico_small in
  let ov = Overlap.of_driver (Driver.init ~n_ranks:3 Williamson.Tc5 m) in
  Alcotest.(check (list string)) "spec check" [] (Mpas_runtime.Spec.check (Overlap.spec ov));
  (* comm kinds really appear *)
  let kinds p =
    Array.fold_left
      (fun acc (tk : Mpas_runtime.Spec.task) ->
        match tk.Mpas_runtime.Spec.kind with
        | Mpas_runtime.Spec.Compute -> acc
        | k -> Mpas_runtime.Spec.kind_name k :: acc)
      [] p.Mpas_runtime.Spec.tasks
  in
  let count name l =
    List.length (List.filter (fun k -> k = name) l)
  in
  let early = kinds (Overlap.spec ov).Mpas_runtime.Spec.early in
  (* 10 exchanged fields per early sweep at fourth order, 3 ranks:
     pack/unpack per rank, one transfer each *)
  Alcotest.(check int) "early packs" 30 (count "pack" early);
  Alcotest.(check int) "early transfers" 10 (count "exchange" early);
  Alcotest.(check int) "early unpacks" 30 (count "unpack" early)

let test_overlap_counts_traffic () =
  (* Overlapped ghost traffic must equal the classic driver's. *)
  let m = Lazy.force ico_small in
  let classic = Driver.init ~n_ranks:3 Williamson.Tc5 m in
  let od = Driver.init ~n_ranks:3 Williamson.Tc5 m in
  let ov = Overlap.of_driver od in
  Exchange.reset_stats classic.Driver.exchange;
  Exchange.reset_stats od.Driver.exchange;
  Driver.run classic ~steps:2;
  Overlap.run ov ~steps:2;
  Alcotest.(check int)
    "same exchange count" classic.Driver.exchange.Exchange.exchanges
    od.Driver.exchange.Exchange.exchanges;
  Alcotest.(check int)
    "same values moved" classic.Driver.exchange.Exchange.values_moved
    od.Driver.exchange.Exchange.values_moved

let test_overlap_rejects_unsupported () =
  let m = Lazy.force ico_small in
  let bell = Williamson.cosine_bell m in
  let with_tracers =
    Driver.init ~tracers:[| bell |] ~n_ranks:2 Williamson.Tc5 m
  in
  Alcotest.check_raises "tracers rejected"
    (Invalid_argument
       "Mpas_dist.Overlap.of_driver: tracers and biharmonic diffusion need \
        the classic Driver.step")
    (fun () -> ignore (Overlap.of_driver with_tracers))

(* --- properties ------------------------------------------------------------ *)

let prop_bitwise_equal_any_rank_count =
  QCheck.Test.make ~name:"distributed = serial for any rank count" ~count:4
    QCheck.(int_range 2 8)
    (fun n_ranks ->
      let m = Lazy.force mesh in
      let serial = Model.init Williamson.Tc6 m in
      let dist = Driver.init ~n_ranks Williamson.Tc6 m in
      Model.run serial ~steps:2;
      Driver.run dist ~steps:2;
      let g = Driver.gather_state dist in
      g.Fields.h = serial.Model.state.Fields.h
      && g.Fields.u = serial.Model.state.Fields.u)

(* Interior/boundary classification invariants, over random rank
   counts and halo depths. *)
let sorted_union a b =
  List.sort compare (Array.to_list (Span.to_array a) @ Array.to_list (Span.to_array b))

let prop_split_tiles_owned =
  QCheck.Test.make ~name:"interior + boundary tile the owned sets" ~count:6
    QCheck.(pair (int_range 2 6) (int_range 1 3))
    (fun (n_ranks, depth) ->
      let x = build_exchange n_ranks in
      let splits = Exchange.classify x ~depth in
      Array.for_all
        (fun (sp : Exchange.split) ->
          let s = x.Exchange.sets.(sp.Exchange.sp_rank) in
          sorted_union sp.Exchange.int_cells sp.Exchange.bnd_cells
          = Array.to_list (Span.to_array s.Exchange.own_cells)
          && sorted_union sp.Exchange.int_edges sp.Exchange.bnd_edges
             = Array.to_list (Span.to_array s.Exchange.own_edges)
          && sorted_union sp.Exchange.int_vertices sp.Exchange.bnd_vertices
             = Array.to_list (Span.to_array s.Exchange.own_vertices))
        splits)

let prop_send_subset_of_boundary =
  QCheck.Test.make ~name:"send sets are contained in the boundary" ~count:6
    QCheck.(pair (int_range 2 6) (int_range 1 3))
    (fun (n_ranks, depth) ->
      let x = build_exchange n_ranks in
      let splits = Exchange.classify x ~depth in
      let subset a b =
        let inb = Hashtbl.create 64 in
        Span.iter (fun i -> Hashtbl.replace inb i ()) b;
        Array.for_all (Hashtbl.mem inb) a
      in
      Array.for_all
        (fun (sp : Exchange.split) ->
          subset sp.Exchange.send_cells sp.Exchange.bnd_cells
          && subset sp.Exchange.send_edges sp.Exchange.bnd_edges
          && subset sp.Exchange.send_vertices sp.Exchange.bnd_vertices)
        splits)

let prop_interior_stencils_read_no_ghost =
  QCheck.Test.make
    ~name:"depth-1 stencils on interior entities read owned data only"
    ~count:6
    QCheck.(pair (int_range 2 6) (int_range 1 3))
    (fun (n_ranks, depth) ->
      let m = Lazy.force mesh in
      let x = build_exchange n_ranks in
      let splits = Exchange.classify x ~depth in
      Array.for_all
        (fun (sp : Exchange.split) ->
          let r = sp.Exchange.sp_rank in
          let own_c c = x.Exchange.cell_owner.(c) = r in
          let own_e e = x.Exchange.edge_owner.(e) = r in
          let own_v v = x.Exchange.vertex_owner.(v) = r in
          let csr = m.csr in
          let all own table lo hi =
            let ok = ref true in
            for j = lo to hi - 1 do
              if not (own table.(j)) then ok := false
            done;
            !ok
          in
          Array.for_all
            (fun c ->
              let lo = csr.cell_offsets.(c) and hi = csr.cell_offsets.(c + 1) in
              all own_e csr.cell_edges lo hi
              && all own_c csr.cell_neighbors lo hi
              && all own_v csr.cell_vertices lo hi)
            (Span.to_array sp.Exchange.int_cells)
          && Array.for_all
               (fun e ->
                 all own_c csr.edge_cells (2 * e) ((2 * e) + 2)
                 && all own_v csr.edge_vertices (2 * e) ((2 * e) + 2)
                 && all own_e csr.eoe_edges csr.eoe_offsets.(e)
                      csr.eoe_offsets.(e + 1))
               (Span.to_array sp.Exchange.int_edges)
          && Array.for_all
               (fun v ->
                 all own_e csr.vertex_edges (3 * v) ((3 * v) + 3)
                 && all own_c csr.vertex_cells (3 * v) ((3 * v) + 3))
               (Span.to_array sp.Exchange.int_vertices))
        splits)

let prop_exchange_idempotent =
  QCheck.Test.make ~name:"exchange is idempotent" ~count:5
    QCheck.(int_range 2 6)
    (fun n_ranks ->
      let m = Lazy.force mesh in
      let x = build_exchange n_ranks in
      let r = Rng.create 9L in
      let fields =
        Array.init n_ranks (fun _ ->
            Array.init m.n_cells (fun _ -> Rng.uniform r 0. 1.))
      in
      Exchange.exchange x Exchange.Cells fields;
      let snapshot = Array.map Array.copy fields in
      Exchange.exchange x Exchange.Cells fields;
      Array.for_all2 (fun a b -> a = b) snapshot fields)

let () =
  Alcotest.run "dist"
    [
      ( "exchange",
        [
          Alcotest.test_case "well formed" `Quick test_exchange_well_formed;
          Alcotest.test_case "single rank" `Quick test_single_rank_has_no_ghosts;
          Alcotest.test_case "ghost values" `Quick
            test_exchange_moves_ghost_values;
          Alcotest.test_case "traffic stats" `Quick test_exchange_counts_traffic;
        ] );
      ( "distributed model",
        [
          Alcotest.test_case "matches serial bitwise" `Quick
            test_distributed_matches_serial;
          Alcotest.test_case "rank-count invariant" `Quick
            test_rank_count_invariance;
          Alcotest.test_case "poison containment" `Quick
            test_poison_does_not_leak;
          Alcotest.test_case "mass conservation" `Quick
            test_distributed_conserves_mass;
          Alcotest.test_case "traffic scale" `Quick
            test_traffic_matches_netmodel_scale;
          Alcotest.test_case "dt handling" `Quick test_dt_default_and_explicit;
          Alcotest.test_case "tracers + del4" `Quick
            test_distributed_tracers_and_del4;
        ] );
      ( "solo chain order",
        [
          Alcotest.test_case "dist = solo, every switch" `Quick
            test_battery_dist_matches_solo;
          Alcotest.test_case "40 exchanges per step" `Quick
            test_battery_exchange_count;
          Alcotest.test_case "poison containment, every switch" `Quick
            test_battery_poison;
          Alcotest.test_case "owned spans tile the spaces" `Quick
            test_owned_spans_tile;
          Alcotest.test_case "shared recon table = fresh mesh" `Quick
            test_shared_table_matches_fresh;
        ] );
      ("entry checks", entry_check_tests);
      ( "overlapped driver",
        [
          Alcotest.test_case "exchange arity message" `Quick
            test_exchange_arity_reports_counts;
          Alcotest.test_case "matches classic, 10 steps" `Quick
            test_overlap_matches_classic_10_steps;
          Alcotest.test_case "spec well formed" `Quick
            test_overlap_spec_well_formed;
          Alcotest.test_case "traffic stats match classic" `Quick
            test_overlap_counts_traffic;
          Alcotest.test_case "unsupported configs rejected" `Quick
            test_overlap_rejects_unsupported;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_bitwise_equal_any_rank_count;
            prop_exchange_idempotent;
            prop_split_tiles_owned;
            prop_send_subset_of_boundary;
            prop_interior_stencils_read_no_ghost;
          ] );
    ]
