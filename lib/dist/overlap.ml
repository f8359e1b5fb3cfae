open Mpas_par
open Mpas_swe
open Mpas_patterns
module Spec = Mpas_runtime.Spec
module Bind = Mpas_runtime.Bind
module Exec = Mpas_runtime.Exec

(* The overlapped distributed driver: one RK-4 step compiled to a task
   DAG in which halo communication is first-class.  Every kernel
   instance becomes, per rank, an interior task and a boundary task
   (the transfer-overlap split of Exchange.classify); each "Exchange
   halo" box of the classic driver becomes a pack-per-rank /
   transfer / unpack-per-rank group whose edges make
   boundary-compute -> pack -> transfer -> unpack -> consumer real
   hazard edges, while interior compute carries no edge to the wire
   and overlaps it.

   Dependence edges come from a last-writer/readers table over
   region-resolved variable keys "var@rank,region" with region one of
   interior / boundary / ghost, plus buffer keys for the send and
   receive staging arrays.  Regions of one rank are disjoint, so a
   footprint conflict between two tasks implies a shared key, and the
   table emits an edge (or a writer chain) for every shared key — the
   declared footprints [accesses] hands to Mpas_analysis are exact for
   writes and over-approximate reads consistently with the keys, so
   the static race check of the generated program is clean by
   construction and any dropped edge is detected. *)

type region = Int | Bnd | Gho

type access = {
  a_slot : string;
  a_point : Pattern.point;
  a_size : int;
  a_reads : Span.t list;
  a_writes : Span.t list;
}

type t = {
  driver : Driver.t;
  depth : int;
  mode : Exec.mode;
  pool : Mpas_par.Pool.t option;
  log : Exec.log option;
  splits : Exchange.split array;
  spec : Spec.t;
  early_bodies : (unit -> unit) array;
  final_bodies : (unit -> unit) array;
  early_accesses : access list array;
  final_accesses : access list array;
  envs : Bind.env array;
  step_exchanges : int;  (** comm groups run per step, for the stats *)
  step_values : int;  (** ghost values moved per step *)
}

let handles (d : Driver.t) =
  d.Driver.config.Config.visc4 = 0.
  && Fields.n_tracers d.Driver.states.(0) = 0

(* Fields the classic driver exchanges (tracers excluded — [handles]
   gates them out), with the instance whose retirement triggers the
   exchange.  Order within a list is the classic exchange order. *)
let comm_after ~final ~(cfg : Config.t) = function
  | "X3" -> [ ("provis_h", Pattern.Mass); ("provis_u", Pattern.Velocity) ]
  | "X5" when final -> [ ("h", Pattern.Mass); ("u", Pattern.Velocity) ]
  | "H2" when cfg.Config.h_adv_order = Config.Fourth ->
      [ ("d2fdx2_cell", Pattern.Mass) ]
  | "B2" -> [ ("h_edge", Pattern.Velocity) ]
  | "D2" ->
      [
        ("ke", Pattern.Mass);
        ("divergence", Pattern.Mass);
        ("vorticity", Pattern.Vorticity);
        ("pv_vertex", Pattern.Vorticity);
      ]
  | "E" -> [ ("pv_cell", Pattern.Mass) ]
  | "F" -> [ ("pv_edge", Pattern.Velocity) ]
  | _ -> []

let field_array (d : Driver.t) ~field ~rank =
  let diag () = d.Driver.diags.(rank) in
  match field with
  | "provis_h" -> d.Driver.provis.(rank).Fields.h
  | "provis_u" -> d.Driver.provis.(rank).Fields.u
  | "h" -> d.Driver.states.(rank).Fields.h
  | "u" -> d.Driver.states.(rank).Fields.u
  | "d2fdx2_cell" -> (diag ()).Fields.d2fdx2_cell
  | "h_edge" -> (diag ()).Fields.h_edge
  | "ke" -> (diag ()).Fields.ke
  | "divergence" -> (diag ()).Fields.divergence
  | "vorticity" -> (diag ()).Fields.vorticity
  | "pv_vertex" -> (diag ()).Fields.pv_vertex
  | "pv_cell" -> (diag ()).Fields.pv_cell
  | "pv_edge" -> (diag ()).Fields.pv_edge
  | f -> invalid_arg ("Mpas_dist.Overlap: not an exchanged field: " ^ f)

(* Region-resolved dependence keys and the span sets behind them. *)

let region_tag = function Int -> 'i' | Bnd -> 'b' | Gho -> 'g'
let key v r reg = Printf.sprintf "%s@%d%c" v r (region_tag reg)
let slot_name v r = Printf.sprintf "r%d:%s" r v
let sbuf_name v r = Printf.sprintf "sbuf:%s@%d" v r
let rbuf_name v r = Printf.sprintf "rbuf:%s@%d" v r
let rbuf_key v = "rbuf:" ^ v

(* The span set of a region: a compute set for interior and boundary,
   the (sorted) ghost list for ghosts. *)
let region_set (x : Exchange.t) (splits : Exchange.split array) pt reg r =
  match (pt, reg) with
  | Pattern.Mass, Int -> splits.(r).Exchange.int_cells
  | Pattern.Mass, Bnd -> splits.(r).Exchange.bnd_cells
  | Pattern.Mass, Gho -> Span.of_sorted x.Exchange.sets.(r).Exchange.ghost_cells
  | Pattern.Velocity, Int -> splits.(r).Exchange.int_edges
  | Pattern.Velocity, Bnd -> splits.(r).Exchange.bnd_edges
  | Pattern.Velocity, Gho ->
      Span.of_sorted x.Exchange.sets.(r).Exchange.ghost_edges
  | Pattern.Vorticity, Int -> splits.(r).Exchange.int_vertices
  | Pattern.Vorticity, Bnd -> splits.(r).Exchange.bnd_vertices
  | Pattern.Vorticity, Gho ->
      Span.of_sorted x.Exchange.sets.(r).Exchange.ghost_vertices

let var_point v = (Registry.variable v).Registry.var_point

(* Phase builder: tasks accumulate in emission order (the classic
   driver's order, hence topological); edges come from the key
   tables.  A group's tasks are mutually independent — edges are
   computed against the pre-group table state, then the whole group's
   reads and writes are recorded. *)

type pending = {
  p_inst : Pattern.instance;
  p_kind : Spec.kind;
  p_body : unit -> unit;
  p_rkeys : string list;
  p_wkeys : string list;
  p_acc : access list;
}

type builder = {
  mutable rev : pending list;
  mutable count : int;
  mutable edges : (int * int) list;
  last_w : (string, int) Hashtbl.t;
  readers : (string, int list) Hashtbl.t;
}

let new_builder () =
  {
    rev = [];
    count = 0;
    edges = [];
    last_w = Hashtbl.create 256;
    readers = Hashtbl.create 256;
  }

let emit bld group =
  let base = bld.count in
  let idx = List.mapi (fun k p -> (base + k, p)) group in
  List.iter
    (fun (i, p) ->
      let dep j = if j <> i then bld.edges <- (j, i) :: bld.edges in
      List.iter
        (fun k -> Option.iter dep (Hashtbl.find_opt bld.last_w k))
        p.p_rkeys;
      List.iter
        (fun k ->
          List.iter dep
            (Option.value ~default:[] (Hashtbl.find_opt bld.readers k));
          Option.iter dep (Hashtbl.find_opt bld.last_w k))
        p.p_wkeys)
    idx;
  List.iter
    (fun (i, p) ->
      List.iter
        (fun k ->
          Hashtbl.replace bld.readers k
            (i :: Option.value ~default:[] (Hashtbl.find_opt bld.readers k)))
        p.p_rkeys)
    idx;
  List.iter
    (fun (i, p) ->
      List.iter
        (fun k ->
          Hashtbl.replace bld.last_w k i;
          Hashtbl.replace bld.readers k [])
        p.p_wkeys)
    idx;
  List.iter
    (fun (_, p) ->
      bld.rev <- p :: bld.rev;
      bld.count <- bld.count + 1)
    idx

(* One kernel instance -> interior + boundary task per rank.  A
   read-modify-write variable (also an output, always point-wise here)
   is read exactly in the task's own region; a pure input is read in
   every region its depth-1 stencil can touch: interior tasks reach
   interior + boundary (never a ghost — the point of the split),
   boundary tasks additionally reach ghosts, which is what serializes
   them after the unpack. *)
let compute_group bld ~(x : Exchange.t) ~splits ~envs ~final
    (inst : Pattern.instance) =
  let m = x.Exchange.mesh in
  let size pt = Bind.space_size m pt in
  let rset = region_set x splits in
  let rmw v = List.mem v inst.Pattern.outputs in
  let task r reg =
    let rkeys, racc =
      List.fold_left
        (fun (ks, acc) v ->
          let pt = var_point v in
          let regs =
            if rmw v then [ reg ]
            else if reg = Bnd then [ Int; Bnd; Gho ]
            else [ Int; Bnd ]
          in
          ( List.map (key v r) regs @ ks,
            {
              a_slot = slot_name v r;
              a_point = pt;
              a_size = size pt;
              a_reads = List.map (fun rg -> rset pt rg r) regs;
              a_writes = [];
            }
            :: acc ))
        ([], []) inst.Pattern.inputs
    in
    let wkeys, wacc =
      List.fold_left
        (fun (ks, acc) v ->
          let pt = var_point v in
          ( key v r reg :: ks,
            {
              a_slot = slot_name v r;
              a_point = pt;
              a_size = size pt;
              a_reads = [];
              a_writes = [ rset pt reg r ];
            }
            :: acc ))
        ([], []) inst.Pattern.outputs
    in
    {
      p_inst = inst;
      p_kind = Spec.Compute;
      p_body =
        Bind.compile_on envs.(r) ~final
          ~on_cells:(rset Pattern.Mass reg r)
          ~on_edges:(rset Pattern.Velocity reg r)
          ~on_vertices:(rset Pattern.Vorticity reg r)
          inst;
      p_rkeys = rkeys;
      p_wkeys = wkeys;
      p_acc = racc @ wacc;
    }
  in
  let nr = Array.length envs in
  emit bld
    (List.concat
       (List.init nr (fun r -> [ task r Int; task r Bnd ])))

let comm_instance ~id ~field ~point =
  {
    Pattern.id;
    kind = Pattern.Local;
    kernel = Pattern.Halo_exchange;
    spaces = [ point ];
    inputs = [ field ];
    neighbour_inputs = [];
    outputs = [ field ];
    irregular = false;
  }

(* One halo exchange of [field] -> pack group, transfer, unpack group.
   Buffers are per field so exchanges of different fields can fly
   concurrently.  Returns the ghost-value count for the traffic
   stats. *)
let comm_group bld ~(d : Driver.t) ~splits ~field ~point =
  let x = d.Driver.exchange in
  let m = x.Exchange.mesh in
  let nr = x.Exchange.n_ranks in
  let owner, send_of, ghosts_of =
    match point with
    | Pattern.Mass ->
        ( x.Exchange.cell_owner,
          (fun r -> splits.(r).Exchange.send_cells),
          fun r -> x.Exchange.sets.(r).Exchange.ghost_cells )
    | Pattern.Velocity ->
        ( x.Exchange.edge_owner,
          (fun r -> splits.(r).Exchange.send_edges),
          fun r -> x.Exchange.sets.(r).Exchange.ghost_edges )
    | Pattern.Vorticity ->
        ( x.Exchange.vertex_owner,
          (fun r -> splits.(r).Exchange.send_vertices),
          fun r -> x.Exchange.sets.(r).Exchange.ghost_vertices )
  in
  let n = Bind.space_size m point in
  (* Position of each sent entity in its owner's send buffer. *)
  let off = Array.make n (-1) in
  for r = 0 to nr - 1 do
    Array.iteri (fun j i -> off.(i) <- j) (send_of r)
  done;
  let sbufs = Array.init nr (fun r -> Array.make (Array.length (send_of r)) 0.) in
  let rbufs = Array.init nr (fun r -> Array.make (Array.length (send_of r)) 0.) in
  let arr r = field_array d ~field ~rank:r in
  let comm r = { Spec.cm_field = field; cm_point = point; cm_rank = r } in
  let sbuf_acc r rw =
    let len = Array.length sbufs.(r) in
    {
      a_slot = sbuf_name field r;
      a_point = point;
      a_size = len;
      a_reads = (if rw = `R then [ Span.full len ] else []);
      a_writes = (if rw = `W then [ Span.full len ] else []);
    }
  in
  let rbuf_acc r rw =
    let len = Array.length rbufs.(r) in
    {
      a_slot = rbuf_name field r;
      a_point = point;
      a_size = len;
      a_reads = (if rw = `R then [ Span.full len ] else []);
      a_writes = (if rw = `W then [ Span.full len ] else []);
    }
  in
  emit bld
    (List.init nr (fun r ->
         {
           p_inst =
             comm_instance
               ~id:(Printf.sprintf "PK:%s@%d" field r)
               ~field ~point;
           p_kind = Spec.Pack (comm r);
           p_body = Bind.pack_body ~src:(arr r) ~send:(send_of r) ~buf:sbufs.(r);
           p_rkeys = [ key field r Bnd ];
           p_wkeys = [ sbuf_name field r ];
           p_acc =
             [
               {
                 a_slot = slot_name field r;
                 a_point = point;
                 a_size = n;
                 a_reads = [ Span.of_sorted (send_of r) ];
                 a_writes = [];
               };
               sbuf_acc r `W;
             ];
         }));
  emit bld
    [
      {
        p_inst = comm_instance ~id:("XF:" ^ field) ~field ~point;
        p_kind = Spec.Exchange { Spec.cm_field = field; cm_point = point; cm_rank = -1 };
        p_body = Bind.transfer_body ~sbufs ~rbufs;
        p_rkeys = List.init nr (sbuf_name field);
        p_wkeys = [ rbuf_key field ];
        p_acc =
          List.concat
            (List.init nr (fun r -> [ sbuf_acc r `R; rbuf_acc r `W ]));
      };
    ];
  emit bld
    (List.init nr (fun r ->
         let ghosts = ghosts_of r in
         let from_rank = Array.map (fun g -> owner.(g)) ghosts in
         let from_off = Array.map (fun g -> off.(g)) ghosts in
         {
           p_inst =
             comm_instance
               ~id:(Printf.sprintf "UP:%s@%d" field r)
               ~field ~point;
           p_kind = Spec.Unpack (comm r);
           p_body = Bind.unpack_body ~dst:(arr r) ~ghosts ~from_rank ~from_off ~rbufs;
           p_rkeys = [ rbuf_key field ];
           p_wkeys = [ key field r Gho ];
           p_acc =
             {
               a_slot = slot_name field r;
               a_point = point;
               a_size = n;
               a_reads = [];
               a_writes = [ Span.of_sorted ghosts ];
             }
             :: List.init nr (fun r' -> rbuf_acc r' `R);
         }));
  Array.fold_left (fun acc r -> acc + Array.length (ghosts_of r)) 0
    (Array.init nr (fun r -> r))

let finalize bld =
  let pend = Array.of_list (List.rev bld.rev) in
  let nt = Array.length pend in
  let preds = Array.make nt [] and succs = Array.make nt [] in
  List.iter
    (fun (s, d) ->
      preds.(d) <- s :: preds.(d);
      succs.(s) <- d :: succs.(s))
    (List.sort_uniq compare bld.edges);
  let level = Array.make nt 0 in
  for i = 0 to nt - 1 do
    List.iter (fun p -> level.(i) <- Int.max level.(i) (level.(p) + 1)) preds.(i)
  done;
  let n_levels = Array.fold_left (fun a l -> Int.max a (l + 1)) 1 level in
  let tasks =
    Array.init nt (fun i ->
        {
          Spec.index = i;
          instance = pend.(i).p_inst;
          members = [ pend.(i).p_inst ];
          part = None;
          cls = Spec.Host;
          kind = pend.(i).p_kind;
          level = level.(i);
          preds = List.sort_uniq compare preds.(i);
          succs = List.sort_uniq compare succs.(i);
        })
  in
  ( { Spec.tasks; n_levels },
    Array.map (fun p -> p.p_body) pend,
    Array.map (fun p -> p.p_acc) pend )

let build_phase (d : Driver.t) splits envs ~final =
  let bld = new_builder () in
  let cfg = d.Driver.config in
  let groups = ref 0 and values = ref 0 in
  let insts =
    if final then Spec.final_instances ~recon:true else Spec.early_instances ()
  in
  List.iter
    (fun (inst : Pattern.instance) ->
      compute_group bld ~x:d.Driver.exchange ~splits ~envs ~final inst;
      List.iter
        (fun (field, point) ->
          incr groups;
          values := !values + comm_group bld ~d ~splits ~field ~point)
        (comm_after ~final ~cfg inst.Pattern.id))
    insts;
  (finalize bld, !groups, !values)

let of_driver ?(mode = Exec.Async) ?pool ?log ?(depth = 1) (d : Driver.t) =
  if not (handles d) then
    invalid_arg
      "Mpas_dist.Overlap.of_driver: tracers and biharmonic diffusion need \
       the classic Driver.step";
  let splits = Exchange.classify d.Driver.exchange ~depth in
  let nr = d.Driver.exchange.Exchange.n_ranks in
  let envs =
    Array.init nr (fun r ->
        {
          Bind.cfg = d.Driver.config;
          mesh = d.Driver.mesh;
          b = d.Driver.b;
          dt = d.Driver.dt;
          state = d.Driver.states.(r);
          work = d.Driver.ranks.(r).Timestep.work;
          recon = Some d.Driver.recon;
          rk = 0;
        })
  in
  let (early, early_bodies, early_accesses), e_groups, e_values =
    build_phase d splits envs ~final:false
  in
  let (final, final_bodies, final_accesses), f_groups, f_values =
    build_phase d splits envs ~final:true
  in
  {
    driver = d;
    depth;
    mode;
    pool;
    log;
    splits;
    spec = { Spec.early; final };
    early_bodies;
    final_bodies;
    early_accesses;
    final_accesses;
    envs;
    step_exchanges = (3 * e_groups) + f_groups;
    step_values = (3 * e_values) + f_values;
  }

let spec t = t.spec
let driver t = t.driver
let splits t = t.splits
let depth t = t.depth

let accesses t = function
  | `Early -> t.early_accesses
  | `Final -> t.final_accesses

let bodies t = function
  | `Early -> t.early_bodies
  | `Final -> t.final_bodies

let m_steps = Mpas_obs.Metrics.counter "dist.overlap.steps"

let step_body t =
  let d = t.driver in
  let nr = d.Driver.exchange.Exchange.n_ranks in
  for r = 0 to nr - 1 do
    Fields.blit_state ~src:d.Driver.states.(r) ~dst:d.Driver.accums.(r);
    Fields.blit_state ~src:d.Driver.states.(r) ~dst:d.Driver.provis.(r)
  done;
  let host_lanes =
    match t.pool with None -> 1 | Some p -> Mpas_par.Pool.size p
  in
  let instrument _ body = body () in
  for rk = 0 to 2 do
    Array.iter (fun env -> env.Bind.rk <- rk) t.envs;
    Exec.run_phase ?log:t.log ~mode:t.mode ~pool:t.pool ~host_lanes
      ~phase:`Early ~substep:rk ~instrument t.spec.Spec.early t.early_bodies
  done;
  Array.iter (fun env -> env.Bind.rk <- 3) t.envs;
  Exec.run_phase ?log:t.log ~mode:t.mode ~pool:t.pool ~host_lanes
    ~phase:`Final ~substep:3 ~instrument t.spec.Spec.final t.final_bodies;
  Exchange.record_traffic d.Driver.exchange ~exchanges:t.step_exchanges
    ~values:t.step_values;
  d.Driver.steps_taken <- d.Driver.steps_taken + 1

let step t =
  Mpas_obs.Metrics.Counter.incr m_steps;
  Mpas_obs.Trace.with_span ~cat:"dist"
    ~args:
      [
        ("ranks", string_of_int t.driver.Driver.exchange.Exchange.n_ranks);
        ("mode", Exec.mode_name t.mode);
      ]
    "dist.overlap.step"
    (fun () -> step_body t)

let run t ~steps =
  for _ = 1 to steps do
    step t
  done

let gather_state t = Driver.gather_state t.driver
