open Mpas_mesh
open Mpas_swe
open Mpas_patterns
open Mpas_runtime

(* Access inference by shadow instrumentation: every registry instance
   is compiled through Bind (exactly the closures the runtime
   schedules) and run against randomized field arrays; writes are
   detected by diffing two runs from two independent bases, reads by
   poisoning one cell at a time with NaN and watching whether any
   written cell's bits change.  The inferred footprint is then diffed
   against the Table I declarations. *)

type slot = { s_name : string; s_point : Pattern.point; s_arr : float array }

type t = {
  mesh : Mesh.t;
  env : Bind.env;
  slots : slot list;
  base1 : float array list;  (* aligned with slots *)
  base2 : float array list;
  cache :
    (string list * (float * float) option * bool, Footprint.t) Hashtbl.t;
}

(* Every conditional registry kernel must actually execute during
   probing: nonzero viscosity and drag (C1, X1), fourth-order advection
   (H2, B2's d2fdx2 read), nonzero APVM (F's advective reads). *)
let probe_config =
  {
    Config.default with
    Config.visc2 = 0.75;
    bottom_drag = 0.35;
    h_adv_order = Config.Fourth;
  }

(* Deterministic fill in [1, 2): reproducible probes without seeding
   the global RNG. *)
let fill_pseudo_random seed a =
  let s = ref (Int64.of_int (seed + 0x9E3779B9)) in
  for i = 0 to Array.length a - 1 do
    s := Int64.add (Int64.mul !s 6364136223846793005L) 1442695040888963407L;
    let mant = Int64.to_float (Int64.shift_right_logical !s 11) in
    a.(i) <- 1. +. (mant /. 9007199254740992.)
  done

let create ?(config = probe_config) mesh0 =
  (* The boundary mask gives X2 real work on a strict subset of the
     edges (its partial-write carry is part of what the checker
     verifies); every seventh edge keeps the subset strict. *)
  let mesh = Mesh.with_boundary_edges mesh0 (fun e -> e mod 7 = 0) in
  let state = Fields.alloc_state mesh in
  let work = Timestep.alloc_workspace mesh in
  let recon = Reconstruct.init mesh in
  let env =
    {
      Bind.cfg = config;
      mesh;
      b = Array.make mesh.Mesh.n_cells 0.;
      dt = 1.0;
      state;
      work;
      recon = Some recon;
      rk = 0;
    }
  in
  let diag = work.Timestep.diag
  and tend = work.Timestep.tend
  and provis = work.Timestep.provis
  and accum = work.Timestep.accum
  and rc = work.Timestep.recon in
  let s name point arr = { s_name = name; s_point = point; s_arr = arr } in
  let slots =
    [
      s "state.h" Pattern.Mass state.Fields.h;
      s "state.u" Pattern.Velocity state.Fields.u;
      s "provis.h" Pattern.Mass provis.Fields.h;
      s "provis.u" Pattern.Velocity provis.Fields.u;
      s "tend.tend_h" Pattern.Mass tend.Fields.tend_h;
      s "tend.tend_u" Pattern.Velocity tend.Fields.tend_u;
      s "accum.h" Pattern.Mass accum.Fields.h;
      s "accum.u" Pattern.Velocity accum.Fields.u;
      s "diag.d2fdx2_cell" Pattern.Mass diag.Fields.d2fdx2_cell;
      s "diag.h_edge" Pattern.Velocity diag.Fields.h_edge;
      s "diag.ke" Pattern.Mass diag.Fields.ke;
      s "diag.divergence" Pattern.Mass diag.Fields.divergence;
      s "diag.vorticity" Pattern.Vorticity diag.Fields.vorticity;
      s "diag.h_vertex" Pattern.Vorticity diag.Fields.h_vertex;
      s "diag.pv_vertex" Pattern.Vorticity diag.Fields.pv_vertex;
      s "diag.pv_cell" Pattern.Mass diag.Fields.pv_cell;
      s "diag.v_tangential" Pattern.Velocity diag.Fields.v_tangential;
      s "diag.grad_pv_n" Pattern.Velocity diag.Fields.grad_pv_n;
      s "diag.grad_pv_t" Pattern.Velocity diag.Fields.grad_pv_t;
      s "diag.pv_edge" Pattern.Velocity diag.Fields.pv_edge;
      s "diag.lap_u" Pattern.Velocity diag.Fields.lap_u;
      s "diag.div_lap" Pattern.Mass diag.Fields.div_lap;
      s "diag.vort_lap" Pattern.Vorticity diag.Fields.vort_lap;
      s "recon.ux" Pattern.Mass rc.Fields.ux;
      s "recon.uy" Pattern.Mass rc.Fields.uy;
      s "recon.uz" Pattern.Mass rc.Fields.uz;
      s "recon.zonal" Pattern.Mass rc.Fields.zonal;
      s "recon.meridional" Pattern.Mass rc.Fields.meridional;
    ]
  in
  let base which =
    List.mapi
      (fun k sl ->
        let b = Array.make (Array.length sl.s_arr) 0. in
        fill_pseudo_random ((which * 1000) + k) b;
        b)
      slots
  in
  { mesh; env; slots; base1 = base 1; base2 = base 2; cache = Hashtbl.create 64 }

let mesh t = t.mesh

let restore_all t from =
  List.iter2
    (fun sl b -> Array.blit b 0 sl.s_arr 0 (Array.length b))
    t.slots from

let bits = Int64.bits_of_float

let mk_fused_task ?part members =
  match members with
  | [] -> invalid_arg "Infer: fused task needs at least one member"
  | first :: _ ->
      {
        Spec.index = 0;
        instance = first;
        members;
        part;
        cls = Spec.Host;
        kind = Spec.Compute;
        level = 0;
        preds = [];
        succs = [];
      }

let mk_task ?part inst = mk_fused_task ?part [ inst ]

let infer_uncached t ~final (tk : Spec.task) =
  let env = t.env in
  env.Bind.rk <- (if final then 3 else 0);
  let body = Bind.compile env ~final tk in
  let n_slots = List.length t.slots in
  let slots = Array.of_list t.slots in
  let b1 = Array.of_list t.base1 and b2 = Array.of_list t.base2 in
  (* Write detection: cells that change from either base.  A kernel
     would have to reproduce the incumbent pseudo-random value under
     both bases for a write to hide — none can. *)
  let writes = Array.map (fun sl -> Array.make (Array.length sl.s_arr) false) slots in
  restore_all t t.base1;
  body ();
  let ref1 = Array.map (fun sl -> Array.copy sl.s_arr) slots in
  for k = 0 to n_slots - 1 do
    let arr = slots.(k).s_arr and base = b1.(k) in
    for i = 0 to Array.length arr - 1 do
      if bits arr.(i) <> bits base.(i) then writes.(k).(i) <- true
    done
  done;
  restore_all t t.base2;
  body ();
  for k = 0 to n_slots - 1 do
    let arr = slots.(k).s_arr and base = b2.(k) in
    for i = 0 to Array.length arr - 1 do
      if bits arr.(i) <> bits base.(i) then writes.(k).(i) <- true
    done
  done;
  let touched =
    List.filter
      (fun k -> Array.exists Fun.id writes.(k))
      (List.init n_slots Fun.id)
  in
  let write_idx =
    List.map
      (fun k ->
        let out = ref [] in
        Array.iteri (fun i w -> if w then out := i :: !out) writes.(k);
        (k, !out))
      touched
  in
  (* Read detection: poison one cell, rerun from base1, and compare the
     written cells bit-for-bit against the reference run.  A blind
     overwrite of the poisoned cell reproduces the reference (no read);
     any data flow from the cell leaves a NaN or a changed value. *)
  let reads = Array.map (fun sl -> Array.make (Array.length sl.s_arr) false) slots in
  restore_all t t.base1;
  let restore_touched () =
    List.iter
      (fun k ->
        Array.blit b1.(k) 0 slots.(k).s_arr 0 (Array.length b1.(k)))
      touched
  in
  for a = 0 to n_slots - 1 do
    let arr = slots.(a).s_arr in
    for i = 0 to Array.length arr - 1 do
      arr.(i) <- Float.nan;
      body ();
      let evidence =
        List.exists
          (fun (k, idx) ->
            let out = slots.(k).s_arr and re = ref1.(k) in
            List.exists (fun j -> bits out.(j) <> bits re.(j)) idx)
          write_idx
      in
      if evidence then reads.(a).(i) <- true;
      restore_touched ();
      arr.(i) <- b1.(a).(i)
    done
  done;
  restore_all t t.base1;
  let fp = Footprint.create () in
  Array.iteri
    (fun k sl ->
      let size = Array.length sl.s_arr in
      Array.iteri
        (fun i r ->
          if r then
            Footprint.read fp ~name:sl.s_name ~point:sl.s_point ~size i)
        reads.(k);
      Array.iteri
        (fun i w ->
          if w then
            Footprint.write fp ~name:sl.s_name ~point:sl.s_point ~size i)
        writes.(k))
    slots;
  fp

let task_footprint t ~final (tk : Spec.task) =
  let key =
    ( List.map (fun (m : Pattern.instance) -> m.Pattern.id) tk.Spec.members,
      tk.Spec.part,
      final )
  in
  match Hashtbl.find_opt t.cache key with
  | Some fp -> fp
  | None ->
      let fp = infer_uncached t ~final tk in
      Hashtbl.add t.cache key fp;
      fp

let instance_footprint t ~final ~part inst =
  task_footprint t ~final (mk_task ?part inst)

let spec_footprints t (spec : Spec.t) =
  ( Array.map (task_footprint t ~final:false) spec.Spec.early.Spec.tasks,
    Array.map (task_footprint t ~final:true) spec.Spec.final.Spec.tasks )

(* --- registry diff ----------------------------------------------------- *)

type mode = Csr | Index_set | Parts of float

let mode_name = function
  | Csr -> "csr"
  | Index_set -> "index-set"
  | Parts f -> Printf.sprintf "parts(%g)" f

type violation =
  | Undeclared_read of string
  | Undeclared_write of string
  | Unread_input of string
  | Unwritten_output of string

let violation_message = function
  | Undeclared_read a -> "undeclared read of " ^ a
  | Undeclared_write a -> "undeclared write of " ^ a
  | Unread_input v -> "declared input " ^ v ^ " never read"
  | Unwritten_output v -> "declared output " ^ v ^ " never written"

type report = {
  r_instance : string;
  r_phase : [ `Early | `Final ];
  r_mode : mode;
  r_violations : violation list;
}

(* Concrete array slots a declared variable denotes for one instance.
   The accumulative update is the one indirection: its "h"/"u" are the
   accumulator rows, plus (in the final substep) the state rows the
   task publishes into. *)
let slots_of_var (inst : Pattern.instance) ~final ~write v =
  match (v, inst.Pattern.kernel) with
  | "h", Pattern.Accumulative_update ->
      if write && final then [ "accum.h"; "state.h" ] else [ "accum.h" ]
  | "u", Pattern.Accumulative_update ->
      if write && final then [ "accum.u"; "state.u" ] else [ "accum.u" ]
  | "h", _ -> [ "state.h" ]
  | "u", _ -> [ "state.u" ]
  | "provis_h", _ -> [ "provis.h" ]
  | "provis_u", _ -> [ "provis.u" ]
  | "tend_h", _ -> [ "tend.tend_h" ]
  | "tend_u", _ -> [ "tend.tend_u" ]
  | "v", _ -> [ "diag.v_tangential" ]
  | "uReconstructX", _ -> [ "recon.ux" ]
  | "uReconstructY", _ -> [ "recon.uy" ]
  | "uReconstructZ", _ -> [ "recon.uz" ]
  | "uReconstructZonal", _ -> [ "recon.zonal" ]
  | "uReconstructMeridional", _ -> [ "recon.meridional" ]
  | d, _ -> [ "diag." ^ d ]

let parts_of_mode = function
  | Csr -> [ None ]
  | Index_set -> [ Some (0., 1.) ]
  | Parts f ->
      let f = Float.max 0.05 (Float.min 0.95 f) in
      [ Some (0., f); Some (f, 1.) ]

let check_instance t ~final ~mode (inst : Pattern.instance) =
  let fp =
    List.fold_left
      (fun acc part ->
        let fp = instance_footprint t ~final ~part inst in
        match acc with None -> Some fp | Some a -> Some (Footprint.union a fp))
      None (parts_of_mode mode)
    |> Option.get
  in
  let expected f lst =
    List.sort_uniq compare
      (List.concat_map (fun v -> slots_of_var inst ~final ~write:f v) lst)
  in
  let expected_reads = expected false inst.Pattern.inputs in
  let expected_writes = expected true inst.Pattern.outputs in
  let undeclared =
    List.concat_map
      (fun (name, (a : Footprint.access)) ->
        let r =
          if
            (not (Footprint.Iset.is_empty a.Footprint.reads))
            && not (List.mem name expected_reads)
          then [ Undeclared_read name ]
          else []
        in
        let w =
          if
            (not (Footprint.Iset.is_empty a.Footprint.writes))
            && not (List.mem name expected_writes)
          then [ Undeclared_write name ]
          else []
        in
        r @ w)
      (Footprint.slots fp)
  in
  let read_somewhere v =
    List.exists
      (fun name ->
        match Footprint.find fp name with
        | Some a -> not (Footprint.Iset.is_empty a.Footprint.reads)
        | None -> false)
      (slots_of_var inst ~final ~write:false v)
  in
  (* Partial-write carry: a declared input that is also an output counts
     as read when the task writes a strict subset of the space — the
     preserved complement is the carried dependency (X2's boundary
     mask). *)
  let carried v =
    List.mem v inst.Pattern.outputs
    && List.exists
         (fun name ->
           match Footprint.find fp name with
           | Some a ->
               (not (Footprint.Iset.is_empty a.Footprint.writes))
               && not (Footprint.Iset.is_full a.Footprint.writes)
           | None -> false)
         (slots_of_var inst ~final ~write:true v)
  in
  let unread =
    List.filter_map
      (fun v ->
        if read_somewhere v || carried v then None else Some (Unread_input v))
      inst.Pattern.inputs
  in
  let unwritten =
    List.filter_map
      (fun v ->
        let written =
          List.exists
            (fun name ->
              match Footprint.find fp name with
              | Some a -> not (Footprint.Iset.is_empty a.Footprint.writes)
              | None -> false)
            (slots_of_var inst ~final ~write:true v)
        in
        if written then None else Some (Unwritten_output v))
      inst.Pattern.outputs
  in
  undeclared @ unread @ unwritten

(* Fused super-task validation: the compiled super-kernel's inferred
   footprint, diffed against the union of the members' Table I
   declarations.  Inputs a member reads from an earlier member's
   output are {e internal} — the super-kernel may carry them in
   registers, so reading the array is optional (and in fact invisible
   to the NaN probe, since the fused body overwrites the slot before
   any member could read it).  Every member's declared outputs must
   still be written in full: a fusion that drops a member's write set
   (or a member wholesale) is exactly the bug this check exists to
   catch. *)
let check_fused ?body t ~final ~mode (members : Pattern.instance list) =
  if members = [] then invalid_arg "Infer.check_fused: no members";
  let body = Option.value body ~default:members in
  let fp =
    List.fold_left
      (fun acc part ->
        let fp = task_footprint t ~final (mk_fused_task ?part body) in
        match acc with None -> Some fp | Some a -> Some (Footprint.union a fp))
      None (parts_of_mode mode)
    |> Option.get
  in
  let out_slots (m : Pattern.instance) =
    List.concat_map (fun v -> slots_of_var m ~final ~write:true v)
      m.Pattern.outputs
  in
  let in_slots (m : Pattern.instance) =
    List.concat_map (fun v -> slots_of_var m ~final ~write:false v)
      m.Pattern.inputs
  in
  let expected_reads =
    List.sort_uniq compare (List.concat_map in_slots members)
  in
  let expected_writes =
    List.sort_uniq compare (List.concat_map out_slots members)
  in
  let undeclared =
    List.concat_map
      (fun (name, (a : Footprint.access)) ->
        let r =
          if
            (not (Footprint.Iset.is_empty a.Footprint.reads))
            && not (List.mem name expected_reads)
          then [ Undeclared_read name ]
          else []
        in
        let w =
          if
            (not (Footprint.Iset.is_empty a.Footprint.writes))
            && not (List.mem name expected_writes)
          then [ Undeclared_write name ]
          else []
        in
        r @ w)
      (Footprint.slots fp)
  in
  let read_slot name =
    match Footprint.find fp name with
    | Some a -> not (Footprint.Iset.is_empty a.Footprint.reads)
    | None -> false
  in
  let written_slot name =
    match Footprint.find fp name with
    | Some a -> not (Footprint.Iset.is_empty a.Footprint.writes)
    | None -> false
  in
  let partial_slot name =
    match Footprint.find fp name with
    | Some a ->
        (not (Footprint.Iset.is_empty a.Footprint.writes))
        && not (Footprint.Iset.is_full a.Footprint.writes)
    | None -> false
  in
  (* Walk members in chain order, accumulating the slots produced so
     far: a later member's input found there is internalized. *)
  let violations = ref [] in
  let produced = ref [] in
  List.iter
    (fun (m : Pattern.instance) ->
      List.iter
        (fun v ->
          let slots = slots_of_var m ~final ~write:false v in
          let internal = List.exists (fun s -> List.mem s !produced) slots in
          let carried =
            List.mem v m.Pattern.outputs
            && List.exists partial_slot (slots_of_var m ~final ~write:true v)
          in
          if
            (not internal) && (not carried)
            && not (List.exists read_slot slots)
          then
            violations :=
              Unread_input (m.Pattern.id ^ ":" ^ v) :: !violations)
        m.Pattern.inputs;
      List.iter
        (fun v ->
          let slots = slots_of_var m ~final ~write:true v in
          if not (List.exists written_slot slots) then
            violations :=
              Unwritten_output (m.Pattern.id ^ ":" ^ v) :: !violations;
          produced := slots @ !produced)
        m.Pattern.outputs)
    members;
  undeclared @ List.rev !violations

let default_fused_modes = [ Csr; Parts 0.4 ]

(* Every fused chain the planner actually builds, under every plan
   shape the spec admits — the fusion analogue of [check_registry]. *)
let check_fused_spec ?(modes = default_fused_modes) t =
  let spec = Spec.build ~fuse:true ~recon:true () in
  List.concat_map
    (fun (final, phase, (p : Spec.phase)) ->
      List.concat_map
        (fun (tk : Spec.task) ->
          List.map
            (fun mode ->
              {
                r_instance =
                  String.concat "+"
                    (List.map
                       (fun (m : Pattern.instance) -> m.Pattern.id)
                       tk.Spec.members);
                r_phase = phase;
                r_mode = mode;
                r_violations = check_fused t ~final ~mode tk.Spec.members;
              })
            modes)
        (Array.to_list p.Spec.tasks))
    [ (false, `Early, spec.Spec.early); (true, `Final, spec.Spec.final) ]

let default_modes = [ Csr; Index_set; Parts 0.4 ]

let check_registry ?(modes = default_modes) t =
  let spec = Spec.build ~recon:true () in
  let phase_instances (p : Spec.phase) =
    Array.to_list (Array.map (fun tk -> tk.Spec.instance) p.Spec.tasks)
  in
  List.concat_map
    (fun (final, phase, insts) ->
      List.concat_map
        (fun inst ->
          List.map
            (fun mode ->
              {
                r_instance = inst.Pattern.id;
                r_phase = phase;
                r_mode = mode;
                r_violations = check_instance t ~final ~mode inst;
              })
            modes)
        insts)
    [
      (false, `Early, phase_instances spec.Spec.early);
      (true, `Final, phase_instances spec.Spec.final);
    ]

let failed reports = List.filter (fun r -> r.r_violations <> []) reports
