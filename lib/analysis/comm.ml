open Mpas_runtime
open Mpas_dist

(* Verification of communication-extended schedules: the overlapped
   distributed driver declares, per task, region index sets (interior /
   boundary / ghost per rank, plus staging buffers).  [footprints]
   turns the declarations into the checkers' footprint form so
   [Races.check_spec] / [Races.check_log] cover pack/transfer/unpack
   tasks exactly like compute tasks; [verify_bodies] validates the
   declarations themselves against the compiled comm closures by
   running each chain over an encoded shadow state. *)

let footprint_of (accs : Overlap.access list) =
  let f = Footprint.create () in
  List.iter
    (fun (a : Overlap.access) ->
      List.iter
        (Mpas_par.Span.iter (fun i ->
             Footprint.read f ~name:a.Overlap.a_slot ~point:a.Overlap.a_point
               ~size:a.Overlap.a_size i))
        a.Overlap.a_reads;
      List.iter
        (Mpas_par.Span.iter (fun i ->
             Footprint.write f ~name:a.Overlap.a_slot ~point:a.Overlap.a_point
               ~size:a.Overlap.a_size i))
        a.Overlap.a_writes)
    accs;
  f

let footprints ov =
  ( Array.map footprint_of (Overlap.accesses ov `Early),
    Array.map footprint_of (Overlap.accesses ov `Final) )

let check_spec ov =
  let early_footprints, final_footprints = footprints ov in
  Races.check_spec ~early_footprints ~final_footprints (Overlap.spec ov)

let check_log ov entries =
  let early_footprints, final_footprints = footprints ov in
  Races.check_log ~spec:(Overlap.spec ov) ~early_footprints ~final_footprints
    entries

(* Exchanged fields of one phase, first-appearance order. *)
let comm_fields (tasks : Spec.task array) =
  Array.fold_left
    (fun acc (tk : Spec.task) ->
      match Spec.comm_of tk.Spec.kind with
      | Some c ->
          if List.mem_assoc c.Spec.cm_field acc then acc
          else (c.Spec.cm_field, c.Spec.cm_point) :: acc
      | None -> acc)
    [] tasks
  |> List.rev

let verify_bodies ov =
  let d = Overlap.driver ov in
  let x = d.Driver.exchange in
  let nr = x.Exchange.n_ranks in
  let m = x.Exchange.mesh in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let spec = Overlap.spec ov in
  List.iter
    (fun ph ->
      let phase =
        match ph with
        | `Early -> spec.Spec.early
        | `Final -> spec.Spec.final
      in
      let phase_name = match ph with `Early -> "early" | `Final -> "final" in
      let bodies = Overlap.bodies ov ph in
      List.iter
        (fun (field, point) ->
          let n, owner, ghosts_of =
            match point with
            | Mpas_patterns.Pattern.Mass ->
                ( m.Mpas_mesh.Mesh.n_cells,
                  x.Exchange.cell_owner,
                  fun r -> x.Exchange.sets.(r).Exchange.ghost_cells )
            | Mpas_patterns.Pattern.Velocity ->
                ( m.Mpas_mesh.Mesh.n_edges,
                  x.Exchange.edge_owner,
                  fun r -> x.Exchange.sets.(r).Exchange.ghost_edges )
            | Mpas_patterns.Pattern.Vorticity ->
                ( m.Mpas_mesh.Mesh.n_vertices,
                  x.Exchange.vertex_owner,
                  fun r -> x.Exchange.sets.(r).Exchange.ghost_vertices )
          in
          let encode r i = float_of_int (1 + (r * n) + i) in
          let arrs =
            Array.init nr (fun r -> Overlap.field_array d ~field ~rank:r)
          in
          let saved = Array.map Array.copy arrs in
          Array.iteri
            (fun r a ->
              for i = 0 to n - 1 do
                a.(i) <- encode r i
              done)
            arrs;
          (* run this field's pack -> transfer -> unpack chain in task
             (= spec topological) order *)
          Array.iteri
            (fun ti (tk : Spec.task) ->
              match Spec.comm_of tk.Spec.kind with
              | Some c when c.Spec.cm_field = field -> bodies.(ti) ()
              | _ -> ())
            phase.Spec.tasks;
          for r = 0 to nr - 1 do
            let ghost = Array.make n false in
            Array.iter (fun g -> ghost.(g) <- true) (ghosts_of r);
            for i = 0 to n - 1 do
              let expect =
                if ghost.(i) then encode owner.(i) i else encode r i
              in
              if arrs.(r).(i) <> expect then
                err "%s %s: rank %d slot %d holds %g, expected %g (%s)"
                  phase_name field r i
                  arrs.(r).(i)
                  expect
                  (if ghost.(i) then "ghost not filled from owner"
                   else "non-ghost value clobbered")
            done
          done;
          Array.iteri (fun r a -> Array.blit saved.(r) 0 a 0 n) arrs)
        (comm_fields phase.Spec.tasks))
    [ `Early; `Final ];
  List.rev !errors
