open Mpas_mesh

(* The unsafe-indexed CSR fast paths, as data: every
   [Array.unsafe_get/set] in Mpas_swe.Operators and Mpas_swe.Reconstruct
   (and Mpas_patterns.Refactor.edge_to_cell_csr) is catalogued with the
   shape of its index expression, and each shape is discharged against
   the typed CSR invariants of [Mesh.Csr.validate] and the table lengths
   of [Mesh.Csr.validate_recon].  The fast paths
   thereby carry a machine-checked justification: if [validate] is
   clean, every unsafe index is in bounds. *)

type space = Cells | Edges | Vertices

let space_name = function
  | Cells -> "cells"
  | Edges -> "edges"
  | Vertices -> "vertices"

let space_size (m : Mesh.t) = function
  | Cells -> m.Mesh.n_cells
  | Edges -> m.Mesh.n_edges
  | Vertices -> m.Mesh.n_vertices

(* The index expression shapes the fast paths use.  The loop variable
   ranges over the kernel's loop space. *)
type index =
  | Iter  (** the loop variable itself *)
  | Iter_next  (** loop variable + 1 (upper row bound fetch) *)
  | Row of string  (** packed position j in [offsets.(i), offsets.(i+1)) *)
  | Stride of int  (** width * loop variable + k, k < width *)
  | Loaded of { table : string; space : space }
      (** a connectivity value loaded from [table], indexing an array
          over [space] *)

let index_name = function
  | Iter -> "i"
  | Iter_next -> "i+1"
  | Row offs -> Printf.sprintf "j in %s row" offs
  | Stride w -> Printf.sprintf "%d*i+k" w
  | Loaded { table; _ } -> Printf.sprintf "%s[.]" table

type array_class =
  | Csr_offsets  (** a row-offsets table of the CSR view *)
  | Csr_table  (** a flat CSR data table *)
  | Geometry  (** a mesh geometry array *)
  | Field  (** a caller-provided field, length-guarded at kernel entry *)

type site = {
  s_kernel : string;
  s_array : string;
  s_class : array_class;
  s_access : [ `Get | `Set ];
  s_index : index;
  s_loop : space;
}

(* What must hold for the site's index to be in bounds. *)
type invariant =
  | Offsets_shape_ok of { offsets : string; rows : space }
      (** offsets has rows+1 entries, starts at 0, monotone *)
  | Flat_covered_ok of { data : string; offsets : string }
      (** offsets well-shaped and [offsets.(rows) = length data] *)
  | In_range_ok of { table : string; space : space }
      (** every entry of [table] is in [0, size space) *)
  | Strided_ok of { table : string; space : space; width : int }
      (** [length table = width * size space] *)
  | Sized_ok of { table : string; space : space }
      (** geometry array has exactly [size space] entries *)
  | Guarded_len of { field : string; space : space }
      (** runtime [check_len] guard at kernel entry: field length is at
          least the space size — an assumption, not a CSR invariant *)

let invariant_name = function
  | Offsets_shape_ok { offsets; rows } ->
      Printf.sprintf "%s well-shaped over %s" offsets (space_name rows)
  | Flat_covered_ok { data; offsets } ->
      Printf.sprintf "%s covered by %s" data offsets
  | In_range_ok { table; space } ->
      Printf.sprintf "%s entries in [0, #%s)" table (space_name space)
  | Strided_ok { table; space; width } ->
      Printf.sprintf "%s has %d entries per %s" table width
        (space_name space)
  | Sized_ok { table; space } ->
      Printf.sprintf "%s sized to %s" table (space_name space)
  | Guarded_len { field; space } ->
      Printf.sprintf "check_len guard: %s covers %s" field (space_name space)

let is_assumption = function Guarded_len _ -> true | _ -> false

(* Obligations per index shape.  The loaded-value obligations pair the
   range of the connectivity entries with the size of the array they
   index. *)
let obligations (s : site) =
  let target_sized space =
    match s.s_class with
    | Geometry -> [ Sized_ok { table = s.s_array; space } ]
    | Field -> [ Guarded_len { field = s.s_array; space } ]
    | Csr_offsets -> [ Offsets_shape_ok { offsets = s.s_array; rows = space } ]
    | Csr_table ->
        invalid_arg
          ("Bounds: CSR table " ^ s.s_array ^ " indexed by a loaded value")
  in
  match s.s_index with
  | Iter | Iter_next -> (
      match s.s_class with
      | Csr_offsets ->
          [ Offsets_shape_ok { offsets = s.s_array; rows = s.s_loop } ]
      | Geometry -> [ Sized_ok { table = s.s_array; space = s.s_loop } ]
      | Field -> [ Guarded_len { field = s.s_array; space = s.s_loop } ]
      | Csr_table ->
          invalid_arg ("Bounds: CSR table " ^ s.s_array ^ " indexed by i"))
  | Row offsets ->
      [
        Offsets_shape_ok { offsets; rows = s.s_loop };
        Flat_covered_ok { data = s.s_array; offsets };
      ]
  | Stride width ->
      [ Strided_ok { table = s.s_array; space = s.s_loop; width } ]
  | Loaded { table; space } -> In_range_ok { table; space } :: target_sized space

(* --- the catalog -------------------------------------------------------- *)

let site kernel loop array_ cls access index =
  {
    s_kernel = kernel;
    s_array = array_;
    s_class = cls;
    s_access = access;
    s_index = index;
    s_loop = loop;
  }

(* Shared shapes of the cell-row kernels: walk a cell's packed row. *)
let cell_row k tables =
  site k Cells "cell_offsets" Csr_offsets `Get Iter
  :: site k Cells "cell_offsets" Csr_offsets `Get Iter_next
  :: List.map
       (fun t -> site k Cells t Csr_table `Get (Row "cell_offsets"))
       tables

let eoe_row k tables =
  site k Edges "eoe_offsets" Csr_offsets `Get Iter
  :: site k Edges "eoe_offsets" Csr_offsets `Get Iter_next
  :: List.map
       (fun t -> site k Edges t Csr_table `Get (Row "eoe_offsets"))
       tables

let via k loop field table space =
  site k loop field Field `Get (Loaded { table; space })

let via_geom k loop g table space =
  site k loop g Geometry `Get (Loaded { table; space })

(* Every body is catalogued under its own name ([<stencil>_at]); the
   kernel and chain loops that call it contribute only the stores of
   its result and the point-wise operands they pass in. *)
let catalog =
  List.concat
    [
      (* H2: Operators.d2fdx2_at *)
      cell_row "d2fdx2_at" [ "cell_edges"; "cell_neighbors" ];
      [
        site "d2fdx2_at" Cells "h" Field `Get Iter;
        via "d2fdx2_at" Cells "h" "cell_neighbors" Cells;
        via_geom "d2fdx2_at" Cells "dv_edge" "cell_edges" Edges;
        via_geom "d2fdx2_at" Cells "dc_edge" "cell_edges" Edges;
        site "d2fdx2_at" Cells "area_cell" Geometry `Get Iter;
        site "d2fdx2" Cells "out" Field `Set Iter;
      ];
      (* B2: Operators.h_edge_at *)
      [
        site "h_edge_at" Edges "edge_cells" Csr_table `Get (Stride 2);
        via "h_edge_at" Edges "h" "edge_cells" Cells;
        via "h_edge_at" Edges "d2fdx2_cell" "edge_cells" Cells;
        site "h_edge_at" Edges "dc_edge" Geometry `Get Iter;
        site "h_edge" Edges "out" Field `Set Iter;
      ];
      (* A2: Operators.kinetic_energy_at *)
      cell_row "kinetic_energy_at" [ "cell_edges" ];
      [
        via "kinetic_energy_at" Cells "u" "cell_edges" Edges;
        via_geom "kinetic_energy_at" Cells "dc_edge" "cell_edges" Edges;
        via_geom "kinetic_energy_at" Cells "dv_edge" "cell_edges" Edges;
        site "kinetic_energy_at" Cells "area_cell" Geometry `Get Iter;
        site "kinetic_energy" Cells "out" Field `Set Iter;
      ];
      (* A3: Operators.divergence_at *)
      cell_row "divergence_at" [ "cell_edges"; "cell_edge_signs" ];
      [
        via "divergence_at" Cells "u" "cell_edges" Edges;
        via_geom "divergence_at" Cells "dv_edge" "cell_edges" Edges;
        site "divergence_at" Cells "area_cell" Geometry `Get Iter;
        site "divergence" Cells "out" Field `Set Iter;
      ];
      (* D1: Operators.vorticity_at *)
      [
        site "vorticity_at" Vertices "vertex_edges" Csr_table `Get (Stride 3);
        site "vorticity_at" Vertices "vertex_edge_signs" Csr_table `Get
          (Stride 3);
        via "vorticity_at" Vertices "u" "vertex_edges" Edges;
        via_geom "vorticity_at" Vertices "dc_edge" "vertex_edges" Edges;
        site "vorticity_at" Vertices "area_triangle" Geometry `Get Iter;
        site "vorticity" Vertices "out" Field `Set Iter;
      ];
      (* C2: Operators.h_vertex_at *)
      [
        site "h_vertex_at" Vertices "vertex_cells" Csr_table `Get (Stride 3);
        site "h_vertex_at" Vertices "vertex_kite_areas" Csr_table `Get
          (Stride 3);
        via "h_vertex_at" Vertices "h" "vertex_cells" Cells;
        site "h_vertex_at" Vertices "area_triangle" Geometry `Get Iter;
        site "h_vertex" Vertices "out" Field `Set Iter;
      ];
      (* E: Operators.pv_cell_at — the corner kites sit in the cell row
         beside the corner ids. *)
      cell_row "pv_cell_at" [ "cell_vertices"; "cell_kite_areas" ];
      [
        via "pv_cell_at" Cells "pv_vertex" "cell_vertices" Vertices;
        site "pv_cell_at" Cells "area_cell" Geometry `Get Iter;
        site "pv_cell" Cells "out" Field `Set Iter;
      ];
      (* G: Operators.tangential_velocity_at *)
      eoe_row "tangential_velocity_at" [ "eoe_edges"; "eoe_weights" ];
      [
        via "tangential_velocity_at" Edges "u" "eoe_edges" Edges;
        site "tangential_velocity" Edges "out" Field `Set Iter;
      ];
      (* H1 and the velocity Laplacian: the two edge-gradient bodies *)
      [
        site "grad_n_at" Edges "edge_cells" Csr_table `Get (Stride 2);
        via "grad_n_at" Edges "x" "edge_cells" Cells;
        site "grad_n_at" Edges "dc_edge" Geometry `Get Iter;
        site "grad_t_at" Edges "edge_vertices" Csr_table `Get (Stride 2);
        via "grad_t_at" Edges "x" "edge_vertices" Vertices;
        site "grad_t_at" Edges "dv_edge" Geometry `Get Iter;
        site "grad_pv" Edges "out_n" Field `Set Iter;
        site "grad_pv" Edges "out_t" Field `Set Iter;
      ];
      (* F: Operators.pv_edge_at, point-wise operands passed as values *)
      [
        site "pv_edge_at" Edges "edge_vertices" Csr_table `Get (Stride 2);
        via "pv_edge_at" Edges "pv_vertex" "edge_vertices" Vertices;
        site "pv_edge" Edges "u" Field `Get Iter;
        site "pv_edge" Edges "grad_pv_n" Field `Get Iter;
        site "pv_edge" Edges "grad_pv_t" Field `Get Iter;
        site "pv_edge" Edges "v_tangential" Field `Get Iter;
        site "pv_edge" Edges "out" Field `Set Iter;
      ];
      (* A1: Operators.tend_h_at *)
      cell_row "tend_h_at" [ "cell_edges"; "cell_edge_signs" ];
      [
        via "tend_h_at" Cells "h_edge" "cell_edges" Edges;
        via "tend_h_at" Cells "u" "cell_edges" Edges;
        via_geom "tend_h_at" Cells "dv_edge" "cell_edges" Edges;
        site "tend_h_at" Cells "area_cell" Geometry `Get Iter;
        site "tend_h" Cells "out" Field `Set Iter;
      ];
      (* B1: Operators.tend_u_at *)
      eoe_row "tend_u_at" [ "eoe_edges"; "eoe_weights" ];
      [
        site "tend_u_at" Edges "pv_edge" Field `Get Iter;
        via "tend_u_at" Edges "pv_edge" "eoe_edges" Edges;
        via "tend_u_at" Edges "u" "eoe_edges" Edges;
        via "tend_u_at" Edges "h_edge" "eoe_edges" Edges;
        site "tend_u_at" Edges "edge_cells" Csr_table `Get (Stride 2);
        via "tend_u_at" Edges "h" "edge_cells" Cells;
        via "tend_u_at" Edges "b" "edge_cells" Cells;
        via "tend_u_at" Edges "ke" "edge_cells" Cells;
        site "tend_u_at" Edges "dc_edge" Geometry `Get Iter;
        site "tend_u" Edges "out" Field `Set Iter;
      ];
      (* C1 and del4: the Laplacian added into the tendency *)
      [
        site "dissipation" Edges "tend_u" Field `Get Iter;
        site "dissipation" Edges "tend_u" Field `Set Iter;
        site "del4_dissipation" Edges "tend_u" Field `Get Iter;
        site "del4_dissipation" Edges "tend_u" Field `Set Iter;
        site "velocity_laplacian" Edges "out" Field `Set Iter;
      ];
      (* Operators.tracer_edge_at *)
      [
        site "tracer_edge_at" Edges "edge_cells" Csr_table `Get (Stride 2);
        via "tracer_edge_at" Edges "tracer" "edge_cells" Cells;
        site "tracer_edge_at" Edges "u" Field `Get Iter;
        site "tracer_edge" Edges "out" Field `Set Iter;
      ];
      (* Operators.tend_tracer_at *)
      cell_row "tend_tracer_at" [ "cell_edges"; "cell_edge_signs" ];
      [
        via "tend_tracer_at" Cells "h_edge" "cell_edges" Edges;
        via "tend_tracer_at" Cells "tracer_edge" "cell_edges" Edges;
        via "tend_tracer_at" Cells "u" "cell_edges" Edges;
        via_geom "tend_tracer_at" Cells "dv_edge" "cell_edges" Edges;
        site "tend_tracer_at" Cells "area_cell" Geometry `Get Iter;
        site "tend_tracer" Cells "out" Field `Set Iter;
      ];
      (* The fused chains: the member stores and ride-along operands.
         X4/X5 ride along through Operators.accumulate_at, over cells or
         edges. *)
      List.concat_map
        (fun loop ->
          [
            site "accumulate_at" loop "accum" Field `Get Iter;
            site "accumulate_at" loop "accum" Field `Set Iter;
            site "accumulate_at" loop "state" Field `Set Iter;
          ])
        [ Cells; Edges ];
      [
        site "tend_h_chain" Cells "out" Field `Set Iter;
        site "tend_u_chain" Edges "u" Field `Get Iter;
        site "tend_u_chain" Edges "boundary_edge" Geometry `Get Iter;
        site "tend_u_chain" Edges "out" Field `Set Iter;
        site "diag_cells_chain" Cells "d2" Field `Set Iter;
        site "diag_cells_chain" Cells "ke_out" Field `Set Iter;
        site "diag_cells_chain" Cells "div_out" Field `Set Iter;
        site "diag_cells_chain" Cells "tend_h" Field `Get Iter;
        site "diag_edges_chain" Edges "h_edge_out" Field `Set Iter;
        site "diag_edges_chain" Edges "v_out" Field `Set Iter;
        site "diag_edges_chain" Edges "tend_u" Field `Get Iter;
        site "vortex_chain" Vertices "vort_out" Field `Set Iter;
        site "vortex_chain" Vertices "hv_out" Field `Set Iter;
        site "vortex_chain" Vertices "f_vertex" Geometry `Get Iter;
        site "vortex_chain" Vertices "pv_out" Field `Set Iter;
        site "pv_edge_chain" Edges "v_out" Field `Set Iter;
        site "pv_edge_chain" Edges "gn_out" Field `Set Iter;
        site "pv_edge_chain" Edges "gt_out" Field `Set Iter;
        site "pv_edge_chain" Edges "u" Field `Get Iter;
        site "pv_edge_chain" Edges "v_tangential" Field `Get Iter;
        site "pv_edge_chain" Edges "out" Field `Set Iter;
      ];
      (* A4: Reconstruct.cartesian_at — the coefficient rows of the
         mesh's reconstruction table are aligned with cell_edges.  X6
         (horizontal_at) indexes its east/north bases checked. *)
      cell_row "cartesian_at" [ "cell_edges"; "coef_x"; "coef_y"; "coef_z" ];
      [ via "cartesian_at" Cells "u" "cell_edges" Edges ];
      (* Refactor.edge_to_cell_csr *)
      cell_row "edge_to_cell_csr" [ "cell_edge_signs"; "cell_edges" ];
      [
        via "edge_to_cell_csr" Cells "x" "cell_edges" Edges;
        site "edge_to_cell_csr" Cells "y" Field `Set Iter;
      ];
    ]


(* --- discharging -------------------------------------------------------- *)

type verdict =
  | Proved of { assumptions : invariant list }
  | Refuted of invariant list

type site_report = {
  sr_site : site;
  sr_obligations : invariant list;
  sr_verdict : verdict;
}

let holds (errors : Mesh.Csr.error list) inv =
  let table_clean ~pred t =
    not (List.exists (fun e -> pred e && Mesh.Csr.error_table e = Some t) errors)
  in
  let offsets_clean o =
    table_clean o
      ~pred:(function
        | Mesh.Csr.Offsets_shape _ | Mesh.Csr.Row_width _ -> true
        | _ -> false)
  in
  let length_clean t =
    table_clean t
      ~pred:(function Mesh.Csr.Length_mismatch _ -> true | _ -> false)
  in
  match inv with
  | Offsets_shape_ok { offsets; _ } -> offsets_clean offsets
  | Flat_covered_ok { data; offsets } ->
      offsets_clean offsets && length_clean data
  | In_range_ok { table; _ } ->
      table_clean table
        ~pred:(function Mesh.Csr.Out_of_range _ -> true | _ -> false)
  | Strided_ok { table; _ } | Sized_ok { table; _ } -> length_clean table
  | Guarded_len _ -> true

let audit_site errors s =
  let obl = obligations s in
  let failing = List.filter (fun inv -> not (holds errors inv)) obl in
  let verdict =
    if failing = [] then
      Proved { assumptions = List.filter is_assumption obl }
    else Refuted failing
  in
  { sr_site = s; sr_obligations = obl; sr_verdict = verdict }

let audit ?csr (m : Mesh.t) =
  let csr = match csr with Some c -> c | None -> m.Mesh.csr in
  let errors =
    Mesh.Csr.validate m csr
    @ Mesh.Csr.validate_recon csr (Mesh.recon_coeffs m)
  in
  List.map (audit_site errors) catalog

let refuted reports =
  List.filter
    (fun r -> match r.sr_verdict with Refuted _ -> true | _ -> false)
    reports

let site_name s =
  Printf.sprintf "%s: %s %s[%s]" s.s_kernel
    (match s.s_access with `Get -> "get" | `Set -> "set")
    s.s_array (index_name s.s_index)

(* --- coverage ----------------------------------------------------------- *)

(* The self-audit's first half: interpret each catalogued index shape
   over a live mesh, enumerating the concrete indices the kernel would
   touch and checking each against the bound its obligations promise
   (the real table length for CSR/geometry arrays, the guarded length
   for caller fields).  A site that enumerates zero indices, or whose
   array/table name fails to resolve against the mesh, is dead weight:
   the catalog claims a justification nothing exercises — usually a
   stale entry after a kernel change. *)

type coverage = {
  cv_site : site;
  cv_hits : int;  (** concrete indices enumerated on this mesh *)
  cv_oob : int;  (** of those, how many fell outside the bound *)
  cv_problem : string option;
      (** a name that did not resolve, or an unusable shape *)
}

let cv_dead c = c.cv_problem <> None || c.cv_hits = 0

let coverage_message c =
  match c.cv_problem with
  | Some p -> Printf.sprintf "%s: %s" (site_name c.cv_site) p
  | None ->
      Printf.sprintf "%s: %d hits, %d out of bounds" (site_name c.cv_site)
        c.cv_hits c.cv_oob

let int_table (csr : Mesh.csr) = function
  | "cell_offsets" -> Some csr.Mesh.cell_offsets
  | "cell_edges" -> Some csr.Mesh.cell_edges
  | "cell_vertices" -> Some csr.Mesh.cell_vertices
  | "cell_neighbors" -> Some csr.Mesh.cell_neighbors
  | "vertex_edges" -> Some csr.Mesh.vertex_edges
  | "vertex_cells" -> Some csr.Mesh.vertex_cells
  | "eoe_offsets" -> Some csr.Mesh.eoe_offsets
  | "eoe_edges" -> Some csr.Mesh.eoe_edges
  | "edge_cells" -> Some csr.Mesh.edge_cells
  | "edge_vertices" -> Some csr.Mesh.edge_vertices
  | _ -> None

let table_len (m : Mesh.t) (csr : Mesh.csr) name =
  match int_table csr name with
  | Some a -> Some (Array.length a)
  | None -> (
      match name with
      | "cell_edge_signs" -> Some (Array.length csr.Mesh.cell_edge_signs)
      | "cell_kite_areas" -> Some (Array.length csr.Mesh.cell_kite_areas)
      | "coef_x" -> Some (Array.length (Mesh.recon_coeffs m).coef_x)
      | "coef_y" -> Some (Array.length (Mesh.recon_coeffs m).coef_y)
      | "coef_z" -> Some (Array.length (Mesh.recon_coeffs m).coef_z)
      | "vertex_edge_signs" -> Some (Array.length csr.Mesh.vertex_edge_signs)
      | "vertex_kite_areas" -> Some (Array.length csr.Mesh.vertex_kite_areas)
      | "eoe_weights" -> Some (Array.length csr.Mesh.eoe_weights)
      | "dc_edge" -> Some (Array.length m.Mesh.dc_edge)
      | "dv_edge" -> Some (Array.length m.Mesh.dv_edge)
      | "area_cell" -> Some (Array.length m.Mesh.area_cell)
      | "area_triangle" -> Some (Array.length m.Mesh.area_triangle)
      | "f_vertex" -> Some (Array.length m.Mesh.f_vertex)
      | "boundary_edge" -> Some (Array.length m.Mesh.boundary_edge)
      | _ -> None)

let interpret_site (m : Mesh.t) (csr : Mesh.csr) s =
  let hits = ref 0 and oob = ref 0 in
  let problem = ref None in
  let flag msg = if !problem = None then problem := Some msg in
  let n_loop = space_size m s.s_loop in
  let touch bound idx =
    incr hits;
    if idx < 0 || idx >= bound then incr oob
  in
  (* the bound the obligations promise for the target array: the real
     length for mesh-owned arrays, the guarded length for fields *)
  let target_bound ~guarded =
    match s.s_class with
    | Field -> guarded
    | _ -> (
        match table_len m csr s.s_array with
        | Some l -> l
        | None ->
            flag ("array " ^ s.s_array ^ " does not resolve on this mesh");
            0)
  in
  (match s.s_index with
  | Iter ->
      let b = target_bound ~guarded:n_loop in
      if !problem = None then
        for i = 0 to n_loop - 1 do
          touch b i
        done
  | Iter_next ->
      let b = target_bound ~guarded:(n_loop + 1) in
      if !problem = None then
        for i = 1 to n_loop do
          touch b i
        done
  | Row offsets -> (
      match int_table csr offsets with
      | None -> flag ("offsets " ^ offsets ^ " do not resolve on this mesh")
      | Some offs ->
          if Array.length offs < n_loop + 1 then
            flag (offsets ^ " is shorter than the loop space")
          else
            let b = target_bound ~guarded:0 in
            if !problem = None then
              for i = 0 to n_loop - 1 do
                for j = offs.(i) to offs.(i + 1) - 1 do
                  touch b j
                done
              done)
  | Stride w ->
      let b = target_bound ~guarded:(w * n_loop) in
      if !problem = None then
        for i = 0 to n_loop - 1 do
          for kk = 0 to w - 1 do
            touch b ((w * i) + kk)
          done
        done
  | Loaded { table; space } -> (
      match int_table csr table with
      | None -> flag ("table " ^ table ^ " does not resolve on this mesh")
      | Some tbl ->
          let ns = space_size m space in
          let b = min ns (target_bound ~guarded:ns) in
          if !problem = None then Array.iter (fun v -> touch b v) tbl));
  { cv_site = s; cv_hits = !hits; cv_oob = !oob; cv_problem = !problem }

let coverage ?csr ?(sites = catalog) (m : Mesh.t) =
  let csr = match csr with Some c -> c | None -> m.Mesh.csr in
  List.map (interpret_site m csr) sites

(* --- source scan -------------------------------------------------------- *)

(* The self-audit's second half: scan the kernel sources for
   [Array.unsafe_get/set] occurrences, attribute
   each to its enclosing top-level function, resolve local aliases
   ([let offsets = csr.cell_offsets], [let bh = base.Fields.h]) to
   catalog names, and diff the (kernel, array, access) key sets in both
   directions.  A source key with no catalog entry is an un-catalogued
   unsafe site — a fast path with no machine-checked justification.  A
   catalog key with no source site is stale.  Keys deliberately ignore
   the index shape: the catalog is shape-level and one entry may stand
   for a small unrolled group. *)

type scan_site = {
  sc_kernel : string;
  sc_array : string;
  sc_access : [ `Get | `Set ];
  sc_line : int;
}

let scan_site_name s =
  Printf.sprintf "%s: %s %s (line %d)" s.sc_kernel
    (match s.sc_access with `Get -> "get" | `Set -> "set")
    s.sc_array s.sc_line

(* A top-level binding opens a function, attributes included: both
   [let[@inline always] tend_h_at ...] and [let rec[@inline] f ...]
   match. *)
let fun_re =
  Str.regexp
    ("^let\\(\\[@[^]]*\\]\\| \\)+\\(rec\\(\\[@[^]]*\\]\\| \\)+\\)?"
   ^ "\\([a-z_][A-Za-z0-9_']*\\)")

let alias_re =
  Str.regexp
    ("\\(let\\|and\\) +\\([a-z_][A-Za-z0-9_']*\\) += +"
   ^ "\\([a-z_][A-Za-z0-9_']*\\)\\.\\([A-Z][A-Za-z0-9_]*\\.\\)?"
   ^ "\\([a-z_][A-Za-z0-9_']*\\)")

let unsafe_re =
  Str.regexp "Array\\.unsafe_\\(get\\|set\\) +\\([a-z_][A-Za-z0-9_']*\\)"

(* [bh = base.Fields.h] -> "base_h"; [th = tend.Fields.tend_h] ->
   "tend_h"; [offsets = csr.cell_offsets] -> "cell_offsets". *)
let canonical root field =
  if root = "csr" || root = "m" || root = "mesh" then field
  else
    let pre = root ^ "_" in
    let lp = String.length pre in
    if String.length field > lp && String.sub field 0 lp = pre then field
    else pre ^ field

let scan_file ~prefix path =
  let ic = open_in path in
  let sites = ref [] in
  let fn = ref "" in
  let aliases = Hashtbl.create 16 in
  let lineno = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       if Str.string_match fun_re line 0 then begin
         fn := Str.matched_group 4 line;
         Hashtbl.reset aliases
       end;
       let pos = ref 0 in
       (try
          while true do
            ignore (Str.search_forward alias_re line !pos);
            pos := Str.match_end ();
            let local = Str.matched_group 2 line in
            let root = Str.matched_group 3 line in
            let field = Str.matched_group 5 line in
            Hashtbl.replace aliases local (canonical root field)
          done
        with Not_found -> ());
       let pos = ref 0 in
       try
         while true do
           ignore (Str.search_forward unsafe_re line !pos);
           pos := Str.match_end ();
           let access =
             match Str.matched_group 1 line with "get" -> `Get | _ -> `Set
           in
           let name = Str.matched_group 2 line in
           let arr =
             match Hashtbl.find_opt aliases name with
             | Some c -> c
             | None -> name
           in
           sites :=
             {
               sc_kernel = prefix ^ !fn;
               sc_array = arr;
               sc_access = access;
               sc_line = !lineno;
             }
             :: !sites
         done
       with Not_found -> ()
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !sites

(* The kernel sources the catalog covers, with their name prefixes,
   relative to the repository root. *)
let default_sources ~root =
  [
    ("", Filename.concat root "lib/swe/operators.ml");
    ("", Filename.concat root "lib/swe/reconstruct.ml");
    ("", Filename.concat root "lib/patterns/refactor.ml");
  ]

type scan_gap =
  | Uncatalogued of scan_site
      (** an unsafe access in the source with no catalog entry *)
  | Unscanned of site
      (** a catalog entry no source site matches — stale *)

let scan_gap_message = function
  | Uncatalogued s -> "uncatalogued unsafe site: " ^ scan_site_name s
  | Unscanned s -> "stale catalog entry: " ^ site_name s

let scan_audit ~sources cat =
  let scans =
    List.concat_map (fun (prefix, path) -> scan_file ~prefix path) sources
  in
  let scan_key s = (s.sc_kernel, s.sc_array, s.sc_access) in
  let site_key s = (s.s_kernel, s.s_array, s.s_access) in
  let dedupe keyf l =
    List.rev
      (snd
         (List.fold_left
            (fun (seen, acc) x ->
              let key = keyf x in
              if List.mem key seen then (seen, acc)
              else (key :: seen, x :: acc))
            ([], []) l))
  in
  let cat_keys = List.map site_key cat in
  let scan_keys = List.map scan_key scans in
  let uncatalogued =
    dedupe scan_key
      (List.filter (fun s -> not (List.mem (scan_key s) cat_keys)) scans)
  in
  let unscanned =
    dedupe site_key
      (List.filter (fun s -> not (List.mem (site_key s) scan_keys)) cat)
  in
  List.map (fun s -> Uncatalogued s) uncatalogued
  @ List.map (fun s -> Unscanned s) unscanned
