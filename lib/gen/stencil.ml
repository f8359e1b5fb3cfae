open Mpas_mesh

type space = Cells | Edges | Vertices

let space_name = function
  | Cells -> "cells"
  | Edges -> "edges"
  | Vertices -> "vertices"

type relation =
  | Edges_of_cell
  | Cells_of_cell
  | Vertices_of_cell
  | Edges_of_vertex
  | Cells_of_vertex
  | Edges_of_edge

let relation_spaces = function
  | Edges_of_cell -> (Cells, Edges)
  | Cells_of_cell -> (Cells, Cells)
  | Vertices_of_cell -> (Cells, Vertices)
  | Edges_of_vertex -> (Vertices, Edges)
  | Cells_of_vertex -> (Vertices, Cells)
  | Edges_of_edge -> (Edges, Edges)

let relation_has_coef = function
  | Edges_of_cell | Vertices_of_cell | Edges_of_vertex | Cells_of_vertex
  | Edges_of_edge ->
      true
  | Cells_of_cell -> false

type geom = Dc | Dv | Area_cell | Area_triangle | Coriolis

type expr =
  | Const of float
  | Field of string
  | Geom of geom
  | Coef
  | Outer of expr
  | Cell1 of expr
  | Cell2 of expr
  | Vertex1 of expr
  | Vertex2 of expr
  | Other_cell of expr
  | Sum of relation * expr
  | Neg of expr
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr

type kernel = {
  kernel_name : string;
  out_space : space;
  reads : (string * space) list;
  body : expr;
}

(* --- static checking ---------------------------------------------------- *)

type check_state = {
  at : space;
  has_coef : bool;
  (* Space the innermost Edges_of_cell sum is rooted at, if any. *)
  cell_rooted_edge_sum : bool;
}

let check kernel =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  let read_space name =
    List.assoc_opt name kernel.reads
  in
  let rec go st = function
    | Const _ -> ()
    | Field name -> (
        match read_space name with
        | None -> err "field %s not declared in reads" name
        | Some s ->
            if s <> st.at then
              err "field %s lives at %s but is read at %s" name (space_name s)
                (space_name st.at))
    | Geom Dc | Geom Dv ->
        if st.at <> Edges then err "dc/dv only exist at edges"
    | Geom Area_cell -> if st.at <> Cells then err "area_cell needs a cell"
    | Geom Area_triangle ->
        if st.at <> Vertices then err "area_triangle needs a vertex"
    | Geom Coriolis -> ()
    | Coef -> if not st.has_coef then err "Coef outside a coefficient sum"
    | Outer e -> go { st with at = kernel.out_space } e
    | Cell1 e | Cell2 e ->
        if st.at <> Edges then err "Cell1/Cell2 need an edge cursor";
        go { st with at = Cells } e
    | Vertex1 e | Vertex2 e ->
        if st.at <> Edges then err "Vertex1/Vertex2 need an edge cursor";
        go { st with at = Vertices } e
    | Other_cell e ->
        if not (st.at = Edges && st.cell_rooted_edge_sum) then
          err "Other_cell needs an edge reached from a cell's edge sum";
        go { st with at = Cells } e
    | Sum (rel, e) ->
        let src, dst = relation_spaces rel in
        if st.at <> src then
          err "relation rooted at %s used at %s" (space_name src)
            (space_name st.at);
        go
          {
            at = dst;
            has_coef = relation_has_coef rel;
            cell_rooted_edge_sum = rel = Edges_of_cell;
          }
          e
    | Neg e -> go st e
    | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) ->
        go st a;
        go st b
  in
  go { at = kernel.out_space; has_coef = false; cell_rooted_edge_sum = false }
    kernel.body;
  List.rev !errors

(* --- evaluation ---------------------------------------------------------- *)

type env = { mesh : Mesh.t; fields : (string * float array) list }

type ctx = {
  outer : int;
  at : space;
  idx : int;
  coef : float;
  has_coef : bool;
  (* Root cell of the innermost Edges_of_cell sum, for Other_cell. *)
  root_cell : int;
}

(* Kite area of vertex [v] inside cell [c], found through the vertex's
   own cells rather than read from [cell_kite_areas], so the IR stays a
   reference independent of the kernels' derived table. *)
let kite_coef (csr : Mesh.csr) ~v ~c =
  let b = 3 * v in
  let k =
    if csr.vertex_cells.(b) = c then b
    else if csr.vertex_cells.(b + 1) = c then b + 1
    else b + 2
  in
  csr.vertex_kite_areas.(k)

let eval env kernel =
  let m = env.mesh in
  let csr = m.csr in
  let field name =
    match List.assoc_opt name env.fields with
    | Some a -> a
    | None -> invalid_arg ("Stencil: unknown field " ^ name)
  in
  (* Each relation is a run of CSR slots [lo, hi) with a neighbour table
     and, for coefficient sums, a coefficient per slot. *)
  let sum ctx at lo hi nbr coef e go =
    let acc = ref 0. in
    for j = lo to hi - 1 do
      let idx = nbr.(j) in
      let ctx =
        match coef with
        | Some coef -> { ctx with at; idx; coef = coef j idx; has_coef = true }
        | None -> { ctx with at; idx; has_coef = false }
      in
      acc := !acc +. go ctx e
    done;
    !acc
  in
  let rec go ctx = function
    | Const x -> x
    | Field name -> (field name).(ctx.idx)
    | Geom Dc -> m.dc_edge.(ctx.idx)
    | Geom Dv -> m.dv_edge.(ctx.idx)
    | Geom Area_cell -> m.area_cell.(ctx.idx)
    | Geom Area_triangle -> m.area_triangle.(ctx.idx)
    | Geom Coriolis -> (
        match ctx.at with
        | Cells -> m.f_cell.(ctx.idx)
        | Edges -> m.f_edge.(ctx.idx)
        | Vertices -> m.f_vertex.(ctx.idx))
    | Coef ->
        if not ctx.has_coef then invalid_arg "Stencil: Coef outside a sum";
        ctx.coef
    | Outer e -> go { ctx with at = kernel.out_space; idx = ctx.outer } e
    | Cell1 e -> go { ctx with at = Cells; idx = csr.edge_cells.(2 * ctx.idx) } e
    | Cell2 e ->
        let idx = csr.edge_cells.((2 * ctx.idx) + 1) in
        go { ctx with at = Cells; idx } e
    | Vertex1 e ->
        go { ctx with at = Vertices; idx = csr.edge_vertices.(2 * ctx.idx) } e
    | Vertex2 e ->
        let idx = csr.edge_vertices.((2 * ctx.idx) + 1) in
        go { ctx with at = Vertices; idx } e
    | Other_cell e ->
        let c1 = csr.edge_cells.(2 * ctx.idx)
        and c2 = csr.edge_cells.((2 * ctx.idx) + 1) in
        let other = if c1 = ctx.root_cell then c2 else c1 in
        go { ctx with at = Cells; idx = other } e
    | Sum (rel, e) -> (
        let i = ctx.idx in
        let cell_row () = (csr.cell_offsets.(i), csr.cell_offsets.(i + 1)) in
        match rel with
        | Edges_of_cell ->
            let lo, hi = cell_row () in
            sum { ctx with root_cell = i } Edges lo hi csr.cell_edges
              (Some (fun j _ -> csr.cell_edge_signs.(j)))
              e go
        | Cells_of_cell ->
            let lo, hi = cell_row () in
            sum ctx Cells lo hi csr.cell_neighbors None e go
        | Vertices_of_cell ->
            let lo, hi = cell_row () in
            sum ctx Vertices lo hi csr.cell_vertices
              (Some (fun _ v -> kite_coef csr ~v ~c:i))
              e go
        | Edges_of_vertex ->
            sum ctx Edges (3 * i) ((3 * i) + 3) csr.vertex_edges
              (Some (fun j _ -> csr.vertex_edge_signs.(j)))
              e go
        | Cells_of_vertex ->
            sum ctx Cells (3 * i) ((3 * i) + 3) csr.vertex_cells
              (Some (fun _ c -> kite_coef csr ~v:i ~c))
              e go
        | Edges_of_edge ->
            sum ctx Edges csr.eoe_offsets.(i) csr.eoe_offsets.(i + 1)
              csr.eoe_edges
              (Some (fun j _ -> csr.eoe_weights.(j)))
              e go)
    | Neg e -> -.go ctx e
    | Add (a, b) -> go ctx a +. go ctx b
    | Sub (a, b) -> go ctx a -. go ctx b
    | Mul (a, b) -> go ctx a *. go ctx b
    | Div (a, b) -> go ctx a /. go ctx b
  in
  fun i ->
    go
      { outer = i; at = kernel.out_space; idx = i; coef = 0.; has_coef = false;
        root_cell = -1 }
      kernel.body

let eval_at env kernel i = eval env kernel i

let out_length (m : Mesh.t) kernel =
  match kernel.out_space with
  | Cells -> m.n_cells
  | Edges -> m.n_edges
  | Vertices -> m.n_vertices

let run ?pool ?on env kernel ~out =
  let f = eval env kernel in
  let n = out_length env.mesh kernel in
  let on = match on with Some s -> s | None -> Mpas_par.Span.full n in
  Mpas_par.Span.runs pool on (fun ~lo ~hi ->
      for i = lo to hi - 1 do
        out.(i) <- f i
      done)
