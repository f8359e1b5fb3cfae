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

let kite_coef (m : Mesh.t) ~v ~c =
  let kv = m.cells_on_vertex.(v) in
  let k = if kv.(0) = c then 0 else if kv.(1) = c then 1 else 2 in
  m.kite_areas_on_vertex.(v).(k)

let eval env kernel =
  let m = env.mesh in
  let field name =
    match List.assoc_opt name env.fields with
    | Some a -> a
    | None -> invalid_arg ("Stencil: unknown field " ^ name)
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
    | Cell1 e -> go { ctx with at = Cells; idx = m.cells_on_edge.(ctx.idx).(0) } e
    | Cell2 e -> go { ctx with at = Cells; idx = m.cells_on_edge.(ctx.idx).(1) } e
    | Vertex1 e ->
        go { ctx with at = Vertices; idx = m.vertices_on_edge.(ctx.idx).(0) } e
    | Vertex2 e ->
        go { ctx with at = Vertices; idx = m.vertices_on_edge.(ctx.idx).(1) } e
    | Other_cell e ->
        let ce = m.cells_on_edge.(ctx.idx) in
        let other = if ce.(0) = ctx.root_cell then ce.(1) else ce.(0) in
        go { ctx with at = Cells; idx = other } e
    | Sum (rel, e) -> begin
        let acc = ref 0. in
        (match rel with
        | Edges_of_cell ->
            let c = ctx.idx in
            for j = 0 to m.n_edges_on_cell.(c) - 1 do
              acc :=
                !acc
                +. go
                     { ctx with at = Edges; idx = m.edges_on_cell.(c).(j);
                       coef = m.edge_sign_on_cell.(c).(j); has_coef = true;
                       root_cell = c }
                     e
            done
        | Cells_of_cell ->
            let c = ctx.idx in
            for j = 0 to m.n_edges_on_cell.(c) - 1 do
              acc :=
                !acc
                +. go
                     { ctx with at = Cells; idx = m.cells_on_cell.(c).(j);
                       has_coef = false }
                     e
            done
        | Vertices_of_cell ->
            let c = ctx.idx in
            for j = 0 to m.n_edges_on_cell.(c) - 1 do
              let v = m.vertices_on_cell.(c).(j) in
              acc :=
                !acc
                +. go
                     { ctx with at = Vertices; idx = v;
                       coef = kite_coef m ~v ~c; has_coef = true }
                     e
            done
        | Edges_of_vertex ->
            let v = ctx.idx in
            for k = 0 to 2 do
              acc :=
                !acc
                +. go
                     { ctx with at = Edges; idx = m.edges_on_vertex.(v).(k);
                       coef = m.edge_sign_on_vertex.(v).(k); has_coef = true }
                     e
            done
        | Cells_of_vertex ->
            let v = ctx.idx in
            for k = 0 to 2 do
              let c = m.cells_on_vertex.(v).(k) in
              acc :=
                !acc
                +. go
                     { ctx with at = Cells; idx = c;
                       coef = kite_coef m ~v ~c; has_coef = true }
                     e
            done
        | Edges_of_edge ->
            let e0 = ctx.idx in
            for i = 0 to m.n_edges_on_edge.(e0) - 1 do
              acc :=
                !acc
                +. go
                     { ctx with at = Edges; idx = m.edges_on_edge.(e0).(i);
                       coef = m.weights_on_edge.(e0).(i); has_coef = true }
                     e
            done);
        !acc
      end
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
