open Stencil

(* Each cursor is a named OCaml variable; sums introduce fresh index
   variables. *)
let to_ocaml kernel =
  let buf = Buffer.create 1024 in
  let pr fmt = Format.kasprintf (Buffer.add_string buf) fmt in
  let fresh =
    let n = ref 0 in
    fun base ->
      incr n;
      Format.sprintf "%s%d" base !n
  in
  let out_var, out_n =
    match kernel.out_space with
    | Cells -> ("c", "m.n_cells")
    | Edges -> ("e", "m.n_edges")
    | Vertices -> ("v", "m.n_vertices")
  in
  (* Emit an expression; [cursor] is the variable holding the current
     index, [coef] the coefficient expression of the enclosing sum,
     [root] the root variable of an enclosing Edges_of_cell sum.
     Returns the expression string; sums are emitted via accumulator
     statements collected in [stmts]. *)
  let stmts = ref [] in
  let rec go ~cursor ~coef ~root expr =
    match expr with
    | Const x -> Format.sprintf "%g" x
    | Field name -> Format.sprintf "%s.(%s)" name cursor
    | Geom Dc -> Format.sprintf "m.dc_edge.(%s)" cursor
    | Geom Dv -> Format.sprintf "m.dv_edge.(%s)" cursor
    | Geom Area_cell -> Format.sprintf "m.area_cell.(%s)" cursor
    | Geom Area_triangle -> Format.sprintf "m.area_triangle.(%s)" cursor
    | Geom Coriolis -> Format.sprintf "f.(%s)" cursor
    | Coef -> ( match coef with Some c -> c | None -> "(* no coef *) 1.")
    | Outer e -> go ~cursor:out_var ~coef ~root e
    | Cell1 e ->
        go ~cursor:(Format.sprintf "csr.edge_cells.(2 * %s)" cursor) ~coef
          ~root e
    | Cell2 e ->
        go ~cursor:(Format.sprintf "csr.edge_cells.(2 * %s + 1)" cursor) ~coef
          ~root e
    | Vertex1 e ->
        go ~cursor:(Format.sprintf "csr.edge_vertices.(2 * %s)" cursor) ~coef
          ~root e
    | Vertex2 e ->
        go ~cursor:(Format.sprintf "csr.edge_vertices.(2 * %s + 1)" cursor)
          ~coef ~root e
    | Other_cell e ->
        let other = fresh "other" in
        stmts :=
          Format.sprintf
            "      let %s = if csr.edge_cells.(2 * %s) = %s then \
             csr.edge_cells.(2 * %s + 1) else csr.edge_cells.(2 * %s) in"
            other cursor root cursor cursor
          :: !stmts;
        go ~cursor:other ~coef ~root e
    | Sum (rel, e) ->
        let acc = fresh "acc" in
        let j = fresh "j" in
        (* Every relation walks a run of CSR slots [j]; the slot
           indexes the neighbour table and its coefficient table. *)
        let rows offsets =
          Format.sprintf "for %s = csr.%s.(%s) to csr.%s.(%s + 1) - 1 do" j
            offsets cursor offsets cursor
        and strided k =
          Format.sprintf "for %s = %d * %s to %d * %s + %d do" j k cursor k
            cursor (k - 1)
        and slot table = Format.sprintf "csr.%s.(%s)" table j in
        let header, nbr, coef_expr =
          match rel with
          | Edges_of_cell ->
              (rows "cell_offsets", slot "cell_edges",
               Some (slot "cell_edge_signs"))
          | Cells_of_cell -> (rows "cell_offsets", slot "cell_neighbors", None)
          | Vertices_of_cell ->
              (rows "cell_offsets", slot "cell_vertices",
               Some (slot "cell_kite_areas"))
          | Edges_of_vertex ->
              (strided 3, slot "vertex_edges", Some (slot "vertex_edge_signs"))
          | Cells_of_vertex ->
              (strided 3, slot "vertex_cells", Some (slot "vertex_kite_areas"))
          | Edges_of_edge ->
              (rows "eoe_offsets", slot "eoe_edges", Some (slot "eoe_weights"))
        in
        let nbr_var = fresh "n" in
        let saved = !stmts in
        stmts := [];
        let inner =
          go ~cursor:nbr_var ~coef:coef_expr
            ~root:(if rel = Edges_of_cell then cursor else root)
            e
        in
        let inner_stmts = String.concat "\n" (List.rev !stmts) in
        stmts :=
          Format.sprintf
            "      let %s = ref 0. in\n      %s\n        let %s = %s in\n%s\n        %s := !%s +. (%s)\n      done;"
            acc header nbr_var nbr
            (if inner_stmts = "" then "" else inner_stmts)
            acc acc inner
          :: saved;
        Format.sprintf "!%s" acc
    | Neg e -> Format.sprintf "(-. (%s))" (go ~cursor ~coef ~root e)
    | Add (a, b) ->
        Format.sprintf "(%s +. %s)" (go ~cursor ~coef ~root a)
          (go ~cursor ~coef ~root b)
    | Sub (a, b) ->
        Format.sprintf "(%s -. %s)" (go ~cursor ~coef ~root a)
          (go ~cursor ~coef ~root b)
    | Mul (a, b) ->
        Format.sprintf "(%s *. %s)" (go ~cursor ~coef ~root a)
          (go ~cursor ~coef ~root b)
    | Div (a, b) ->
        Format.sprintf "(%s /. %s)" (go ~cursor ~coef ~root a)
          (go ~cursor ~coef ~root b)
  in
  let fields = String.concat " " (List.map (fun (n, _) -> "~" ^ n) kernel.reads) in
  pr "(* generated from the stencil IR: %s *)\n" kernel.kernel_name;
  pr "let kernel (m : Mesh.t) %s ~out =\n" fields;
  pr "  let csr = m.Mesh.csr in\n";
  pr "  for %s = 0 to %s - 1 do\n" out_var out_n;
  let body = go ~cursor:out_var ~coef:None ~root:out_var kernel.body in
  List.iter (fun stmt -> pr "%s\n" stmt) (List.rev !stmts);
  pr "    out.(%s) <- %s\n" out_var body;
  pr "  done\n";
  Buffer.contents buf
