open Stencil

let half = Const 0.5

let mean_cells field = Mul (half, Add (Cell1 (Field field), Cell2 (Field field)))

(* Every product is written left-nested, in the operand order of the
   handwritten kernel: the executor then evaluates the same float
   operations in the same order, so its output is bitwise equal. *)
let prod = function
  | [] -> invalid_arg "Library.prod: empty product"
  | x :: rest -> List.fold_left (fun acc y -> Mul (acc, y)) x rest

(* [(-(sum over the cell's edges of sign * terms * dv)) / area]: the
   flux divergence shape shared by A1 and the tracer tendency. *)
let neg_flux_div terms =
  Div
    ( Neg (Sum (Edges_of_cell, prod ((Coef :: terms) @ [ Geom Dv ]))),
      Geom Area_cell )

(* B1: perp flux with PV average [q] minus the energy gradient. *)
let tend_u_body ~gravity q =
  let energy =
    Add (Mul (Const gravity, Add (Field "h", Field "b")), Field "ke")
  in
  Sub
    ( Sum (Edges_of_edge, prod [ Coef; Field "u"; Field "h_edge"; q ]),
      Div (Sub (Cell2 energy, Cell1 energy), Geom Dc) )

let b1_reads =
  [ ("u", Edges); ("h", Cells); ("b", Cells); ("ke", Cells);
    ("h_edge", Edges); ("pv_edge", Edges) ]

let specs ~gravity ~apvm_dt =
  [
    ( "A3 divergence",
      {
        kernel_name = "A3 divergence";
        out_space = Cells;
        reads = [ ("u", Edges) ];
        body =
          Div
            ( Sum (Edges_of_cell, prod [ Coef; Field "u"; Geom Dv ]),
              Geom Area_cell );
      } );
    ( "A1 tend_h",
      {
        kernel_name = "A1 tend_h";
        out_space = Cells;
        reads = [ ("u", Edges); ("h_edge", Edges) ];
        body = neg_flux_div [ Field "h_edge"; Field "u" ];
      } );
    ( "A2 kinetic energy",
      {
        kernel_name = "A2 kinetic energy";
        out_space = Cells;
        reads = [ ("u", Edges) ];
        body =
          Div
            ( Sum
                ( Edges_of_cell,
                  prod [ Const 0.25; Geom Dc; Geom Dv; Field "u"; Field "u" ]
                ),
              Geom Area_cell );
      } );
    ( "H2 d2fdx2",
      {
        kernel_name = "H2 d2fdx2";
        out_space = Cells;
        reads = [ ("h", Cells) ];
        body =
          Div
            ( Sum
                ( Edges_of_cell,
                  Div
                    ( Mul
                        ( Geom Dv,
                          Sub (Other_cell (Field "h"), Outer (Field "h")) ),
                      Geom Dc ) ),
              Geom Area_cell );
      } );
    ( "B2 h_edge (4th order)",
      {
        kernel_name = "B2 h_edge (4th order)";
        out_space = Edges;
        reads = [ ("h", Cells); ("d2fdx2_cell", Cells) ];
        body =
          Sub
            ( mean_cells "h",
              Mul
                ( Div (Mul (Geom Dc, Geom Dc), Const 24.),
                  Add (Cell1 (Field "d2fdx2_cell"), Cell2 (Field "d2fdx2_cell"))
                ) );
      } );
    ( "D1 vorticity",
      {
        kernel_name = "D1 vorticity";
        out_space = Vertices;
        reads = [ ("u", Edges) ];
        body =
          Div
            ( Sum (Edges_of_vertex, prod [ Coef; Field "u"; Geom Dc ]),
              Geom Area_triangle );
      } );
    ( "C2 h_vertex",
      {
        kernel_name = "C2 h_vertex";
        out_space = Vertices;
        reads = [ ("h", Cells) ];
        body =
          Div
            ( Sum (Cells_of_vertex, Mul (Coef, Field "h")),
              Geom Area_triangle );
      } );
    ( "D2 pv_vertex",
      {
        kernel_name = "D2 pv_vertex";
        out_space = Vertices;
        reads = [ ("vorticity", Vertices); ("h_vertex", Vertices) ];
        body = Div (Add (Geom Coriolis, Field "vorticity"), Field "h_vertex");
      } );
    ( "E pv_cell",
      {
        kernel_name = "E pv_cell";
        out_space = Cells;
        reads = [ ("pv_vertex", Vertices) ];
        body =
          Div
            ( Sum (Vertices_of_cell, Mul (Coef, Field "pv_vertex")),
              Geom Area_cell );
      } );
    ( "G tangential velocity",
      {
        kernel_name = "G tangential velocity";
        out_space = Edges;
        reads = [ ("u", Edges) ];
        body = Sum (Edges_of_edge, Mul (Coef, Field "u"));
      } );
    ( "H1 grad_pv_n",
      {
        kernel_name = "H1 grad_pv_n";
        out_space = Edges;
        reads = [ ("pv_cell", Cells) ];
        body =
          Div (Sub (Cell2 (Field "pv_cell"), Cell1 (Field "pv_cell")), Geom Dc);
      } );
    ( "H1 grad_pv_t",
      {
        kernel_name = "H1 grad_pv_t";
        out_space = Edges;
        reads = [ ("pv_vertex", Vertices) ];
        body =
          Div
            ( Sub (Vertex2 (Field "pv_vertex"), Vertex1 (Field "pv_vertex")),
              Geom Dv );
      } );
    ( "F pv_edge",
      {
        kernel_name = "F pv_edge";
        out_space = Edges;
        reads =
          [ ("pv_vertex", Vertices); ("grad_pv_n", Edges);
            ("grad_pv_t", Edges); ("u", Edges); ("v", Edges) ];
        body =
          Sub
            ( Mul (half, Add (Vertex1 (Field "pv_vertex"), Vertex2 (Field "pv_vertex"))),
              Mul
                ( Const apvm_dt,
                  Add
                    ( Mul (Field "u", Field "grad_pv_n"),
                      Mul (Field "v", Field "grad_pv_t") ) ) );
      } );
    ( "C1 velocity_laplacian",
      {
        kernel_name = "C1 velocity_laplacian";
        out_space = Edges;
        reads = [ ("divergence", Cells); ("vorticity", Vertices) ];
        body =
          Sub
            ( Div
                ( Sub (Cell2 (Field "divergence"), Cell1 (Field "divergence")),
                  Geom Dc ),
              Div
                ( Sub (Vertex2 (Field "vorticity"), Vertex1 (Field "vorticity")),
                  Geom Dv ) );
      } );
    ( "B1 tend_u",
      {
        kernel_name = "B1 tend_u";
        out_space = Edges;
        reads = b1_reads;
        body =
          tend_u_body ~gravity
            (Mul (half, Add (Outer (Field "pv_edge"), Field "pv_edge")));
      } );
    ( "B1 tend_u (edge-only)",
      {
        kernel_name = "B1 tend_u (edge-only)";
        out_space = Edges;
        reads = b1_reads;
        body = tend_u_body ~gravity (Outer (Field "pv_edge"));
      } );
    ( "tracer_edge (centered)",
      {
        kernel_name = "tracer_edge (centered)";
        out_space = Edges;
        reads = [ ("tracer", Cells) ];
        body = mean_cells "tracer";
      } );
    ( "tend_tracer",
      {
        kernel_name = "tend_tracer";
        out_space = Cells;
        reads = [ ("u", Edges); ("h_edge", Edges); ("tracer_edge", Edges) ];
        body = neg_flux_div [ Field "h_edge"; Field "tracer_edge"; Field "u" ];
      } );
  ]

let spec ~gravity ~apvm_dt name = List.assoc name (specs ~gravity ~apvm_dt)
