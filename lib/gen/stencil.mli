(** A small stencil-expression IR realizing the paper's stated future
    work (§VI): "leveraging automatic code generation techniques for
    the ease of implementation and optimization".

    A kernel is described as an expression tree evaluated at every
    point of an output space; neighbour sums ([Sum]) iterate one of the
    mesh adjacency relations with its paired coefficient (edge sign,
    kite area or TRiSK weight) in scope, and the cursor combinators
    ([Cell1], [Other_cell], [Outer], ...) move the evaluation point
    across the C-grid.  Every Table I stencil is expressible
    ([Library]); the executor runs them directly over a mesh — always
    in the race-free gather form of the paper's Algorithm 3 — and the
    emitter prints the equivalent loop source. *)

open Mpas_mesh

type space = Cells | Edges | Vertices

val space_name : space -> string

(** Adjacency relations a [Sum] can iterate, with the coefficient that
    travels with each neighbour. *)
type relation =
  | Edges_of_cell  (** paired coefficient: cell_edge_signs *)
  | Cells_of_cell  (** aligned with Edges_of_cell; no coefficient *)
  | Vertices_of_cell  (** paired coefficient: the cell's kite area *)
  | Edges_of_vertex  (** paired coefficient: vertex_edge_signs *)
  | Cells_of_vertex  (** paired coefficient: vertex_kite_areas *)
  | Edges_of_edge  (** paired coefficient: eoe_weights *)

(** Source and target spaces of a relation. *)
val relation_spaces : relation -> space * space

(** Geometry readable at the evaluation cursor. *)
type geom =
  | Dc  (** edge only *)
  | Dv  (** edge only *)
  | Area_cell
  | Area_triangle
  | Coriolis  (** f at the cursor's space *)

type expr =
  | Const of float
  | Field of string  (** named field at the cursor *)
  | Geom of geom
  | Coef  (** the enclosing [Sum]'s paired coefficient *)
  | Outer of expr  (** evaluate at the loop's output point *)
  | Cell1 of expr  (** cursor must be an edge *)
  | Cell2 of expr
  | Vertex1 of expr
  | Vertex2 of expr
  | Other_cell of expr
      (** cursor an edge reached from a cell sum: the cell across *)
  | Sum of relation * expr
  | Neg of expr
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr

type kernel = {
  kernel_name : string;
  out_space : space;
  reads : (string * space) list;  (** field name -> where it lives *)
  body : expr;
}

(** Static checking: cursor/space discipline ([Dc] only at edges,
    [Cell1] only at edges, [Sum] relations rooted at the right space,
    [Coef] only under a [Sum], field reads declared with the right
    space, [Other_cell] only under an [Edges_of_cell] sum rooted at a
    cell).  Returns violations; empty means well-typed. *)
val check : kernel -> string list

type env = { mesh : Mesh.t; fields : (string * float array) list }

(** Interpret the kernel at one output index.
    @raise Invalid_argument on ill-typed expressions or unknown
    fields (run [check] first). *)
val eval_at : env -> kernel -> int -> float

(** Execute over the whole output space (or the [?on] span set) into [out],
    in gather form; safe under the pool like every refactored loop. *)
val run :
  ?pool:Mpas_par.Pool.t -> ?on:Mpas_par.Span.t -> env -> kernel ->
  out:float array -> unit

(** Length of the output array the kernel needs on [mesh]. *)
val out_length : Mesh.t -> kernel -> int
