(** Plain-text serialization of meshes.

    Format version 2 is a line-oriented dump, with full float precision
    ("%.17g"), of the tables a mesh is built from ({!Mesh.tables}):
    {v
    mpas-mesh 2
    geometry sphere R            (or: geometry plane LX LY)
    counts N_CELLS N_EDGES N_VERTICES
    NAME LENGTH
    ENTRY ENTRY ...
    ...
    v}
    Tables follow the header in the field order of {!Mesh.tables};
    each is its name, its entry count and its entries (three floats per
    position or vector entry).  Cell-row tables are packed, with
    [sum n_edges_on_cell] entries; vertex tables hold 3 entries per
    vertex and edge tables 2 per edge; [boundary_edge] is written as
    [0]/[1].  No derived table is stored: loading goes through
    {!Mesh.make}, which validates the tables and rebuilds
    [cell_kite_areas] and the TRiSK tables, so a save/load round trip
    reproduces the mesh bit for bit.  Intended for caching expensive
    fine meshes between runs, not for interchange. *)

open Mesh

type error =
  | Unsupported_version of int  (** the header names another format *)
  | Malformed of string
      (** unparsable input, or a table whose length differs from what
          the header counts imply (checked before it is allocated) *)
  | Invalid_mesh of Mesh.Csr.error list
      (** well-formed tables that {!Mesh.make} refuses *)

exception Error of error

val error_message : error -> string

val save : t -> string -> unit

(** @raise Error on a file that does not hold a valid format-2 mesh. *)
val load : string -> t

(** In-memory round trip, used by tests and as a deep copy. *)
val to_string : t -> string

(** @raise Error as {!load}. *)
val of_string : string -> t
