(** Rank-local compute sets and halo exchange for the simulated-MPI
    execution of the model.

    Ownership: a cell belongs to its partition rank; an edge or vertex
    belongs to the rank of its first adjacent cell.  Each rank computes
    every kernel on exactly its owned entities, so the union over ranks
    reproduces the global loops with identical per-item arithmetic —
    distributed results are bitwise equal to serial ones.

    Ghost sets are derived from the actual stencil accesses of the
    kernels (the CSR rows [cell_edges], [edge_cells], [eoe_edges], ...):
    a rank's ghost set at a location is every entity of that location
    reachable from its owned items in one kernel application.  Exchanging a field
    after the kernel that produces it therefore keeps all reads valid —
    the fine-grained variant of the paper's "Exchange halo" boxes.

    Compute sets — the owned sets and the interior/boundary split — are
    {!Mpas_par.Span} sets (a space-filling-curve partition gives each
    rank a few hundred runs), so a rank's kernel sweep is a straight
    loop per run.  Ghost and send lists stay index arrays: they are
    copied element by element. *)

open Mpas_mesh
open Mpas_par

type location = Cells | Edges | Vertices

val location_name : location -> string

type rank_sets = {
  rank : int;
  own_cells : Span.t;  (** cells this rank computes *)
  own_edges : Span.t;
  own_vertices : Span.t;
  ghost_cells : int array;  (** cells read but owned elsewhere *)
  ghost_edges : int array;
  ghost_vertices : int array;
}

type t = {
  mesh : Mesh.t;
  n_ranks : int;
  cell_owner : int array;
  edge_owner : int array;
  vertex_owner : int array;
  sets : rank_sets array;
  mutable exchanges : int;  (** exchange calls so far *)
  mutable values_moved : int;  (** ghost entries copied so far *)
}

(** Build the ownership and ghost structure from a partition. *)
val build : Mesh.t -> Mpas_partition.Partition.t -> t

(** [exchange t loc fields] copies, for every rank and every ghost
    entity at [loc], the owner's value into that rank's copy of each
    field.  [fields.(rank)] is rank [rank]'s array.  Raises
    [Invalid_argument] (reporting actual vs expected counts) unless
    [fields] holds exactly one array per rank. *)
val exchange : t -> location -> float array array -> unit

(** Interior/boundary/send decomposition of each rank's owned sets,
    keyed by halo [depth] — the transfer-overlap split.  Interior and
    boundary span sets tile the owned set of each location; a depth-1
    kernel stencil on an interior entity reads owned entities only;
    the send sets (entities some other rank ghosts) are contained in
    the boundary sets, so a field can be packed as soon as its
    boundary sweep retires. *)
type split = {
  sp_rank : int;
  int_cells : Span.t;
  bnd_cells : Span.t;
  int_edges : Span.t;
  bnd_edges : Span.t;
  int_vertices : Span.t;
  bnd_vertices : Span.t;
  send_cells : int array;  (** owned cells some other rank ghosts *)
  send_edges : int array;
  send_vertices : int array;
}

(** Cells split by [Mpas_partition.Halo.interior_boundary]; an owned
    edge/vertex is boundary when its kernel support (the adjacency
    sets [build] marks as reads) touches a foreign entity or a
    boundary-band cell.  Raises [Invalid_argument] when [depth < 1]. *)
val classify : t -> depth:int -> split array

(** Book halo traffic performed outside [exchange] (the overlapped
    driver's pack/transfer/unpack tasks), updating both the per-instance
    and the process-wide counters. *)
val record_traffic : t -> exchanges:int -> values:int -> unit

(** Reset the traffic counters. *)
val reset_stats : t -> unit

(** Bytes moved so far, at 8 bytes per copied value. *)
val bytes_moved : t -> float

(** Validation: ownership covers every entity exactly once across
    ranks, ghosts are disjoint from owned, and every stencil access of
    an owned item lands in owned + ghost.  Returns violations. *)
val check : t -> string list
