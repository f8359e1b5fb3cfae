(** Halo construction: per-rank ghost layers and exchange lists derived
    from a partition, the data behind the "Exchange halo" boxes of
    paper Figures 2 and 4. *)

open Mpas_mesh

type rank_halo = {
  rank : int;
  owned : int list;  (** cells owned by this rank *)
  boundary : int list;
      (** owned cells adjacent to another rank (data it must send) *)
  ghosts : (int * int) list;
      (** (cell, home rank) pairs this rank must receive *)
  neighbours : int list;  (** ranks exchanged with *)
}

(** Build the one-layer halo of every rank. *)
val build : Mesh.t -> Partition.t -> rank_halo array

(** [interior_boundary m p ~depth] splits each rank's owned cells into
    (interior, boundary) index arrays, both sorted ascending.  The
    boundary is every owned cell within [depth - 1] cell_neighbors hops
    of the rank's frontier (owned cells with a foreign neighbour); the
    interior is the rest, so a depth-[depth] stencil sweep over
    interior cells touches no ghost cell — the decomposition behind
    communication/computation overlap.  Raises [Invalid_argument] when
    [depth < 1]. *)
val interior_boundary :
  Mesh.t -> Partition.t -> depth:int -> (int array * int array) array

(** Summary triples (owned, boundary, neighbours) per rank, the input
    of [Mpas_machine.Netmodel.patch_of_partition]. *)
val summaries : rank_halo array -> (int * int * int) array

(** Validation against mesh and partition: ghosts are exactly the
    other-rank neighbours of owned cells, send/receive lists are
    mutually consistent, every boundary cell is owned.  Returns
    violations. *)
val check : Mesh.t -> Partition.t -> rank_halo array -> string list
