(** Bounds auditor for the unsafe-indexed CSR fast paths.

    Every [Array.unsafe_get/set] site in [Mpas_swe.Operators]'s CSR
    kernels, [Mpas_swe.Reconstruct]'s A4 cell rows and
    [Mpas_patterns.Refactor.edge_to_cell_csr] is catalogued with the
    shape of its index expression.  Each shape yields proof obligations
    — CSR invariants such as offset monotonicity, in-range connectivity
    entries, and exact table lengths — that are discharged against
    {!Mesh.Csr.validate} and, for the reconstruction coefficients,
    {!Mesh.Csr.validate_recon}: a clean validation proves every unsafe
    index in bounds.  [Reconstruct] checks at entry that the table it
    is handed has the lengths of the mesh's own.

    Caller-provided field arrays are covered by the [check_len] guards
    at kernel entry; those appear as explicit [Guarded_len]
    assumptions on the verdict rather than CSR invariants.

    Each kernel's body runs under one loop header, fed either the full
    range or the runs of an [?on] span set; a span set is confined to
    the loop space at entry ([check_on]: its last bound is at most the
    space size, and a span set is sorted and non-negative by
    construction), so the loop variable satisfies the same shapes on
    either walk.  The batched ensemble
    runs these same kernels once per member, so it adds no sites. *)

open Mpas_mesh

type space = Cells | Edges | Vertices

val space_name : space -> string
val space_size : Mesh.t -> space -> int

(** Index-expression shapes.  The loop variable ranges over the site's
    loop space. *)
type index =
  | Iter
  | Iter_next
  | Row of string
  | Stride of int
  | Loaded of { table : string; space : space }

val index_name : index -> string

type array_class = Csr_offsets | Csr_table | Geometry | Field

type site = {
  s_kernel : string;
  s_array : string;
  s_class : array_class;
  s_access : [ `Get | `Set ];
  s_index : index;
  s_loop : space;
}

val site_name : site -> string

type invariant =
  | Offsets_shape_ok of { offsets : string; rows : space }
  | Flat_covered_ok of { data : string; offsets : string }
  | In_range_ok of { table : string; space : space }
  | Strided_ok of { table : string; space : space; width : int }
  | Sized_ok of { table : string; space : space }
  | Guarded_len of { field : string; space : space }

val invariant_name : invariant -> string
val is_assumption : invariant -> bool

(** The full unsafe-site catalog (one entry may stand for a small
    unrolled group, e.g. the three kite slots of a [Stride 3] row). *)
val catalog : site list

(** What must hold for [site]'s index to be in bounds. *)
val obligations : site -> invariant list

type verdict =
  | Proved of { assumptions : invariant list }
  | Refuted of invariant list

type site_report = {
  sr_site : site;
  sr_obligations : invariant list;
  sr_verdict : verdict;
}

(** Discharge every site against [Mesh.Csr.validate m csr].  [csr]
    defaults to the mesh's own (valid) view; tests pass corrupted
    copies to watch obligations fail. *)
val audit : ?csr:Mesh.csr -> Mesh.t -> site_report list

val refuted : site_report list -> site_report list

(** {1 Self-audit: coverage}

    The static audit proves what the catalog {e says}; the self-audit
    checks the catalog itself.  {!coverage} interprets each entry's
    index shape over a live mesh, enumerating the concrete indices the
    kernel would touch and checking them against the bound the
    obligations promise — an entry with zero hits or an unresolvable
    array name is dead weight ({!cv_dead}), usually stale after a
    kernel change. *)

type coverage = {
  cv_site : site;
  cv_hits : int;  (** concrete indices enumerated on this mesh *)
  cv_oob : int;  (** of those, how many fell outside the bound *)
  cv_problem : string option;
      (** a name that did not resolve, or an unusable shape *)
}

val cv_dead : coverage -> bool
val coverage_message : coverage -> string

val coverage : ?csr:Mesh.csr -> ?sites:site list -> Mesh.t -> coverage list
(** [sites] defaults to the full {!catalog}; tests pass doctored lists
    to watch the self-audit fire. *)

(** {1 Self-audit: source scan}

    The other direction: scan the kernel sources for
    [Array.unsafe_get/set] occurrences, attribute each to its enclosing
    top-level function, resolve local aliases to catalog names, and
    diff the (kernel, array, access) key sets both ways.  Keys ignore
    the index shape — the catalog is shape-level, one entry may stand
    for a small unrolled group. *)

type scan_site = {
  sc_kernel : string;
  sc_array : string;
  sc_access : [ `Get | `Set ];
  sc_line : int;
}

val scan_site_name : scan_site -> string

val scan_file : prefix:string -> string -> scan_site list
(** All unsafe sites of one source file, each attributed to the
    top-level [let] that encloses it (attributes such as
    [[@inline always]] included), kernel names prefixed with [prefix]
    (the default sources use [""]). *)

val default_sources : root:string -> (string * string) list
(** The kernel sources the catalog covers, as (prefix, path) pairs
    relative to the repository root. *)

type scan_gap =
  | Uncatalogued of scan_site
      (** an unsafe access in the source with no catalog entry *)
  | Unscanned of site
      (** a catalog entry no source site matches — stale *)

val scan_gap_message : scan_gap -> string

val scan_audit : sources:(string * string) list -> site list -> scan_gap list
(** Diff the scanned sources against a catalog (normally {!catalog});
    empty means every unsafe site is catalogued and every entry is
    live in the source. *)
