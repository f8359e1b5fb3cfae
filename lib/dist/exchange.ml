open Mpas_mesh
open Mpas_par

type location = Cells | Edges | Vertices

let location_name = function
  | Cells -> "cells"
  | Edges -> "edges"
  | Vertices -> "vertices"

type rank_sets = {
  rank : int;
  own_cells : Span.t;
  own_edges : Span.t;
  own_vertices : Span.t;
  ghost_cells : int array;
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
  mutable exchanges : int;
  mutable values_moved : int;
}

let entity_name = function
  | Cells -> "cell"
  | Edges -> "edge"
  | Vertices -> "vertex"

(* [f loc j] for every entity a kernel reads from item [i] of [loc], in
   CSR slot order: a cell reads the edge, neighbour and corner of each
   of its slots; an edge its two cells, two vertices and TRiSK
   neighbours; a vertex its three edges, then its three cells. *)
let iter_reads (m : Mesh.t) loc i f =
  let c = m.csr in
  let run loc' table lo hi =
    for j = lo to hi - 1 do
      f loc' table.(j)
    done
  in
  match loc with
  | Cells ->
      for j = c.cell_offsets.(i) to c.cell_offsets.(i + 1) - 1 do
        f Edges c.cell_edges.(j);
        f Cells c.cell_neighbors.(j);
        f Vertices c.cell_vertices.(j)
      done
  | Edges ->
      run Cells c.edge_cells (2 * i) ((2 * i) + 2);
      run Vertices c.edge_vertices (2 * i) ((2 * i) + 2);
      run Edges c.eoe_edges c.eoe_offsets.(i) c.eoe_offsets.(i + 1)
  | Vertices ->
      run Edges c.vertex_edges (3 * i) ((3 * i) + 3);
      run Cells c.vertex_cells (3 * i) ((3 * i) + 3)

(* Entities owned by each rank, as span sets. *)
let owned_of owner n_ranks n =
  Array.init n_ranks (fun r -> Span.of_pred n (fun i -> owner.(i) = r))

let build (m : Mesh.t) (p : Mpas_partition.Partition.t) =
  let n_ranks = p.Mpas_partition.Partition.n_parts in
  let cell_owner = Array.copy p.Mpas_partition.Partition.owner in
  let edge_owner =
    Array.init m.n_edges (fun e -> cell_owner.(m.csr.edge_cells.(2 * e)))
  in
  let vertex_owner =
    Array.init m.n_vertices (fun v -> cell_owner.(m.csr.vertex_cells.(3 * v)))
  in
  let own_cells = owned_of cell_owner n_ranks m.n_cells in
  let own_edges = owned_of edge_owner n_ranks m.n_edges in
  let own_vertices = owned_of vertex_owner n_ranks m.n_vertices in
  let sets =
    Array.init n_ranks (fun rank ->
        (* Mark every entity any owned-item kernel reads. *)
        let cell_read = Array.make m.n_cells false in
        let edge_read = Array.make m.n_edges false in
        let vertex_read = Array.make m.n_vertices false in
        let mark loc j =
          (match loc with
          | Cells -> cell_read
          | Edges -> edge_read
          | Vertices -> vertex_read).(j) <- true
        in
        Span.iter (fun c -> iter_reads m Cells c mark) own_cells.(rank);
        Span.iter (fun e -> iter_reads m Edges e mark) own_edges.(rank);
        Span.iter (fun v -> iter_reads m Vertices v mark) own_vertices.(rank);
        let ghosts read owner n =
          let acc = ref [] in
          for i = n - 1 downto 0 do
            if read.(i) && owner.(i) <> rank then acc := i :: !acc
          done;
          Array.of_list !acc
        in
        {
          rank;
          own_cells = own_cells.(rank);
          own_edges = own_edges.(rank);
          own_vertices = own_vertices.(rank);
          ghost_cells = ghosts cell_read cell_owner m.n_cells;
          ghost_edges = ghosts edge_read edge_owner m.n_edges;
          ghost_vertices = ghosts vertex_read vertex_owner m.n_vertices;
        })
  in
  {
    mesh = m;
    n_ranks;
    cell_owner;
    edge_owner;
    vertex_owner;
    sets;
    exchanges = 0;
    values_moved = 0;
  }

(* Process-wide halo-traffic counters, alongside the per-instance
   mutable stats: they survive across drivers and feed the Obs
   reports. *)
let m_exchanges = Mpas_obs.Metrics.counter "dist.halo.exchanges"
let m_values_moved = Mpas_obs.Metrics.counter "dist.halo.values_moved"

let exchange t loc fields =
  if Array.length fields <> t.n_ranks then
    invalid_arg
      (Printf.sprintf
         "Exchange.exchange: one field copy per rank expected (got %d, \
          expected %d)"
         (Array.length fields) t.n_ranks);
  let owner, ghosts_of =
    match loc with
    | Cells -> (t.cell_owner, fun s -> s.ghost_cells)
    | Edges -> (t.edge_owner, fun s -> s.ghost_edges)
    | Vertices -> (t.vertex_owner, fun s -> s.ghost_vertices)
  in
  let moved = ref 0 in
  Array.iter
    (fun s ->
      let dst = fields.(s.rank) and ghosts = ghosts_of s in
      Array.iter (fun g -> dst.(g) <- fields.(owner.(g)).(g)) ghosts;
      moved := !moved + Array.length ghosts)
    t.sets;
  t.values_moved <- t.values_moved + !moved;
  t.exchanges <- t.exchanges + 1;
  Mpas_obs.Metrics.Counter.incr m_exchanges;
  Mpas_obs.Metrics.Counter.add m_values_moved !moved

(* Interior/boundary/send classification for communication overlap.
   Cells split via the depth-keyed BFS of [Halo.interior_boundary];
   an owned edge or vertex is boundary when any entity its kernels
   touch (the same adjacency sets [build] marks as reads) is foreign
   or, for support cells, in the boundary-cell band.  Consequences the
   property tests check: interior + boundary tile the owned sets, a
   depth-1 stencil on an interior entity reads owned entities only,
   and every send entity (ghosted by some other rank) is boundary —
   so packing can start as soon as the boundary sweep finishes, while
   the interior sweep still runs. *)
type split = {
  sp_rank : int;
  int_cells : Span.t;
  bnd_cells : Span.t;
  int_edges : Span.t;
  bnd_edges : Span.t;
  int_vertices : Span.t;
  bnd_vertices : Span.t;
  send_cells : int array;
  send_edges : int array;
  send_vertices : int array;
}

let classify t ~depth =
  let m = t.mesh in
  let part =
    {
      Mpas_partition.Partition.n_parts = t.n_ranks;
      owner = t.cell_owner;
    }
  in
  let ib = Mpas_partition.Halo.interior_boundary m part ~depth in
  (* An entity is a send entity when any rank ghosts it. *)
  let sc = Array.make m.n_cells false in
  let se = Array.make m.n_edges false in
  let sv = Array.make m.n_vertices false in
  Array.iter
    (fun s ->
      Array.iter (fun g -> sc.(g) <- true) s.ghost_cells;
      Array.iter (fun g -> se.(g) <- true) s.ghost_edges;
      Array.iter (fun g -> sv.(g) <- true) s.ghost_vertices)
    t.sets;
  let filt pred own = Span.to_array (Span.filter pred own) in
  Array.init t.n_ranks (fun r ->
      let int_cells, bnd_cells = ib.(r) in
      let bcell = Array.make m.n_cells false in
      Array.iter (fun c -> bcell.(c) <- true) bnd_cells;
      let s = t.sets.(r) in
      let bnd loc i =
        let hit = ref false in
        iter_reads m loc i (fun loc' j ->
            let foreign =
              match loc' with
              | Cells -> t.cell_owner.(j) <> r || bcell.(j)
              | Edges -> t.edge_owner.(j) <> r
              | Vertices -> t.vertex_owner.(j) <> r
            in
            if foreign then hit := true);
        !hit
      in
      let bnd_edge = bnd Edges and bnd_vertex = bnd Vertices in
      {
        sp_rank = r;
        int_cells = Span.of_sorted int_cells;
        bnd_cells = Span.of_sorted bnd_cells;
        int_edges = Span.filter (fun e -> not (bnd_edge e)) s.own_edges;
        bnd_edges = Span.filter bnd_edge s.own_edges;
        int_vertices =
          Span.filter (fun v -> not (bnd_vertex v)) s.own_vertices;
        bnd_vertices = Span.filter bnd_vertex s.own_vertices;
        send_cells = filt (fun c -> sc.(c)) s.own_cells;
        send_edges = filt (fun e -> se.(e)) s.own_edges;
        send_vertices = filt (fun v -> sv.(v)) s.own_vertices;
      })

(* The overlapped driver moves ghosts through pack/transfer/unpack
   task bodies that run concurrently; it books the traffic here once
   per step instead of from inside the (parallel) bodies. *)
let record_traffic t ~exchanges ~values =
  t.exchanges <- t.exchanges + exchanges;
  t.values_moved <- t.values_moved + values;
  Mpas_obs.Metrics.Counter.add m_exchanges exchanges;
  Mpas_obs.Metrics.Counter.add m_values_moved values

let reset_stats t =
  t.exchanges <- 0;
  t.values_moved <- 0

let bytes_moved t = 8. *. float_of_int t.values_moved

let check t =
  let m = t.mesh in
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  (* Ownership partitions each entity set. *)
  let total f = Array.fold_left (fun acc s -> acc + Span.cardinal (f s)) 0 t.sets in
  if total (fun s -> s.own_cells) <> m.n_cells then err "cells not partitioned";
  if total (fun s -> s.own_edges) <> m.n_edges then err "edges not partitioned";
  if total (fun s -> s.own_vertices) <> m.n_vertices then
    err "vertices not partitioned";
  Array.iter
    (fun s ->
      let visible_cell = Array.make m.n_cells false in
      let visible_edge = Array.make m.n_edges false in
      let visible_vertex = Array.make m.n_vertices false in
      Span.iter (fun c -> visible_cell.(c) <- true) s.own_cells;
      Array.iter (fun c -> visible_cell.(c) <- true) s.ghost_cells;
      Span.iter (fun e -> visible_edge.(e) <- true) s.own_edges;
      Array.iter (fun e -> visible_edge.(e) <- true) s.ghost_edges;
      Span.iter (fun v -> visible_vertex.(v) <- true) s.own_vertices;
      Array.iter (fun v -> visible_vertex.(v) <- true) s.ghost_vertices;
      (* Ghosts must not be owned. *)
      Array.iter
        (fun c ->
          if t.cell_owner.(c) = s.rank then err "rank %d ghosts own cell" s.rank)
        s.ghost_cells;
      (* Every stencil access from owned items must be visible. *)
      let visible = function
        | Cells -> visible_cell
        | Edges -> visible_edge
        | Vertices -> visible_vertex
      in
      let reads_visible loc own =
        Span.iter
          (fun i ->
            iter_reads m loc i (fun loc' j ->
                if not (visible loc').(j) then
                  err "rank %d: %s %d reads invisible %s" s.rank
                    (entity_name loc) i (entity_name loc')))
          own
      in
      reads_visible Cells s.own_cells;
      reads_visible Edges s.own_edges;
      reads_visible Vertices s.own_vertices)
    t.sets;
  List.rev !errors
