open Mpas_mesh

type rank_halo = {
  rank : int;
  owned : int list;
  boundary : int list;
  ghosts : (int * int) list;
  neighbours : int list;
}

let build (m : Mesh.t) (p : Partition.t) =
  let owned = Array.make p.Partition.n_parts [] in
  let boundary = Array.make p.Partition.n_parts [] in
  let ghosts = Array.make p.Partition.n_parts [] in
  let neighbours = Array.make p.Partition.n_parts [] in
  let csr = m.csr in
  for c = m.n_cells - 1 downto 0 do
    let r = p.Partition.owner.(c) in
    owned.(r) <- c :: owned.(r);
    let foreign =
      Array.sub csr.cell_neighbors csr.cell_offsets.(c) m.n_edges_on_cell.(c)
      |> Array.to_list
      |> List.filter (fun c' -> p.Partition.owner.(c') <> r)
    in
    if foreign <> [] then begin
      boundary.(r) <- c :: boundary.(r);
      List.iter
        (fun c' ->
          let r' = p.Partition.owner.(c') in
          if not (List.mem (c', r') ghosts.(r)) then
            ghosts.(r) <- (c', r') :: ghosts.(r);
          if not (List.mem r' neighbours.(r)) then
            neighbours.(r) <- r' :: neighbours.(r))
        foreign
    end
  done;
  Array.init p.Partition.n_parts (fun rank ->
      {
        rank;
        owned = owned.(rank);
        boundary = boundary.(rank);
        ghosts = List.sort compare ghosts.(rank);
        neighbours = List.sort compare neighbours.(rank);
      })

(* Interior/boundary decomposition of the owned cells, keyed by halo
   depth: the frontier is every owned cell with a foreign neighbour,
   and the boundary widens from it by (depth - 1) hops of
   cell_neighbors — a BFS over owned cells only.  Interior cells are
   therefore at least [depth] hops from any foreign cell, so a
   depth-[d] stencil sweep restricted to interior cells reads no ghost
   value: the transfer-overlap split of the paper's SS IV (compute the
   boundary, ship it, and hide the wire behind interior work). *)
let interior_boundary (m : Mesh.t) (p : Partition.t) ~depth =
  if depth < 1 then invalid_arg "Halo.interior_boundary: depth < 1";
  let owner = p.Partition.owner in
  (* hops.(c) = BFS distance from the frontier within the owner's
     patch; max_int = farther than [depth - 1] (interior). *)
  let hops = Array.make m.n_cells max_int in
  let csr = m.csr in
  let frontier = ref [] in
  for c = m.n_cells - 1 downto 0 do
    let foreign = ref false in
    for j = csr.cell_offsets.(c) to csr.cell_offsets.(c + 1) - 1 do
      if owner.(csr.cell_neighbors.(j)) <> owner.(c) then foreign := true
    done;
    if !foreign then begin
      hops.(c) <- 0;
      frontier := c :: !frontier
    end
  done;
  let wave = ref !frontier in
  for d = 1 to depth - 1 do
    let next = ref [] in
    List.iter
      (fun c ->
        for j = csr.cell_offsets.(c) to csr.cell_offsets.(c + 1) - 1 do
          let c' = csr.cell_neighbors.(j) in
          if owner.(c') = owner.(c) && hops.(c') > d then begin
            hops.(c') <- d;
            next := c' :: !next
          end
        done)
      !wave;
    wave := !next
  done;
  let interior = Array.make p.Partition.n_parts [] in
  let boundary = Array.make p.Partition.n_parts [] in
  for c = m.n_cells - 1 downto 0 do
    let r = owner.(c) in
    if hops.(c) < max_int then boundary.(r) <- c :: boundary.(r)
    else interior.(r) <- c :: interior.(r)
  done;
  Array.init p.Partition.n_parts (fun r ->
      (Array.of_list interior.(r), Array.of_list boundary.(r)))

let summaries halos =
  Array.map
    (fun h ->
      (List.length h.owned, List.length h.boundary, List.length h.neighbours))
    halos

let check (m : Mesh.t) (p : Partition.t) halos =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  if Array.length halos <> p.Partition.n_parts then err "halo count mismatch";
  let total_owned =
    Array.fold_left (fun acc h -> acc + List.length h.owned) 0 halos
  in
  if total_owned <> m.n_cells then
    err "owned cells sum to %d, mesh has %d" total_owned m.n_cells;
  Array.iter
    (fun h ->
      List.iter
        (fun c ->
          if p.Partition.owner.(c) <> h.rank then
            err "rank %d lists boundary cell %d it does not own" h.rank c)
        h.boundary;
      List.iter
        (fun (c, home) ->
          if p.Partition.owner.(c) <> home then
            err "rank %d ghost %d has wrong home" h.rank c;
          if home = h.rank then err "rank %d ghosts its own cell %d" h.rank c;
          (* The ghost's home rank must list it as boundary. *)
          if not (List.mem c halos.(home).boundary) then
            err "ghost %d of rank %d missing from rank %d boundary" c h.rank
              home)
        h.ghosts)
    halos;
  List.rev !errors
