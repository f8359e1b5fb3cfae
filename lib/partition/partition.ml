open Mpas_numerics
open Mpas_mesh

type t = { n_parts : int; owner : int array }

(* Interleave the bits of three quantized coordinates (Morton code).
   21 bits per axis fit a 63-bit integer. *)
let morton (p : Vec3.t) =
  let quant x =
    let v = int_of_float ((x +. 1.) /. 2. *. 2097151.) in
    Int.max 0 (Int.min 2097151 v)
  in
  let ix = quant p.Vec3.x and iy = quant p.Vec3.y and iz = quant p.Vec3.z in
  let code = ref 0 in
  for b = 20 downto 0 do
    code := (!code lsl 3)
            lor (((ix lsr b) land 1) lsl 2)
            lor (((iy lsr b) land 1) lsl 1)
            lor ((iz lsr b) land 1)
  done;
  !code

let unit_positions (m : Mesh.t) =
  match m.geometry with
  | Mesh.Sphere _ -> m.x_cell
  | Mesh.Plane { lx; ly } ->
      (* Rescale the box into [-1, 1]^2 so the quantizer applies. *)
      Array.map
        (fun (p : Vec3.t) ->
          Vec3.make ((2. *. p.Vec3.x /. lx) -. 1.) ((2. *. p.Vec3.y /. ly) -. 1.) 0.)
        m.x_cell

let cut_into_runs order n_cells n_parts =
  let owner = Array.make n_cells 0 in
  Array.iteri
    (fun pos c -> owner.(c) <- pos * n_parts / n_cells)
    order;
  owner

let sfc (m : Mesh.t) ~n_parts =
  if n_parts < 1 || n_parts > m.n_cells then
    invalid_arg "Partition.sfc: bad n_parts";
  let pos = unit_positions m in
  let order = Array.init m.n_cells Fun.id in
  let key = Array.map morton pos in
  Array.sort (fun a b -> compare key.(a) key.(b)) order;
  { n_parts; owner = cut_into_runs order m.n_cells n_parts }

let rcb (m : Mesh.t) ~n_parts =
  if n_parts < 1 || n_parts > m.n_cells then
    invalid_arg "Partition.rcb: bad n_parts";
  let pos = unit_positions m in
  let owner = Array.make m.n_cells 0 in
  (* Split [cells] into [parts] ranks starting at [base]. *)
  let rec split cells parts base =
    if parts = 1 then Array.iter (fun c -> owner.(c) <- base) cells
    else begin
      let axis =
        let extent f =
          let lo, hi =
            Array.fold_left
              (fun (lo, hi) c -> (Float.min lo (f pos.(c)), Float.max hi (f pos.(c))))
              (Float.infinity, Float.neg_infinity)
              cells
          in
          hi -. lo
        in
        let ex = extent (fun (p : Vec3.t) -> p.Vec3.x)
        and ey = extent (fun (p : Vec3.t) -> p.Vec3.y)
        and ez = extent (fun (p : Vec3.t) -> p.Vec3.z) in
        if ex >= ey && ex >= ez then fun (p : Vec3.t) -> p.Vec3.x
        else if ey >= ez then fun (p : Vec3.t) -> p.Vec3.y
        else fun (p : Vec3.t) -> p.Vec3.z
      in
      let sorted = Array.copy cells in
      Array.sort (fun a b -> compare (axis pos.(a)) (axis pos.(b))) sorted;
      (* Proportional split keeps sizes balanced for non-power-of-two
         part counts. *)
      let left_parts = parts / 2 in
      let cut = Array.length sorted * left_parts / parts in
      split (Array.sub sorted 0 cut) left_parts base;
      split
        (Array.sub sorted cut (Array.length sorted - cut))
        (parts - left_parts) (base + left_parts)
    end
  in
  split (Array.init m.n_cells Fun.id) n_parts 0;
  { n_parts; owner }

let bfs (m : Mesh.t) ~n_parts =
  if n_parts < 1 || n_parts > m.n_cells then
    invalid_arg "Partition.bfs: bad n_parts";
  let owner = Array.make m.n_cells (-1) in
  (* Seeds from an SFC pass, so they start well separated. *)
  let seeds =
    let by_curve = sfc m ~n_parts in
    let seed = Array.make n_parts (-1) in
    Array.iteri
      (fun c r -> if seed.(r) < 0 then seed.(r) <- c)
      by_curve.owner;
    seed
  in
  let quota r = ((r + 1) * m.n_cells / n_parts) - (r * m.n_cells / n_parts) in
  let queues = Array.map (fun s -> Queue.of_seq (Seq.return s)) seeds in
  let counts = Array.make n_parts 0 in
  let claim r c =
    if owner.(c) < 0 && counts.(r) < quota r then begin
      owner.(c) <- r;
      counts.(r) <- counts.(r) + 1;
      true
    end
    else false
  in
  Array.iteri (fun r s -> ignore (claim r s)) seeds;
  let remaining = ref (m.n_cells - Array.fold_left ( + ) 0 counts) in
  (* Round-robin BFS keeps the parts growing at the same rate. *)
  while !remaining > 0 do
    let progressed = ref false in
    for r = 0 to n_parts - 1 do
      let rec grab () =
        if counts.(r) < quota r && not (Queue.is_empty queues.(r)) then begin
          let c = Queue.pop queues.(r) in
          let grew = ref false in
          for j = m.csr.cell_offsets.(c) to m.csr.cell_offsets.(c + 1) - 1 do
            let c' = m.csr.cell_neighbors.(j) in
            if claim r c' then begin
              decr remaining;
              progressed := true;
              grew := true;
              Queue.push c' queues.(r)
            end
          done;
          if not !grew then grab ()
        end
      in
      grab ()
    done;
    if not !progressed then begin
      (* Disconnected leftovers (quota walls): assign to the smallest
         part that still has room. *)
      for c = 0 to m.n_cells - 1 do
        if owner.(c) < 0 then begin
          let best = ref 0 in
          for r = 1 to n_parts - 1 do
            if counts.(r) - quota r < counts.(!best) - quota !best then
              best := r
          done;
          owner.(c) <- !best;
          counts.(!best) <- counts.(!best) + 1;
          decr remaining
        end
      done
    end
  done;
  { n_parts; owner }

let sizes t =
  let s = Array.make t.n_parts 0 in
  Array.iter (fun r -> s.(r) <- s.(r) + 1) t.owner;
  s

let imbalance t =
  let s = Array.map float_of_int (sizes t) in
  let _, hi = Stats.min_max s in
  hi /. Stats.mean s

let edge_cut (m : Mesh.t) t =
  let cut = ref 0 in
  for e = 0 to m.n_edges - 1 do
    let ec = m.csr.edge_cells in
    if t.owner.(ec.(2 * e)) <> t.owner.(ec.((2 * e) + 1)) then incr cut
  done;
  !cut

let check (m : Mesh.t) t =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  if Array.length t.owner <> m.n_cells then err "owner array size mismatch";
  Array.iteri
    (fun c r -> if r < 0 || r >= t.n_parts then err "cell %d has bad rank %d" c r)
    t.owner;
  Array.iteri
    (fun r n -> if n = 0 then err "rank %d owns no cells" r)
    (sizes t);
  List.rev !errors
