type input = {
  cell_offsets : int array;
  cell_edges : int array;
  cell_edge_signs : float array;
  cell_kite_areas : float array;
  edge_cells : int array;
  area_cell : float array;
  dc_edge : float array;
  dv_edge : float array;
}

(* For each of the edge's two cells, walk the cell's row
   counter-clockwise starting after [e], accumulating the fraction [r]
   of the cell area covered by the kites passed so far.  The edge
   reached at local slot [j] contributes
     side * (1/2 - r) * (dv_e' / dc_e) * cell_edge_signs(j)
   with [side] = +1 for the cell the normal leaves and -1 for the cell
   it enters.  Row [e] holds the first cell's walk, then the second's. *)
let weights t =
  let n_edges = Array.length t.dc_edge in
  let width c = t.cell_offsets.(c + 1) - t.cell_offsets.(c) in
  let eoe_offsets = Array.make (n_edges + 1) 0 in
  for e = 0 to n_edges - 1 do
    eoe_offsets.(e + 1) <-
      eoe_offsets.(e)
      + width t.edge_cells.(2 * e)
      + width t.edge_cells.((2 * e) + 1)
      - 2
  done;
  let eoe_edges = Array.make eoe_offsets.(n_edges) 0 in
  let eoe_weights = Array.make eoe_offsets.(n_edges) 0. in
  for e = 0 to n_edges - 1 do
    let pos = ref eoe_offsets.(e) in
    for i = 0 to 1 do
      let c = t.edge_cells.((2 * e) + i) in
      let side = if i = 0 then 1. else -1. in
      let o = t.cell_offsets.(c) and m = width c in
      let j0 =
        let rec find j = if t.cell_edges.(o + j) = e then j else find (j + 1) in
        find 0
      in
      let r = ref 0. in
      for k = 1 to m - 1 do
        let j = (j0 + k) mod m in
        let e' = t.cell_edges.(o + j) in
        (* The corner between local slots j-1 and j is corner j-1. *)
        let kite = t.cell_kite_areas.(o + ((j - 1 + m) mod m)) in
        r := !r +. (kite /. t.area_cell.(c));
        eoe_edges.(!pos) <- e';
        eoe_weights.(!pos) <-
          side *. (0.5 -. !r) *. t.dv_edge.(e') /. t.dc_edge.(e)
          *. t.cell_edge_signs.(o + j);
        incr pos
      done
    done
  done;
  (eoe_offsets, eoe_edges, eoe_weights)
