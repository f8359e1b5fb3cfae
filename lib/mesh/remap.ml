open Mpas_numerics

type locator = { mesh : Mesh.t; mutable last : int }

let locator mesh = { mesh; last = 0 }

let nearest_cell t p =
  let m = t.mesh in
  let p =
    match m.geometry with
    | Mesh.Sphere _ -> Vec3.normalize p
    | Mesh.Plane _ -> p
  in
  let d c = Vec3.dist p m.x_cell.(c) in
  let csr = m.csr in
  let rec descend c dc =
    let best = ref c and best_d = ref dc in
    for j = csr.cell_offsets.(c) to csr.cell_offsets.(c + 1) - 1 do
      let c' = csr.cell_neighbors.(j) in
      let dc' = d c' in
      if dc' < !best_d then begin
        best := c';
        best_d := dc'
      end
    done;
    if !best = c then c else descend !best !best_d
  in
  let hit = descend t.last (d t.last) in
  t.last <- hit;
  hit

let remap ~(src : Mesh.t) ~(dst : Mesh.t) field =
  if Array.length field <> src.n_cells then
    invalid_arg "Remap.remap: field length does not match the source mesh";
  let loc = locator src in
  Array.init dst.n_cells (fun c ->
      let p =
        match (src.geometry, dst.geometry) with
        | Mesh.Sphere _, Mesh.Sphere _ -> Vec3.normalize dst.x_cell.(c)
        | _ -> dst.x_cell.(c)
      in
      let nearest = nearest_cell loc p in
      let d0 = Vec3.dist p src.x_cell.(nearest) in
      if d0 < 1e-12 then field.(nearest)
      else begin
        (* Inverse-distance weights over the nearest cell and its ring. *)
        let num = ref 0. and den = ref 0. in
        let add c' =
          let w = 1. /. Vec3.dist p src.x_cell.(c') ** 2. in
          num := !num +. (w *. field.(c'));
          den := !den +. w
        in
        add nearest;
        let csr = src.csr in
        for j = csr.cell_offsets.(nearest) to csr.cell_offsets.(nearest + 1) - 1
        do
          add csr.cell_neighbors.(j)
        done;
        !num /. !den
      end)

let l2_error ~coarse ~fine ~field ~reference =
  let mapped = remap ~src:coarse ~dst:fine field in
  Stats.l2_diff mapped reference /. Stats.l2_norm reference
