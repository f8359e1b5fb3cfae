(* Simulated-MPI execution: run the mountain-wave case partitioned over
   several ranks with halo exchanges, verify the result is bitwise
   identical to the serial run, report the halo traffic, and show the
   kernel profile that motivates the kernel-level hybrid design.

   Run with: dune exec examples/distributed_run.exe *)

open Mpas_swe
open Mpas_dist

let () =
  let mesh = Mpas_mesh.Build.icosahedral ~level:4 ~lloyd_iters:2 () in
  let n_ranks = 4 in
  let steps = 10 in

  (* Serial reference. *)
  let serial = Model.init Williamson.Tc5 mesh in
  Model.run serial ~steps;

  (* The same integration over four ranks. *)
  let dist = Driver.init ~n_ranks Williamson.Tc5 mesh in
  Array.iter
    (fun s ->
      Printf.printf
        "rank %d: %5d cells owned, %4d ghost cells, %4d ghost edges\n"
        s.Exchange.rank
        (Mpas_par.Span.cardinal s.Exchange.own_cells)
        (Array.length s.Exchange.ghost_cells)
        (Array.length s.Exchange.ghost_edges))
    dist.Driver.exchange.Exchange.sets;
  Exchange.reset_stats dist.Driver.exchange;
  Driver.run dist ~steps;

  let gathered = Driver.gather_state dist in
  let identical =
    gathered.Fields.h = serial.Model.state.Fields.h
    && gathered.Fields.u = serial.Model.state.Fields.u
  in
  Printf.printf
    "\nafter %d steps: distributed result bitwise identical to serial: %b\n"
    steps identical;
  Printf.printf "halo traffic: %.2f MB in %d exchanges (%.1f kB per step)\n"
    (Exchange.bytes_moved dist.Driver.exchange /. 1e6)
    dist.Driver.exchange.Exchange.exchanges
    (Exchange.bytes_moved dist.Driver.exchange /. 1e3 /. float_of_int steps);

  (* The per-kernel profile, i.e. the measurement behind Figure 2's
     kernel placement. *)
  print_endline "\nkernel profile (serial, this machine):";
  print_endline (Profile.to_string (Profile.measure serial ~steps:5))
