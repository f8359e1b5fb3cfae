(* Workload benchmark entry point.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload, prints a provenance line, then as the last line
   one JSON object with the keys [correct], [attempted], [failed] and
   [metrics]: every end-to-end metric with [--trace 0], every per-layer
   metric with [--trace 1].  A traced run also writes its spans as a
   Chrome trace to perfbench/out/<workload>-<seed>.trace.json.  Exits 1
   when a correctness check fails, 2 on bad arguments. *)

open Mpas_obs
open Perfbench

let usage = "bench.exe --workload NAME --seed N --seconds S --trace 0|1"
let out_dir = "perfbench/out"

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("bench: " ^ msg);
      exit 2)
    fmt

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10. in
  let trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Int (fun n -> seed := Some n), "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
    ]
    (fun a -> die "unexpected argument %s" a)
    usage;
  let w =
    match Workloads.find !workload with
    | Some w -> w
    | None ->
        die "unknown workload %S (known: %s)" !workload
          (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all))
  in
  let seed = match !seed with Some s -> s | None -> die "--seed is required" in
  if not (!seconds > 0.) then die "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  let traced = !trace = 1 in
  let triad_gbs, triad_bytes =
    if traced then begin
      let r = Probe.triad () in
      Gc.full_major ();
      r
    end
    else (0., 0)
  in
  let o =
    Workloads.run w
      { Workloads.seed; seconds = !seconds; trace = traced; tiny = false; triad_gbs }
  in
  let provenance =
    Probe.provenance ~seed ~trace:traced
    @ [ ("workload", Jsonv.Str w.Workloads.name); ("run_seconds", Jsonv.Num !seconds) ]
    @ (if traced then [ ("triad_array_bytes", Jsonv.Num (float_of_int triad_bytes)) ] else [])
    @ o.Workloads.info
    @ [
        ( "checks",
          Jsonv.Obj (List.map (fun (n, ok) -> (n, Jsonv.Bool ok)) o.Workloads.checks) );
      ]
  in
  print_endline (Jsonv.to_string (Jsonv.Obj [ ("provenance", Jsonv.Obj provenance) ]));
  (match o.Workloads.sink with
  | None -> ()
  | Some sink ->
      (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
      let path = Filename.concat out_dir (Printf.sprintf "%s-%d.trace.json" w.Workloads.name seed) in
      let doc =
        match Trace.to_json sink with
        | Jsonv.Obj fields -> Jsonv.Obj (fields @ [ ("provenance", Jsonv.Obj provenance) ])
        | j -> j
      in
      Out_channel.with_open_bin path (fun oc -> output_string oc (Jsonv.to_string doc)));
  let wanted = if traced then Catalog.per_layer else Catalog.end_to_end in
  let metrics =
    List.map
      (fun (m : Catalog.metric) ->
        let v =
          match List.assoc_opt m.Catalog.name o.Workloads.metrics with
          | Some v -> v
          | None when traced -> 0.
          | None -> failwith ("missing end-to-end metric " ^ m.Catalog.name)
        in
        if not (Float.is_finite v) then failwith ("non-finite metric " ^ m.Catalog.name);
        (m.Catalog.name, Jsonv.Obj [ ("value", Jsonv.Num v); ("unit", Jsonv.Str m.Catalog.unit_) ]))
      wanted
  in
  let correct = List.for_all snd o.Workloads.checks in
  List.iter
    (fun (n, ok) -> if not ok then prerr_endline ("bench: correctness check failed: " ^ n))
    o.Workloads.checks;
  print_endline
    (Jsonv.to_string
       (Jsonv.Obj
          [
            ("correct", Jsonv.Bool correct);
            ("attempted", Jsonv.Num (float_of_int o.Workloads.attempted));
            ("failed", Jsonv.Num (float_of_int o.Workloads.failed));
            ("metrics", Jsonv.Obj metrics);
          ]));
  exit (if correct then 0 else 1)
