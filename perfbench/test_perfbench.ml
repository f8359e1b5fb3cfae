(* Tests of the workload benchmark itself: metric names and units,
   agreement with BENCHMARK.json, seeded inputs, the self-time
   analysis, and a tiny-size smoke run of every workload through its
   correctness gate. *)

open Perfbench
module Jsonv = Mpas_obs.Jsonv
module Trace = Mpas_obs.Trace

let alnum c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

let name_ok s =
  s <> "" && String.length s <= 64 && alnum s.[0]
  && String.for_all (fun c -> alnum c || String.contains "_.-" c) s

let unit_ok u =
  u <> "" && String.length u <= 16 && String.for_all (fun c -> alnum c || String.contains "_/%.-" c) u

let all_metrics = Catalog.end_to_end @ Catalog.per_layer

let test_names () =
  List.iter
    (fun (m : Catalog.metric) ->
      Alcotest.(check bool) ("name " ^ m.name) true (name_ok m.name);
      Alcotest.(check bool) ("unit of " ^ m.name) true (unit_ok m.unit_))
    all_metrics;
  let names = List.map (fun (m : Catalog.metric) -> m.name) all_metrics in
  Alcotest.(check int) "names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check bool) "setup_s is end to end" true
    (List.exists (fun (m : Catalog.metric) -> m.name = "setup_s") Catalog.end_to_end)

let member key j =
  match Jsonv.member key j with Some v -> v | None -> Alcotest.failf "BENCHMARK.json: no %s" key

let test_benchmark_json () =
  let j = Jsonv.of_string (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all) in
  let listed key =
    List.map
      (fun m ->
        ( Jsonv.to_str (member "name" m),
          Jsonv.to_str (member "unit" m),
          Jsonv.to_str (member "better" m) ))
      (Jsonv.to_arr (member key j))
  in
  let catalog ms =
    List.map
      (fun (m : Catalog.metric) ->
        (m.name, m.unit_, match m.better with Catalog.Lower -> "lower" | Catalog.Higher -> "higher"))
      ms
  in
  let triple = Alcotest.(list (triple string string string)) in
  Alcotest.check triple "end_to_end" (catalog Catalog.end_to_end) (listed "end_to_end");
  Alcotest.check triple "per_layer" (catalog Catalog.per_layer) (listed "per_layer");
  List.iter
    (fun m ->
      let b = Jsonv.to_float (member "bound" m) in
      Alcotest.(check bool) "bound in (0, 0.25]" true (b > 0. && b <= 0.25))
    (Jsonv.to_arr (member "end_to_end" j));
  let workloads = Jsonv.to_arr (member "workloads" j) in
  Alcotest.(check (list string))
    "workloads"
    (List.map (fun (w : Workloads.t) -> w.name) Workloads.all)
    (List.map (fun w -> Jsonv.to_str (member "name" w)) workloads);
  List.iter
    (fun w ->
      let why = Jsonv.to_str (member "why" w) in
      Alcotest.(check bool) "why is one short line" true
        (String.length why <= 200 && not (String.contains why '\n')))
    workloads

let test_instances () =
  let mesh = Mpas_mesh.Build.icosahedral ~level:1 () in
  let sp = Mpas_ensemble.Ensemble.spec (Mpas_ensemble.Ensemble.create ~capacity:2 ~block:1 mesh) in
  let ids (ph : Mpas_runtime.Spec.phase) =
    Array.to_list
      (Array.map
         (fun (t : Mpas_runtime.Spec.task) -> t.instance.Mpas_patterns.Pattern.id)
         ph.tasks)
  in
  Alcotest.(check (list string))
    "every batch task instance has a metric"
    (List.sort_uniq compare (ids sp.early @ ids sp.final))
    (List.sort compare Catalog.ensemble_instances)

let test_self_times () =
  let sink = Trace.memory () in
  Trace.set_sink sink;
  Trace.emit ~cat:"bench" ~ts_us:0. ~dur_us:100. "parent";
  Trace.emit ~cat:"bench" ~ts_us:10. ~dur_us:20. "child";
  Trace.emit ~cat:"bench" ~ts_us:40. ~dur_us:30. "child";
  Trace.emit ~cat:"bench" ~ts_us:45. ~dur_us:5. "grandchild";
  Trace.emit ~cat:"kernel" ~ts_us:80. ~dur_us:10. "library";
  Trace.set_sink Trace.noop;
  let st = Probe.self_times sink in
  let check name count total self =
    let s = st name in
    Alcotest.(check int) (name ^ " count") count s.Probe.count;
    Alcotest.(check (float 1e-9)) (name ^ " total") total s.Probe.total_us;
    Alcotest.(check (float 1e-9)) (name ^ " self") self s.Probe.self_us
  in
  check "parent" 1 100. 50.;
  check "child" 2 50. 45.;
  check "grandchild" 1 5. 5.;
  check "library" 0 0. 0.

let tiny ?(seconds = 0.05) ~trace seed =
  { Workloads.seed; seconds; trace; tiny = true; triad_gbs = 10. }

let seconds_for (w : Workloads.t) = if w.name = "served-l4" then 0.3 else 0.05

let test_smoke (w : Workloads.t) () =
  List.iter
    (fun trace ->
      let o = Workloads.run w (tiny ~seconds:(seconds_for w) ~trace 7) in
      List.iter (fun (n, ok) -> Alcotest.(check bool) n true ok) o.checks;
      Alcotest.(check bool) "checks ran" true (o.checks <> []);
      Alcotest.(check int) "nothing failed" 0 o.failed;
      List.iter
        (fun (n, v) ->
          Alcotest.(check bool) (n ^ " is listed") true (Catalog.find n <> None);
          Alcotest.(check bool) (n ^ " is finite") true (Float.is_finite v))
        o.metrics;
      List.iter
        (fun (m : Catalog.metric) ->
          Alcotest.(check bool) (m.name ^ " reported") true (List.mem_assoc m.name o.metrics))
        Catalog.end_to_end)
    [ false; true ]

let test_seeds (w : Workloads.t) () =
  let run seed = Workloads.run w (tiny ~seconds:(seconds_for w) ~trace:false seed) in
  let a = run 1 and b = run 2 and a' = run 1 in
  let inputs (o : Workloads.outcome) = Jsonv.to_str (List.assoc "inputs" o.info) in
  Alcotest.(check bool) "seed changes the inputs" true (inputs a <> inputs b);
  Alcotest.(check string) "same seed, same inputs" (inputs a) (inputs a');
  Alcotest.(check (list string)) "same metric set" (List.map fst a.metrics) (List.map fst b.metrics)

let () =
  let per_workload f = List.map (fun (w : Workloads.t) -> Alcotest.test_case w.name `Quick (f w)) Workloads.all in
  Alcotest.run "perfbench"
    [
      ( "catalog",
        [
          Alcotest.test_case "names and units" `Quick test_names;
          Alcotest.test_case "matches BENCHMARK.json" `Quick test_benchmark_json;
          Alcotest.test_case "ensemble instances" `Quick test_instances;
        ] );
      ("trace", [ Alcotest.test_case "self times" `Quick test_self_times ]);
      ("smoke", per_workload test_smoke);
      ("seeds", per_workload test_seeds);
    ]
