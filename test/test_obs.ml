(* Observability layer: metrics registry, trace sink, Chrome export and
   the measured-vs-roofline report.

   The concurrent tests run real pool loops; the overhead test backs
   the <2% no-op-sink budget promised in DESIGN.md §8. *)

open Mpas_obs
open Mpas_par
open Mpas_mesh
open Mpas_swe

let ico = lazy (Build.icosahedral ~level:3 ~lloyd_iters:3 ())

(* --- counters / gauges / timers ------------------------------------------ *)

let test_counter_basics () =
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r "c" in
  Alcotest.(check int) "starts at zero" 0 (Metrics.Counter.value c);
  Metrics.Counter.incr c;
  Metrics.Counter.add c 41;
  Alcotest.(check int) "incr + add" 42 (Metrics.Counter.value c);
  (* Same name finds the same counter, not a fresh one. *)
  let c' = Metrics.counter ~registry:r "c" in
  Metrics.Counter.incr c';
  Alcotest.(check int) "get-or-create aliases" 43 (Metrics.Counter.value c)

let test_gauge_basics () =
  let r = Metrics.create () in
  let g = Metrics.gauge ~registry:r "g" in
  Metrics.Gauge.set g 2.5;
  Metrics.Gauge.set g (-1.0);
  Alcotest.(check (float 0.)) "last write wins" (-1.0) (Metrics.Gauge.value g)

let test_timer_basics () =
  let r = Metrics.create () in
  let t = Metrics.timer ~registry:r "t" in
  Metrics.Timer.record t 1e-3;
  Metrics.Timer.record t 3e-3;
  Alcotest.(check int) "count" 2 (Metrics.Timer.count t);
  Alcotest.(check (float 1e-12)) "total" 4e-3 (Metrics.Timer.total t);
  match Metrics.find_timer (Metrics.snapshot r) "t" with
  | None -> Alcotest.fail "timer missing from snapshot"
  | Some s ->
      Alcotest.(check (float 1e-12)) "min" 1e-3 s.Metrics.min_s;
      Alcotest.(check (float 1e-12)) "max" 3e-3 s.Metrics.max_s;
      Alcotest.(check int) "bucket mass equals count" 2
        (Array.fold_left ( + ) 0 s.Metrics.buckets)

let test_timer_time_records_on_raise () =
  let r = Metrics.create () in
  let t = Metrics.timer ~registry:r "t" in
  Alcotest.check_raises "exception propagates" (Failure "boom") (fun () ->
      Metrics.Timer.time t (fun () -> failwith "boom"));
  Alcotest.(check int) "raising run still recorded" 1 (Metrics.Timer.count t)

let test_kind_clash_rejected () =
  let r = Metrics.create () in
  let (_ : Metrics.Counter.t) = Metrics.counter ~registry:r "x" in
  Alcotest.(check bool) "same name, different kind" true
    (match Metrics.gauge ~registry:r "x" with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- snapshots and merging ----------------------------------------------- *)

let test_snapshot_sorted_and_lookup () =
  let r = Metrics.create () in
  Metrics.Counter.add (Metrics.counter ~registry:r "z.late") 7;
  Metrics.Gauge.set (Metrics.gauge ~registry:r "a.early") 1.5;
  Metrics.Timer.record (Metrics.timer ~registry:r "m.mid") 1e-4;
  let snap = Metrics.snapshot r in
  Alcotest.(check (list string))
    "sorted by name"
    [ "a.early"; "m.mid"; "z.late" ]
    (List.map fst snap);
  Alcotest.(check (option int)) "find counter" (Some 7)
    (Metrics.find_counter snap "z.late");
  Alcotest.(check (option (float 0.))) "find gauge" (Some 1.5)
    (Metrics.find_gauge snap "a.early");
  Alcotest.(check (option int)) "missing name" None
    (Metrics.find_counter snap "nope")

let test_merge_combines () =
  let mk c_add t_obs g =
    let r = Metrics.create () in
    Metrics.Counter.add (Metrics.counter ~registry:r "c") c_add;
    List.iter (Metrics.Timer.record (Metrics.timer ~registry:r "t")) t_obs;
    Metrics.Gauge.set (Metrics.gauge ~registry:r "g") g;
    Metrics.snapshot r
  in
  let left = mk 3 [ 1e-3; 5e-3 ] 1.0 in
  let right = mk 4 [ 2e-3 ] 9.0 in
  let merged = Metrics.merge left right in
  Alcotest.(check (option int)) "counters add" (Some 7)
    (Metrics.find_counter merged "c");
  Alcotest.(check (option (float 0.))) "gauge is right-biased" (Some 9.0)
    (Metrics.find_gauge merged "g");
  (match Metrics.find_timer merged "t" with
  | None -> Alcotest.fail "merged timer missing"
  | Some s ->
      Alcotest.(check int) "timer counts add" 3 s.Metrics.t_count;
      Alcotest.(check (float 1e-12)) "timer totals add" 8e-3 s.Metrics.total_s;
      Alcotest.(check (float 1e-12)) "min folds" 1e-3 s.Metrics.min_s;
      Alcotest.(check (float 1e-12)) "max folds" 5e-3 s.Metrics.max_s);
  (* Disjoint names union; merge with empty is identity. *)
  let only_left = mk 1 [] 0.0 in
  Alcotest.(check bool) "empty right is identity" true
    (Metrics.merge only_left [] = only_left);
  Alcotest.(check bool) "empty left is identity" true
    (Metrics.merge [] only_left = only_left)

let test_labeled_merge_and_grouping () =
  (* Equal label sets combine under merge (key order irrelevant),
     distinct sets stay distinct, and [group_labeled] reads the family
     back as one table. *)
  let mk order =
    let r = Metrics.create () in
    let labels =
      if order then [ ("tenant", "acme"); ("lane", "high") ]
      else [ ("lane", "high"); ("tenant", "acme") ]
    in
    Metrics.Counter.add (Metrics.counter ~registry:r ~labels "jobs") 2;
    Metrics.Counter.add
      (Metrics.counter ~registry:r ~labels:[ ("tenant", "beta") ] "jobs")
      5;
    Metrics.Counter.incr (Metrics.counter ~registry:r "jobs");
    Metrics.snapshot r
  in
  let merged = Metrics.merge (mk true) (mk false) in
  Alcotest.(check (option int))
    "equal label sets combine (sorted canonically)" (Some 4)
    (Metrics.find_counter merged "jobs{lane=high,tenant=acme}");
  Alcotest.(check (option int)) "distinct sets stay distinct" (Some 10)
    (Metrics.find_counter merged "jobs{tenant=beta}");
  Alcotest.(check (option int)) "unlabeled entry untouched" (Some 2)
    (Metrics.find_counter merged "jobs");
  Alcotest.(check int) "family groups to one table" 3
    (List.length (Metrics.group_labeled merged "jobs"));
  (match Metrics.group_labeled merged "jobs" with
  | [ ([], Metrics.Counter_value 2); (l1, _); (l2, _) ] ->
      Alcotest.(check bool) "labels parsed back sorted" true
        (l1 = [ ("lane", "high"); ("tenant", "acme") ]
        && l2 = [ ("tenant", "beta") ])
  | _ -> Alcotest.fail "unexpected group_labeled shape");
  Alcotest.(check bool) "structural characters rejected" true
    (match Metrics.labeled_name "x" [ ("a=b", "c") ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_merge_kind_mismatch_rejected () =
  let a = [ ("x", Metrics.Counter_value 1) ] in
  let b = [ ("x", Metrics.Gauge_value 2.0) ] in
  Alcotest.(check bool) "mismatched kinds rejected" true
    (match Metrics.merge a b with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_snapshot_json_parses () =
  let r = Metrics.create () in
  Metrics.Counter.add (Metrics.counter ~registry:r "c") 5;
  Metrics.Timer.record (Metrics.timer ~registry:r "t") 2e-3;
  let json = Metrics.to_json (Metrics.snapshot r) in
  (* The emitted text must be valid JSON for our own parser. *)
  let round = Jsonv.of_string (Jsonv.to_string json) in
  Alcotest.(check bool) "snapshot JSON round-trips" true (round = json)

(* --- concurrency under the pool ------------------------------------------ *)

let test_concurrent_increments_exact () =
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r "hits" in
  let t = Metrics.timer ~registry:r "work" in
  let n = 100_000 in
  Pool.with_pool ~n_domains:4 (fun pool ->
      Pool.parallel_for pool ~lo:0 ~hi:n (fun i ->
          Metrics.Counter.incr c;
          if i land 15 = 0 then Metrics.Timer.record t 1e-6));
  Alcotest.(check int) "no lost counter updates" n (Metrics.Counter.value c);
  Alcotest.(check int) "no lost timer updates" (n / 16)
    (Metrics.Timer.count t);
  Alcotest.(check (float 1e-9)) "timer total exact"
    (float_of_int (n / 16) *. 1e-6)
    (Metrics.Timer.total t)

let test_pool_publishes_counters () =
  let snap () = Metrics.snapshot Metrics.default in
  let before name = Option.value ~default:0 (Metrics.find_counter (snap ()) name) in
  let jobs0 = before "par.pool.jobs" and chunks0 = before "par.pool.chunks" in
  Pool.with_pool ~n_domains:2 (fun pool ->
      Pool.parallel_for pool ~lo:0 ~hi:1000 (fun _ -> ()));
  let jobs1 = before "par.pool.jobs" and chunks1 = before "par.pool.chunks" in
  Alcotest.(check bool) "pool job counted" true (jobs1 > jobs0);
  Alcotest.(check bool) "pool chunks counted" true (chunks1 > chunks0)

(* --- trace sink ----------------------------------------------------------- *)

let with_memory_sink f =
  let sink = Trace.memory () in
  Trace.set_sink sink;
  Fun.protect
    ~finally:(fun () -> Trace.set_sink Trace.noop)
    (fun () -> f sink)

let complete_spans sink =
  List.filter (fun e -> e.Trace.ev_ph = `Complete) (Trace.events sink)

(* Chrome's flame view needs spans on one lane to be properly nested:
   any two either disjoint in time or one containing the other. *)
let well_nested spans =
  List.for_all
    (fun a ->
      List.for_all
        (fun b ->
          a == b
          || a.Trace.ev_tid <> b.Trace.ev_tid
          ||
          let a0 = a.Trace.ev_ts_us and b0 = b.Trace.ev_ts_us in
          let a1 = a0 +. a.Trace.ev_dur_us and b1 = b0 +. b.Trace.ev_dur_us in
          a1 <= b0 || b1 <= a0
          || (a0 <= b0 && b1 <= a1)
          || (b0 <= a0 && a1 <= b1))
        spans)
    spans

let test_noop_sink_records_nothing () =
  Alcotest.(check bool) "noop disabled" false
    (Trace.set_sink Trace.noop;
     Trace.enabled ());
  Trace.with_span "ignored" (fun () -> ());
  Trace.instant "ignored too";
  Alcotest.(check int) "no events" 0 (List.length (Trace.events Trace.noop))

let test_spans_nest_and_raise_safely () =
  with_memory_sink (fun sink ->
      Alcotest.(check bool) "memory sink enabled" true (Trace.enabled ());
      Trace.with_span "outer" (fun () ->
          Trace.with_span "inner" (fun () -> ignore (Sys.opaque_identity 0));
          Trace.instant ~cat:"mark" "tick");
      Alcotest.check_raises "exception escapes the span" (Failure "boom")
        (fun () -> Trace.with_span "broken" (fun () -> failwith "boom"));
      let spans = complete_spans sink in
      Alcotest.(check (list string))
        "all spans recorded, timestamp order"
        [ "inner"; "outer"; "broken" ]
        (List.map (fun e -> e.Trace.ev_name)
           (List.sort
              (fun a b ->
                let ea = a.Trace.ev_ts_us +. a.Trace.ev_dur_us
                and eb = b.Trace.ev_ts_us +. b.Trace.ev_dur_us in
                match compare ea eb with
                | 0 ->
                    (* close times tied on a coarse clock: of two spans
                       ending together the one that opened later is the
                       inner one and must have closed first *)
                    compare b.Trace.ev_ts_us a.Trace.ev_ts_us
                | c -> c)
              spans));
      let find n = List.find (fun e -> e.Trace.ev_name = n) spans in
      let outer = find "outer" and inner = find "inner" in
      Alcotest.(check bool) "inner starts inside outer" true
        (inner.Trace.ev_ts_us >= outer.Trace.ev_ts_us);
      Alcotest.(check bool) "inner ends inside outer" true
        (inner.Trace.ev_ts_us +. inner.Trace.ev_dur_us
        <= outer.Trace.ev_ts_us +. outer.Trace.ev_dur_us);
      Alcotest.(check bool) "well nested" true (well_nested spans))

let test_chrome_json_well_formed () =
  with_memory_sink (fun sink ->
      Trace.with_span ~cat:"kernel" ~args:[ ("layout", "csr") ] "k" (fun () ->
          ());
      Trace.instant "mark";
      Trace.emit ~cat:"hybrid" ~tid:2 ~ts_us:10. ~dur_us:5. "lane";
      let doc = Jsonv.of_string (Trace.to_chrome_json sink) in
      let events =
        match Jsonv.member "traceEvents" doc with
        | Some (Jsonv.Arr evs) -> evs
        | _ -> Alcotest.fail "traceEvents array missing"
      in
      Alcotest.(check int) "all events exported" 3 (List.length events);
      List.iter
        (fun ev ->
          let get k =
            match Jsonv.member k ev with
            | Some v -> v
            | None -> Alcotest.fail ("event missing field " ^ k)
          in
          let ph = Jsonv.to_str (get "ph") in
          Alcotest.(check bool) "ph is X or i" true (ph = "X" || ph = "i");
          ignore (Jsonv.to_str (get "name"));
          ignore (Jsonv.to_float (get "ts"));
          ignore (Jsonv.to_int (get "pid"));
          ignore (Jsonv.to_int (get "tid"));
          if ph = "X" then ignore (Jsonv.to_float (get "dur")))
        events;
      (* Simulated lane events keep their explicit coordinates. *)
      let lane =
        List.find
          (fun ev -> Jsonv.member "name" ev = Some (Jsonv.Str "lane"))
          events
      in
      Alcotest.(check (option int)) "explicit tid" (Some 2)
        (Option.map Jsonv.to_int (Jsonv.member "tid" lane)))

let test_observed_step_trace () =
  (* One RK-4 step under the observed engine: every kernel shows up,
     compute_tend exactly four times (the four substeps), and the spans
     nest per lane. *)
  with_memory_sink (fun sink ->
      let m = Lazy.force ico in
      let registry = Metrics.create () in
      let model =
        Model.init ~engine:(Timestep.observed ~registry Timestep.refactored)
          Williamson.Tc5 m
      in
      Model.run model ~steps:1;
      let spans = complete_spans sink in
      let kernel_spans =
        List.filter (fun e -> e.Trace.ev_cat = "kernel") spans
      in
      let count name =
        List.length
          (List.filter (fun e -> e.Trace.ev_name = name) kernel_spans)
      in
      Alcotest.(check int) "four compute_tend substeps" 4
        (count "compute_tend");
      Alcotest.(check bool) "diagnostics kernel present" true
        (count "compute_solve_diagnostics" > 0);
      List.iter
        (fun e ->
          Alcotest.(check (option string))
            (e.Trace.ev_name ^ " span carries the csr layout")
            (Some "csr")
            (List.assoc_opt "layout" e.Trace.ev_args))
        kernel_spans;
      Alcotest.(check bool) "kernel spans well nested" true
        (well_nested spans);
      (* The same run filled the isolated registry's timers. *)
      match
        Metrics.find_timer (Metrics.snapshot registry)
          "swe.kernel.compute_tend"
      with
      | None -> Alcotest.fail "compute_tend timer missing"
      | Some s -> Alcotest.(check int) "timer agrees" 4 s.Metrics.t_count);
  (* The scatter engine's spans name its form. *)
  with_memory_sink (fun sink ->
      let m = Lazy.force ico in
      let model =
        Model.init
          ~engine:
            (Timestep.observed ~registry:(Metrics.create ()) Timestep.original)
          Williamson.Tc5 m
      in
      Model.run model ~steps:1;
      let kernel_spans =
        List.filter (fun e -> e.Trace.ev_cat = "kernel") (complete_spans sink)
      in
      Alcotest.(check bool) "scatter run traced" true (kernel_spans <> []);
      List.iter
        (fun e ->
          Alcotest.(check (option string))
            (e.Trace.ev_name ^ " span carries the scatter layout")
            (Some "scatter")
            (List.assoc_opt "layout" e.Trace.ev_args))
        kernel_spans)

(* --- no-op-sink overhead -------------------------------------------------- *)

let test_noop_observation_overhead_small () =
  (* Acceptance budget: with the no-op sink, the observed engine must
     stay within 10% of the plain engine.  The intrinsic overhead is
     well under 2%, but a 1.6 ms step timed on a shared oversubscribed
     core carries a ±6% noise floor even under min-of-41 filtering, so
     the assertion budgets for the noise, not the probe.  The two
     engines' runs are interleaved (plain, observed, plain, ...) and
     min-of-N filtered, so load drift lands on both sides instead of
     on whichever engine happened to run during a spike; a small
     absolute epsilon keeps sub-millisecond timings from flaking. *)
  Trace.set_sink Trace.noop;
  let m = Lazy.force ico in
  let model_of engine = Model.init ~engine Williamson.Tc5 m in
  let plain_model = model_of Timestep.refactored in
  let observed_model =
    model_of
      (Timestep.observed ~registry:(Metrics.create ()) Timestep.refactored)
  in
  let time model =
    let t0 = Unix.gettimeofday () in
    Model.run model ~steps:2;
    Unix.gettimeofday () -. t0
  in
  let plain = ref infinity and observed = ref infinity in
  for _ = 1 to 15 do
    plain := Float.min !plain (time plain_model);
    observed := Float.min !observed (time observed_model)
  done;
  let plain = !plain and observed = !observed in
  Alcotest.(check bool)
    (Printf.sprintf "observed %.3f ms within 10%% of plain %.3f ms"
       (1e3 *. observed) (1e3 *. plain))
    true
    (observed <= (plain *. 1.10) +. 1e-4)

(* --- measured-vs-roofline report ------------------------------------------ *)

let stats = Mpas_patterns.Cost.stats_of_level 5

let test_report_rows () =
  let r =
    Mpas_obs_report.Report.make ~stats ~steps:2 [ ("compute_tend", 2.0) ]
  in
  Alcotest.(check int) "one row per kernel" 6 (List.length r.rows);
  let row name =
    List.find (fun (x : Mpas_obs_report.Report.row) -> x.kernel = name) r.rows
  in
  let tend = row "compute_tend" in
  Alcotest.(check (float 1e-12)) "per-step measured" 1.0 tend.measured_s;
  Alcotest.(check bool) "model predicts non-zero time" true
    (tend.modelled_s > 0.);
  Alcotest.(check (float 1e-9)) "ratio is measured over modelled"
    (1.0 /. tend.modelled_s) tend.ratio;
  let bdry = row "enforce_boundary_edge" in
  Alcotest.(check (float 0.)) "unmeasured kernel reports zero" 0.
    bdry.measured_s;
  Alcotest.(check (float 1e-12)) "measured total" 1.0
    (Mpas_obs_report.Report.measured_total r);
  Alcotest.(check bool) "every row has a ratio" true
    (List.for_all
       (fun (x : Mpas_obs_report.Report.row) ->
         Float.is_nan x.ratio || Float.is_finite x.ratio)
       r.rows)

let test_report_rejects_bad_steps () =
  Alcotest.(check bool) "steps < 1 rejected" true
    (match Mpas_obs_report.Report.make ~stats ~steps:0 [] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_report_json_roundtrip () =
  let r =
    Mpas_obs_report.Report.make ~stats ~steps:3
      [ ("compute_tend", 1.5); ("mpas_reconstruct", 0.25) ]
  in
  let r' =
    Mpas_obs_report.Report.of_json
      (Jsonv.of_string
         (Jsonv.to_string (Mpas_obs_report.Report.to_json r)))
  in
  let feq a b = a = b || (Float.is_nan a && Float.is_nan b) in
  Alcotest.(check string) "device survives" r.device r'.device;
  Alcotest.(check int) "steps survive" r.steps r'.steps;
  Alcotest.(check int) "row count survives" (List.length r.rows)
    (List.length r'.rows);
  List.iter2
    (fun (a : Mpas_obs_report.Report.row) (b : Mpas_obs_report.Report.row) ->
      Alcotest.(check string) "kernel" a.kernel b.kernel;
      Alcotest.(check int) "calls" a.calls_per_step b.calls_per_step;
      Alcotest.(check bool) "measured" true (feq a.measured_s b.measured_s);
      Alcotest.(check bool) "modelled" true (feq a.modelled_s b.modelled_s);
      Alcotest.(check bool) "ratio" true (feq a.ratio b.ratio))
    r.rows r'.rows

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter" `Quick test_counter_basics;
          Alcotest.test_case "gauge" `Quick test_gauge_basics;
          Alcotest.test_case "timer" `Quick test_timer_basics;
          Alcotest.test_case "timer records on raise" `Quick
            test_timer_time_records_on_raise;
          Alcotest.test_case "kind clash" `Quick test_kind_clash_rejected;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "sorted + lookup" `Quick
            test_snapshot_sorted_and_lookup;
          Alcotest.test_case "merge combines" `Quick test_merge_combines;
          Alcotest.test_case "labeled merge and grouping" `Quick
            test_labeled_merge_and_grouping;
          Alcotest.test_case "merge kind mismatch" `Quick
            test_merge_kind_mismatch_rejected;
          Alcotest.test_case "snapshot JSON" `Quick test_snapshot_json_parses;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "exact concurrent counts" `Quick
            test_concurrent_increments_exact;
          Alcotest.test_case "pool counters" `Quick
            test_pool_publishes_counters;
        ] );
      ( "trace",
        [
          Alcotest.test_case "noop sink" `Quick test_noop_sink_records_nothing;
          Alcotest.test_case "span nesting" `Quick
            test_spans_nest_and_raise_safely;
          Alcotest.test_case "chrome JSON" `Quick test_chrome_json_well_formed;
          Alcotest.test_case "observed model step" `Quick
            test_observed_step_trace;
          Alcotest.test_case "noop overhead small" `Quick
            test_noop_observation_overhead_small;
        ] );
      ( "report",
        [
          Alcotest.test_case "rows" `Quick test_report_rows;
          Alcotest.test_case "bad steps" `Quick test_report_rejects_bad_steps;
          Alcotest.test_case "json roundtrip" `Quick
            test_report_json_roundtrip;
        ] );
    ]
