(* Measurement helpers shared by the workloads: sample buffers, the
   in-memory span recorder with its self-time analysis, the
   [Exec.set_sanitizer] phase/task monitor, the STREAM-style triad and
   the provenance block. *)

open Mpas_obs

let now = Trace.now

(* --- samples -------------------------------------------------------------- *)

(* Growable sample buffer. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 64 0.; len = 0 }

let push s x =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let to_array s = Array.sub s.data 0 s.len

(* [time f] is [f ()] and its wall time in seconds. *)
let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* --- bit-identity and conservation checks ------------------------------ *)

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let same_state (a : Mpas_swe.Fields.state) (b : Mpas_swe.Fields.state) =
  bits_equal a.Mpas_swe.Fields.h b.Mpas_swe.Fields.h
  && bits_equal a.Mpas_swe.Fields.u b.Mpas_swe.Fields.u

let max_mass_drift = 1e-12

(* Relative mass drift of [final] against [initial]; NaN fails the
   comparison, so a blown-up state never passes. *)
let mass_conserved ?(config = Mpas_swe.Config.default) mesh ~b ~initial final =
  let m s = (Mpas_swe.Conservation.measure config mesh ~b s).Mpas_swe.Conservation.mass in
  let d = Mpas_numerics.Stats.rel_diff (m initial) (m final) in
  d <= max_mass_drift

(* --- spans and self time ------------------------------------------------ *)

(* Every span the benchmark records carries this category, so the
   analysis ignores the spans the library emits on its own. *)
let cat = "bench"

let span name f = Trace.with_span ~cat name f

type span_stats = { count : int; total_us : float; self_us : float }

(* Per span name: count, summed duration, and summed self time (the
   duration minus the part covered by directly nested spans).  The
   benchmark runs on one domain, so spans nest by time. *)
let self_times sink =
  let evs =
    Trace.events sink
    |> List.filter (fun (e : Trace.event) -> e.ev_cat = cat && e.ev_ph = `Complete)
    |> List.sort (fun (a : Trace.event) (b : Trace.event) ->
           match Float.compare a.ev_ts_us b.ev_ts_us with
           | 0 -> Float.compare b.ev_dur_us a.ev_dur_us
           | c -> c)
  in
  let tbl = Hashtbl.create 64 in
  let close (e : Trace.event) child =
    let prev =
      Option.value (Hashtbl.find_opt tbl e.ev_name)
        ~default:{ count = 0; total_us = 0.; self_us = 0. }
    in
    Hashtbl.replace tbl e.ev_name
      {
        count = prev.count + 1;
        total_us = prev.total_us +. e.ev_dur_us;
        self_us = prev.self_us +. Float.max 0. (e.ev_dur_us -. child);
      }
  in
  let tolerance_us = 1e-3 in
  let rec unwind ts = function
    | ((e : Trace.event), child) :: rest
      when e.ev_ts_us +. e.ev_dur_us <= ts +. tolerance_us ->
        close e child;
        unwind ts rest
    | stack -> stack
  in
  let stack =
    List.fold_left
      (fun stack (e : Trace.event) ->
        let stack =
          match unwind e.ev_ts_us stack with
          | (p, child) :: rest -> (p, child +. e.ev_dur_us) :: rest
          | [] -> []
        in
        (e, 0.) :: stack)
      [] evs
  in
  List.iter (fun (e, child) -> close e child) stack;
  fun name ->
    Option.value (Hashtbl.find_opt tbl name)
      ~default:{ count = 0; total_us = 0.; self_us = 0. }

(* Names of every recorded benchmark span with the given prefix. *)
let span_names sink prefix =
  Trace.events sink
  |> List.filter_map (fun (e : Trace.event) ->
         if e.ev_cat = cat && String.starts_with ~prefix e.ev_name then Some e.ev_name
         else None)
  |> List.sort_uniq String.compare

(* --- runtime monitor ---------------------------------------------------- *)

(* An [Exec] sanitizer that records one span per phase run
   ([phase.early] / [phase.final]) and one per task
   ([task.<instance>]).  [name_of phase task] names a task; tasks the
   caller cannot name are recorded as [task.other]. *)
let install_monitor ?(name_of = fun _ _ -> "other") () =
  let phase_t0 = ref 0. and phase = ref `Early in
  let task_t0 = ref [||] in
  Mpas_runtime.Exec.set_sanitizer
    (Some
       {
         Mpas_runtime.Exec.san_phase_begin =
           (fun ~phase:p ~substep:_ ~n_tasks ->
             phase := p;
             if Array.length !task_t0 < n_tasks then task_t0 := Array.make n_tasks 0.;
             phase_t0 := now ());
         san_task_begin = (fun ~task ~lane:_ -> !task_t0.(task) <- now ());
         san_task_end =
           (fun ~task ~lane:_ ->
             Trace.complete ~cat ~t0:!task_t0.(task) ("task." ^ name_of !phase task));
         san_phase_end =
           (fun () ->
             Trace.complete ~cat ~t0:!phase_t0
               (match !phase with `Early -> "phase.early" | `Final -> "phase.final"));
       })

let remove_monitor () = Mpas_runtime.Exec.set_sanitizer None

(* Names a task of an ensemble batch program by the kernel instance it
   runs, whatever its member block. *)
let ensemble_task_names (sp : Mpas_runtime.Spec.t) phase task =
  let ph = match phase with `Early -> sp.Mpas_runtime.Spec.early | `Final -> sp.final in
  let tk = ph.Mpas_runtime.Spec.tasks.(task) in
  tk.Mpas_runtime.Spec.instance.Mpas_patterns.Pattern.id

(* Runtime metrics of a traced window of [steps] model steps: [tasks]
   are the names of every task span recorded, [instances] the task
   names reported one by one. *)
let runtime_metrics st ~tasks ~instances ~steps =
  let per_step x = x /. float_of_int (max 1 steps) in
  let ms us = us /. 1000. in
  let early = st "phase.early" and final = st "phase.final" in
  let n_tasks = List.fold_left (fun n name -> n + (st name).count) 0 tasks in
  [
    ("runtime.phases_per_step", per_step (float_of_int (early.count + final.count)));
    ("runtime.tasks_per_step", per_step (float_of_int n_tasks));
    ("runtime.phase_ms_per_step", per_step (ms (early.total_us +. final.total_us)));
    ("runtime.sched_ms_per_step", per_step (ms (early.self_us +. final.self_us)));
  ]
  @ List.map
      (fun i -> ("runtime.task_ms." ^ i, per_step (ms (st ("task." ^ i)).total_us)))
      instances

(* --- machine probes ----------------------------------------------------- *)

let read_lines path =
  match open_in path with
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec go acc =
            match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc
          in
          go [])
  | exception Sys_error _ -> []

(* Peak resident set ([VmHWM]) in MB; it counts the Bigarray slabs the
   GC statistics miss. *)
let peak_rss_mb () =
  read_lines "/proc/self/status"
  |> List.find_map (fun l ->
         match String.split_on_char ':' l with
         | [ "VmHWM"; v ] -> Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.)
         | _ -> None)
  |> Option.value ~default:nan

(* Size in bytes of the level-[level] data cache of CPU 0, if sysfs
   reports it. *)
let cache_bytes level =
  let dir = "/sys/devices/system/cpu/cpu0/cache" in
  List.init 8 (fun i -> Printf.sprintf "%s/index%d" dir i)
  |> List.find_map (fun d ->
         match (read_lines (d ^ "/level"), read_lines (d ^ "/size"), read_lines (d ^ "/type")) with
         | [ l ], [ s ], [ ty ] when int_of_string_opt l = Some level && ty <> "Instruction" ->
             Scanf.sscanf_opt s "%dK" (fun k -> k * 1024)
         | _ -> None)

let default_l3_bytes = 32 * 1024 * 1024

(* STREAM triad [a = b + s c] over three float64 arrays each four times
   the last-level cache; best of five sweeps, counting 24 bytes per
   element (two reads, one write).  Returns GB/s and the array bytes. *)
let triad () =
  let array_bytes = 4 * Option.value (cache_bytes 3) ~default:default_l3_bytes in
  let n = array_bytes / 8 in
  let open Bigarray in
  let mk v =
    let a = Array1.create float64 c_layout n in
    Array1.fill a v;
    a
  in
  let a = mk 0. and b = mk 1. and c = mk 2. in
  let s = 3. in
  let best = ref infinity in
  for _ = 1 to 5 do
    let t0 = now () in
    for i = 0 to n - 1 do
      Array1.unsafe_set a i (Array1.unsafe_get b i +. (s *. Array1.unsafe_get c i))
    done;
    best := Float.min !best (now () -. t0)
  done;
  if Array1.get a (n - 1) <> 7. then failwith "triad: wrong result";
  (24. *. float_of_int n /. !best /. 1e9, array_bytes)

(* --- provenance --------------------------------------------------------- *)

let git_commit () =
  match read_lines ".git/HEAD" with
  | [ head ] -> (
      match String.split_on_char ' ' head with
      | [ "ref:"; r ] -> (
          match read_lines (".git/" ^ r) with [ c ] -> c | _ -> "unknown")
      | _ -> head)
  | _ -> "unknown"

(* Digest of the library sources, which identifies the code measured
   when the checkout carries no git metadata. *)
let source_digest root =
  let rec files dir =
    match Sys.readdir dir with
    | entries ->
        Array.sort String.compare entries;
        Array.to_list entries
        |> List.concat_map (fun e ->
               let p = Filename.concat dir e in
               if Sys.is_directory p then files p
               else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" then [ p ]
               else [])
    | exception Sys_error _ -> []
  in
  match files root with
  | [] -> "unknown"
  | fs -> Digest.to_hex (Digest.string (String.concat "" (List.map Digest.file fs)))

let provenance ~seed ~trace =
  let opt = function Some b -> Jsonv.Num (float_of_int b) | None -> Jsonv.Null in
  [
    ("nproc", Jsonv.Num (float_of_int (Domain.recommended_domain_count ())));
    ("ocaml", Jsonv.Str Sys.ocaml_version);
    ("flambda", Jsonv.Bool Build_info.flambda);
    ("commit", Jsonv.Str (git_commit ()));
    ("source_digest", Jsonv.Str (source_digest "lib"));
    ("seed", Jsonv.Num (float_of_int seed));
    ("trace", Jsonv.Bool trace);
    ("exec_mode", Jsonv.Str "sequential");
    ("clock", Jsonv.Str "Unix.gettimeofday");
    ("l2_bytes", opt (cache_bytes 2));
    ("l3_bytes", opt (cache_bytes 3));
  ]

(* Heap bytes reachable from [v]; Bigarray payloads are not counted. *)
let heap_bytes v = Obj.reachable_words (Obj.repr v) * (Sys.word_size / 8)
