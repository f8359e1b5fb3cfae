(* Every metric the benchmark reports, with its unit.  BENCHMARK.json
   lists the same names; the tests hold the two together. *)

type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better }

let m ?(better = Lower) name unit_ = { name; unit_; better }

(* End to end, measured with tracing off.  Every workload reports each
   one: the non-served workloads are a closed loop of one client whose
   jobs are fixed-length forecasts, so a job's latency is its wall time
   and the saturation rate is jobs completed per second. *)
let end_to_end =
  [
    m "setup_s" "s";
    m "member_step_ms" "ms";
    m "job_latency_ms_p50" "ms";
    m ~better:Higher "saturation_jobs_per_s" "jobs/s";
    m ~better:Higher "ok_frac" "ratio";
    m "peak_rss_mb" "MB";
  ]

(* The instances of the ensemble batch programs, one runtime task
   metric each. *)
let ensemble_instances =
  [
    "ens.tend_h"; "ens.tend_u"; "ens.dissipation"; "ens.local_forcing"; "ens.boundary";
    "ens.next_substep"; "ens.d2fdx2"; "ens.h_edge"; "ens.kinetic_energy";
    "ens.divergence"; "ens.vorticity"; "ens.h_vertex"; "ens.pv_vertex"; "ens.pv_cell";
    "ens.tangential_velocity"; "ens.grad_pv"; "ens.pv_edge"; "ens.accumulate";
    "ens.publish";
  ]

let kernels = List.map Mpas_swe.Timestep.kernel_name Mpas_swe.Timestep.all_kernels

(* Per layer, from the traced run.  A workload that does not run a
   layer reports 0 for it.  The job-latency p90 is kept here as a
   diagnostic: on a shared host it moved by a quarter to a third
   between runs while the medians held within a sixth. *)
let per_layer =
  [ m "mesh.build_s" "s"; m "job.latency_ms_p90" "ms" ]
  @ List.concat_map
      (fun k ->
        [
          m ("swe.kernel." ^ k ^ ".ms_per_step") "ms";
          m ~better:Higher ("swe.kernel." ^ k ^ ".gbs_computed") "GB/s";
        ])
      kernels
  @ [
      m ~better:Higher "swe.step.flops_per_byte" "flop/B";
      m ~better:Higher "swe.step.bw_frac" "ratio";
      m "model.step_ms_p90" "ms";
      m "model.driver_self_ms_per_step" "ms";
      m "runtime.phases_per_step" "count";
      m "runtime.tasks_per_step" "count";
      m "runtime.phase_ms_per_step" "ms";
      m "runtime.sched_ms_per_step" "ms";
    ]
  @ List.map (fun i -> m ("runtime.task_ms." ^ i) "ms") ensemble_instances
  @ [
      m "ensemble.step_ms_p50" "ms";
      m "ensemble.self_ms_per_step" "ms";
      m ~better:Higher "ensemble.panel_fill" "ratio";
      m "ensemble.submit_ms" "ms";
      m "server.tick_ms_p50" "ms";
      m "server.tick_ms_p90" "ms";
      m "server.tick_self_ms" "ms";
      m "server.submit_us_p50" "us";
      m "server.queue_depth_p90" "count";
      m "server.running_mean" "count";
      m ~better:Higher "server.useful_step_frac" "ratio";
      m "server.checkpoints_per_tick" "count";
      m "server.checkpoint_kb_per_tick" "KB";
      m "server.restores" "count";
      m "server.rejects" "count";
      m "server.generator_lag_ms_p90" "ms";
      m "snapshot.encode_ms" "ms";
      m "snapshot.decode_ms" "ms";
      m "dist.partition_s" "s";
      m "dist.halo.exchanges_per_step" "count";
      m "dist.halo.bytes_per_step" "B";
      m "dist.exchange_us" "us";
      m "dist.compute_ms_per_step" "ms";
      m "trace.overhead_frac" "ratio";
      m ~better:Higher "machine.triad_gbs" "GB/s";
    ]

let find name =
  List.find_opt (fun x -> x.name = name) (end_to_end @ per_layer)
