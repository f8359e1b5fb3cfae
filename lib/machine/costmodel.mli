open Mpas_patterns

(** Roofline-style execution-time model for pattern instances under the
    paper's optimization flags (§IV).

    Time for a loop of work [w] on device [d]:
    {v
    t = max(flops / flop_rate, bytes / mem_rate) + region_overhead
    v}
    where both rates depend on the enabled optimizations:
    - {b multithread} scales the rates by the effective parallel
      speedup; without it a single thread only reaches a fraction of
      the device bandwidth ([mem_bw / bw_saturation_threads]);
    - {b refactored}: without it, irregular-reduction loops synchronize
      their scatter updates and their parallel speedup is capped
      ([scatter_speedup_cap]) — the paper's "<20x without
      refactoring";
    - {b simd}: multiplies the flop rate by the SIMD width times
      [simd_eff_irregular] (gather-dominated loops only use a fraction
      of the lanes); scalar code uses one lane;
    - {b streaming} stores avoid write-allocate traffic, boosting the
      effective bandwidth ([stream_bw_boost]);
    - {b others} (prefetch, 2 MB pages, loop fusion) adds a further
      bandwidth factor and removes the per-instance parallel-region
      overhead in favour of one per kernel. *)

type flags = {
  multithread : bool;
  refactored : bool;
  simd : bool;
  streaming : bool;
  others : bool;
}

val baseline : flags
val fully_optimized : flags

(** The cumulative stages of Figure 6, in order:
    Baseline, OpenMP, Refactoring, SIMD, Streaming, Others. *)
val fig6_ladder : (string * flags) list

type params = {
  scatter_speedup_cap : float;
      (** speedup ceiling of multithreaded un-refactored reductions *)
  simd_eff_irregular : float;
      (** usable fraction of SIMD lanes in indexed-gather loops *)
  stream_bw_boost : float;
  others_bw_boost : float;
  region_overhead_s : float;  (** one parallel-region fork/join *)
  flop_eff : float;
      (** achievable fraction of peak flops in stencil code *)
  gather_amplification : float;
      (** memory-traffic multiplier of stencil loops: indexed gathers
          on an unstructured mesh re-fetch cache lines *)
}

(** Calibrated against the paper's Figure 6 anchor points; see
    [Calibration]. *)
val default_params : params

(** [instance_time d p flags ~irregular ~stencil w] — execution time of
    one loop with work [w].  [irregular] marks loops that are irregular
    reductions in the original code; [stencil] (default true) marks
    loops with indexed-gather traffic subject to
    [gather_amplification]. *)
val instance_time :
  Hw.device -> params -> flags -> irregular:bool -> ?stencil:bool ->
  Cost.work -> float

(** Time of a whole pattern-instance by id on the given mesh. *)
val instance_time_by_id :
  Hw.device -> params -> flags -> Cost.mesh_stats -> string -> float

(** Roofline time of all of one kernel's invocations in one RK-4 step
    on one device: per-instance times summed over the kernel's pattern
    instances, times Algorithm 1's calls per step, minus the fused
    parallel-region savings of the "others" stage.  The per-kernel
    rows of the measured-vs-modelled report ([Mpas_obs_report.Report])
    come from here. *)
val kernel_time :
  Hw.device -> params -> flags -> Cost.mesh_stats -> Pattern.kernel -> float

(** One full RK-4 step run entirely on one device (no hybrid overlap):
    sum of {!kernel_time} over the six kernels.  This is the quantity
    behind Figure 6. *)
val step_time_single_device :
  Hw.device -> params -> flags -> Cost.mesh_stats -> float
