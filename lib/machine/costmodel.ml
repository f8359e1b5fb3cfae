open Mpas_patterns

type flags = {
  multithread : bool;
  refactored : bool;
  simd : bool;
  streaming : bool;
  others : bool;
}

let baseline =
  { multithread = false; refactored = false; simd = false; streaming = false;
    others = false }

let fully_optimized =
  { multithread = true; refactored = true; simd = true; streaming = true;
    others = true }

let fig6_ladder =
  [
    ("Baseline", baseline);
    ("OpenMP", { baseline with multithread = true });
    ("Refactoring", { baseline with multithread = true; refactored = true });
    ( "SIMD",
      { baseline with multithread = true; refactored = true; simd = true } );
    ( "Streaming",
      { multithread = true; refactored = true; simd = true; streaming = true;
        others = false } );
    ("Others", fully_optimized);
  ]

type params = {
  scatter_speedup_cap : float;
  simd_eff_irregular : float;
  stream_bw_boost : float;
  others_bw_boost : float;
  region_overhead_s : float;
  flop_eff : float;
  gather_amplification : float;
}

let default_params =
  {
    scatter_speedup_cap = 6.;
    simd_eff_irregular = 0.40;
    stream_bw_boost = 1.13;
    others_bw_boost = 1.15;
    region_overhead_s = 8e-6;
    flop_eff = 0.075;
    gather_amplification = 3.75;
  }

let instance_time (d : Hw.device) p flags ~irregular ?(stencil = true)
    (w : Cost.work) =
  let threads = float_of_int (Hw.threads d) in
  let eff_threads =
    if not flags.multithread then 1.
    else begin
      let scaled = d.thread_efficiency *. threads in
      if irregular && not flags.refactored then
        Float.min scaled p.scatter_speedup_cap
      else scaled
    end
  in
  (* Flop rate: scalar lane count 1; SIMD uses a fraction of the lanes
     because of indexed gathers. *)
  let lanes =
    if flags.simd then Float.max 1. (float_of_int d.simd_width_dp *. p.simd_eff_irregular)
    else 1. /. d.scalar_penalty
  in
  let core_scalar = Hw.scalar_core_gflops d *. 1e9 in
  (* A lone thread still occupies a full core; beyond that, cores fill
     at threads_per_core threads each. *)
  let cores_used =
    Float.max 1.
      (Float.min (float_of_int d.cores)
         (eff_threads /. float_of_int d.threads_per_core))
  in
  let flop_rate = core_scalar *. lanes *. cores_used *. p.flop_eff in
  (* Memory rate: bandwidth saturates with thread count; stencil loops
     pay an amplification factor for their cache-unfriendly indexed
     gathers. *)
  let bw_frac = Float.min 1. (eff_threads /. d.bw_saturation_threads) in
  let bw_boost =
    (if flags.streaming then p.stream_bw_boost else 1.)
    *. if flags.others then p.others_bw_boost else 1.
  in
  let mem_rate = d.mem_bw_gbs *. 1e9 *. bw_frac *. bw_boost in
  let bytes =
    if stencil then w.Cost.bytes *. p.gather_amplification else w.Cost.bytes
  in
  let t_compute = w.Cost.flops /. flop_rate in
  let t_mem = bytes /. mem_rate in
  let overhead = if flags.multithread then p.region_overhead_s else 0. in
  Float.max t_compute t_mem +. overhead

let instance_time_by_id d p flags stats id =
  let inst = Registry.instance id in
  let stencil =
    match inst.Pattern.kind with Pattern.Stencil _ -> true | Pattern.Local -> false
  in
  instance_time d p flags ~irregular:inst.Pattern.irregular ~stencil
    (Cost.instance_work stats id)

let kernel_time d p flags stats kernel =
  let calls = float_of_int (Cost.kernel_calls_per_step kernel) in
  let one_call =
    List.fold_left
      (fun t (inst : Pattern.instance) ->
        t +. instance_time_by_id d p flags stats inst.Pattern.id)
      0.
      (Registry.of_kernel kernel)
  in
  (* Loop fusion ("others") collapses the per-instance regions into
     one region per legally fusable chain (Mpas_dataflow.Fusion). *)
  let fused_saving =
    if flags.others && flags.multithread then
      let instances = List.length (Registry.of_kernel kernel) in
      let chains = List.length (Mpas_dataflow.Fusion.chains kernel) in
      p.region_overhead_s *. float_of_int (instances - chains)
    else 0.
  in
  calls *. Float.max 0. (one_call -. fused_saving)

let step_time_single_device d p flags stats =
  List.fold_left
    (fun acc kernel -> acc +. kernel_time d p flags stats kernel)
    0. Pattern.all_kernels
