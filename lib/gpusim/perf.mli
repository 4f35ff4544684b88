(** First-order GPU kernel performance model. Kernel time = launch overhead
    + max of three roofline terms - double-precision FMA throughput, warp
    instruction issue, and DRAM+L2 traffic (with coalescing from
    {!Coalesce} and footprint-based cache discounts) - scaled by
    occupancy-dependent latency hiding and grid utilization. Deterministic;
    run-to-run noise is added at the {!Gpu} level. *)

type memory_class =
  | Dram_raw  (** every transaction reaches DRAM *)
  | L1_resident  (** per-block footprint fits the L1/read-only path *)
  | L2_shared  (** within-block reuse largely served by L2 *)

type ref_report = {
  analysis : Coalesce.ref_analysis;
  dram_bytes : float;
  l2_bytes : float;
  memory_class : memory_class;
}

type kernel_report = {
  kernel_name : string;
  flops : int;
  t_dp : float;
  t_issue : float;
  t_mem : float;
  t_launch : float;
  time_s : float;
  dram_bytes : float;
  l2_bytes : float;
  occupancy : Occupancy.t;
  grid_utilization : float;
  bound : string;  (** "dp", "issue", "memory" or "launch" *)
  refs : ref_report list;
}

(** Noise-free analytic time of a report: [t_launch + max(t_dp, t_issue,
    t_mem)]. Equals [time_s] for a report from {!analyze_kernel}; differs
    from the same kernel's report in {!Gpu.measure}'s result exactly by
    the modeled codegen noise. *)
val model_time : kernel_report -> float

val analyze_kernel : Arch.t -> Codegen.Kernel.t -> kernel_report
