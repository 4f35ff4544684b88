(* First-order GPU kernel performance model.

   Kernel time = launch overhead + max of three roofline terms:
   - t_dp:    double-precision FMA throughput
   - t_issue: warp instruction issue (loads, address arithmetic, branches)
   - t_mem:   DRAM + L2 traffic, with coalescing from [Coalesce] and
              footprint-based cache discounts

   all scaled by occupancy-dependent latency hiding and grid utilization.
   The model is deterministic; the small codegen/run-to-run noise the paper
   observes is added at the [Gpu] level from a structural hash. *)

type memory_class = Dram_raw | L1_resident | L2_shared

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
  bound : string;  (* "dp" | "issue" | "memory" | "launch" *)
  refs : ref_report list;
}

(* L2 serves traffic at this multiple of DRAM bandwidth. *)
let l2_bw_multiplier = 3.0

(* The noise-free analytic time of a report: launch overhead plus the
   binding roofline term. [analyze_kernel] sets [time_s] to exactly this;
   [Gpu.measure_kernel] then perturbs [time_s] only, so the difference is
   the modeled codegen/run-to-run noise (the profiler's divergence). *)
let model_time r = r.t_launch +. max r.t_dp (max r.t_issue r.t_mem)

(* Warps an SM must interleave to hide most latency. *)
let latency_warps_compute = 12.0
let latency_warps_memory = 24.0

let classify_ref (arch : Arch.t) (k : Codegen.Kernel.t) (occ : Occupancy.t)
    ~(is_output : bool) (a : Coalesce.ref_analysis) =
  let warps_per_block =
    (Codegen.Kernel.threads_per_block k + arch.warp_size - 1) / arch.warp_size
  in
  let blocks = Codegen.Kernel.num_blocks k in
  let accesses = if is_output then 2 else 1 in
  (* one warp instruction per warp per executed load *)
  let raw_per_block =
    float_of_int
      (warps_per_block * a.loads_per_thread * accesses)
    *. a.transactions_per_warp *. float_of_int Coalesce.segment_bytes
  in
  let fp = float_of_int a.footprint_per_block *. float_of_int accesses in
  (* factor loads are read-only: Fermi L1, Kepler's texture/read-only path
     and Maxwell's unified L1 all cache them; only the caching *capacity*
     path differs (flag kept for the emitted-code annotations) *)
  let read_cached = arch.l1_caches_global || true in
  let per_block, l2_per_block, memory_class =
    if is_output then (raw_per_block, 0.0, Dram_raw)
    else if read_cached && a.footprint_per_block <= arch.l1_bytes then
      (max fp (raw_per_block *. 0.002), 0.0, L1_resident)
    else begin
      (* L2 catches within-block reuse in proportion to how much of the
         concurrent working set it holds *)
      let concurrent_fp =
        float_of_int (occ.blocks_per_sm * arch.sm_count * a.footprint_per_block)
      in
      let hit = min 1.0 (float_of_int arch.l2_bytes /. max 1.0 concurrent_fp) in
      let reuse = max 0.0 (raw_per_block -. fp) in
      let dram = fp +. (reuse *. (1.0 -. hit)) in
      let cls = if hit > 0.5 then L2_shared else Dram_raw in
      (dram, reuse *. hit, cls)
    end
  in
  let total = per_block *. float_of_int blocks in
  let l2_extra = l2_per_block *. float_of_int blocks in
  (* a small, repeatedly-read tensor stays resident in L2 across blocks *)
  let dram, l2 =
    if (not is_output) && float_of_int a.tensor_bytes <= float_of_int arch.l2_bytes *. 0.25
    then
      let compulsory = float_of_int a.tensor_bytes in
      (min total compulsory, l2_extra +. (total -. min total compulsory))
    else (total, l2_extra)
  in
  { analysis = a; dram_bytes = dram; l2_bytes = l2; memory_class }

let analyze_kernel (arch : Arch.t) (k : Codegen.Kernel.t) =
  let occ = Occupancy.analyze arch k in
  let factor_reports =
    List.map (classify_ref arch k occ ~is_output:false) (Coalesce.analyze k)
  in
  let out_report = classify_ref arch k occ ~is_output:true (Coalesce.analyze_output k) in
  let refs = factor_reports @ [ out_report ] in
  let dram_bytes = List.fold_left (fun acc (r : ref_report) -> acc +. r.dram_bytes) 0.0 refs in
  let l2_bytes = List.fold_left (fun acc (r : ref_report) -> acc +. r.l2_bytes) 0.0 refs in
  let flops = Codegen.Kernel.flops k in
  (* grid utilization: wave quantization over concurrently resident blocks *)
  let blocks = Codegen.Kernel.num_blocks k in
  let concurrent = max 1 (occ.blocks_per_sm * arch.sm_count) in
  let waves = (blocks + concurrent - 1) / concurrent in
  let grid_utilization =
    float_of_int blocks /. float_of_int (waves * concurrent)
  in
  (* latency hiding from resident warps *)
  let warps = float_of_int occ.warps_per_sm in
  let hide_compute = min 1.0 (warps /. latency_warps_compute) in
  let hide_memory = min 1.0 (warps /. latency_warps_memory) in
  (* dp roofline *)
  let fmas = float_of_int flops /. 2.0 in
  let t_dp =
    fmas
    /. (float_of_int (arch.sm_count * arch.dp_lanes_per_sm)
        *. arch.clock_ghz *. 1e9 *. arch.issue_efficiency *. hide_compute
        *. grid_utilization)
  in
  (* instruction issue roofline *)
  let points =
    float_of_int (Codegen.Kernel.total_threads k * Codegen.Kernel.serial_iterations k)
  in
  let innermost_unroll =
    match List.rev k.thread_loops with
    | [] -> 1
    | l :: _ -> max 1 l.unroll
  in
  let insts_per_point =
    2.0
    +. float_of_int (List.length k.op.factors)
    +. (2.0 /. float_of_int innermost_unroll)
  in
  let warp_points = points /. float_of_int arch.warp_size in
  let t_issue =
    warp_points *. insts_per_point
    /. (Arch.issue_peak_ginst arch *. 1e9 *. arch.issue_efficiency *. hide_compute
        *. grid_utilization)
  in
  (* memory roofline *)
  let bw = arch.mem_bw_gbs *. 1e9 *. arch.bw_efficiency in
  let t_mem =
    ((dram_bytes /. bw) +. (l2_bytes /. (bw *. l2_bw_multiplier)))
    /. (hide_memory *. max grid_utilization (min 1.0 (float_of_int blocks /. float_of_int arch.sm_count)))
  in
  let t_launch = arch.kernel_launch_us *. 1e-6 in
  let body = max t_dp (max t_issue t_mem) in
  let bound =
    if t_launch > body then "launch"
    else if body = t_mem then "memory"
    else if body = t_dp then "dp"
    else "issue"
  in
  {
    kernel_name = k.name;
    flops;
    t_dp;
    t_issue;
    t_mem;
    t_launch;
    time_s = t_launch +. body;
    dram_bytes;
    l2_bytes;
    occupancy = occ;
    grid_utilization;
    bound;
    refs;
  }
