(* Tests for the GPU simulator: coalescing analysis, occupancy, the
   roofline performance model and the transfer model. *)

let check_int = Alcotest.(check int)

let arch = Gpusim.Arch.gtx980

(* Helper: lower a simple matmul-like op with a chosen decomposition. *)
let kernel_for ?(n = 32) ~tx ~ty ~bx ?by ?(unrolls = []) () =
  let src = Printf.sprintf "dims: i=%d j=%d k=%d\nC[i j] = Sum([k], A[i k] * B[k j])" n n n in
  let set = match Octopi.Variants.of_string src with [ s ] -> s | _ -> assert false in
  let ir = Tcr.Ir.of_variant ~label:"mm" set.contraction (List.hd set.variants) in
  let point = { Tcr.Space.decomp = { tx; ty; bx; by }; unrolls; red_order = [] } in
  (ir, Codegen.Kernel.lower ~name:"mm_GPU_1" ir (List.hd ir.ops) point)

(* ---------------- Arch ---------------- *)

let test_arch_lookup () =
  Alcotest.(check bool) "by codename" true (Gpusim.Arch.by_name "maxwell" <> None);
  Alcotest.(check bool) "by name" true (Gpusim.Arch.by_name "Tesla K20" <> None);
  Alcotest.(check bool) "unknown" true (Gpusim.Arch.by_name "voodoo" = None)

let test_arch_peaks () =
  (* GTX 980 DP peak: 16 SM x 4 lanes x 2 x 1.126 GHz = 144 GFlops *)
  Alcotest.(check (float 1.0)) "maxwell dp peak" 144.1
    (Gpusim.Arch.dp_peak_gflops Gpusim.Arch.gtx980);
  (* K20: 13 x 64 x 2 x 0.706 = 1174 GFlops *)
  Alcotest.(check (float 5.0)) "kepler dp peak" 1174.8
    (Gpusim.Arch.dp_peak_gflops Gpusim.Arch.k20)

(* ---------------- Coalesce ---------------- *)

let test_coalesce_unit_stride () =
  (* C(i,j) with tx = j: 32 consecutive doubles -> 2 x 128B transactions *)
  let _, k = kernel_for ~tx:"j" ~ty:None ~bx:"i" () in
  let out = Gpusim.Coalesce.analyze_output k (Codegen.Kernel.access k) in
  Alcotest.(check (float 0.01)) "2 transactions" 2.0 out.transactions_per_warp

let test_coalesce_strided () =
  (* C(i,j) with tx = i: stride-32 accesses -> one transaction per lane *)
  let _, k = kernel_for ~tx:"i" ~ty:None ~bx:"j" () in
  let out = Gpusim.Coalesce.analyze_output k (Codegen.Kernel.access k) in
  Alcotest.(check (float 0.01)) "32 transactions" 32.0 out.transactions_per_warp

let test_coalesce_broadcast () =
  (* B(k,j) with tx = i: address independent of the lane -> 1 transaction *)
  let _, k = kernel_for ~tx:"i" ~ty:None ~bx:"j" () in
  let b = List.nth (Gpusim.Coalesce.analyze k (Codegen.Kernel.access k)) 1 in
  Alcotest.(check string) "b ref" "B" b.name;
  Alcotest.(check (float 0.01)) "broadcast" 1.0 b.transactions_per_warp

let test_coalesce_partial_rows () =
  (* extent 12 rows: a 32-lane warp spans 2.67 rows of a (j,i)-indexed ref;
     with ty varying the row, transactions stay small when rows are
     contiguous in memory *)
  let src = "dims: i=12 j=12 k=12\nC[i j] = Sum([k], A[i k] * B[k j])" in
  let set = match Octopi.Variants.of_string src with [ s ] -> s | _ -> assert false in
  let ir = Tcr.Ir.of_variant ~label:"mm" set.contraction (List.hd set.variants) in
  let point = { Tcr.Space.decomp = { tx = "j"; ty = None; bx = "i"; by = None }; unrolls = []; red_order = [] } in
  let k = Codegen.Kernel.lower ~name:"mm" ir (List.hd ir.ops) point in
  let out = Gpusim.Coalesce.analyze_output k (Codegen.Kernel.access k) in
  (* 12 doubles = 96B row: one or two segments per warp-load of 12 lanes *)
  Alcotest.(check bool) "small transaction count" true (out.transactions_per_warp <= 2.0)

let test_loads_per_thread_hoisting () =
  (* A(i,k) load depends on serial loop k only; C out ref has no serial
     deps; B(k,j) depends on k too *)
  let _, k = kernel_for ~tx:"j" ~ty:None ~bx:"i" () in
  let refs = Gpusim.Coalesce.analyze k (Codegen.Kernel.access k) in
  let a = List.hd refs in
  check_int "A loaded per k iteration" 32 a.loads_per_thread;
  let out = Gpusim.Coalesce.analyze_output k (Codegen.Kernel.access k) in
  check_int "output accessed once" 1 out.loads_per_thread

let test_footprint () =
  let _, k = kernel_for ~tx:"j" ~ty:None ~bx:"i" () in
  let refs = Gpusim.Coalesce.analyze k (Codegen.Kernel.access k) in
  let a = List.hd refs in
  (* per block (fixed i): A(i, k) slice = 32 doubles *)
  check_int "A footprint" (32 * 8) a.footprint_per_block;
  let b = List.nth refs 1 in
  (* B(k,j): both vary within the block: 32 x 32 doubles *)
  check_int "B footprint" (32 * 32 * 8) b.footprint_per_block

(* ---------------- Occupancy ---------------- *)

let test_occupancy_bounds () =
  let _, k = kernel_for ~tx:"j" ~ty:None ~bx:"i" () in
  let occ = Gpusim.Occupancy.analyze arch k in
  Alcotest.(check bool) "occupancy in (0,1]" true (occ.occupancy > 0.0 && occ.occupancy <= 1.0);
  Alcotest.(check bool) "blocks positive" true (occ.blocks_per_sm >= 1)

let test_occupancy_register_pressure () =
  let _, k_low = kernel_for ~tx:"j" ~ty:None ~bx:"i" ~unrolls:[ ("k", 1) ] () in
  let _, k_high = kernel_for ~tx:"j" ~ty:None ~bx:"i" ~unrolls:[ ("k", 10) ] () in
  let r_low = (Gpusim.Occupancy.analyze arch k_low).regs_per_thread in
  let r_high = (Gpusim.Occupancy.analyze arch k_high).regs_per_thread in
  Alcotest.(check bool) "unroll raises register demand" true (r_high > r_low)

let test_occupancy_blocks_limited () =
  (* tiny blocks: the per-SM block cap binds *)
  let _, k = kernel_for ~n:8 ~tx:"j" ~ty:None ~bx:"i" () in
  let occ = Gpusim.Occupancy.analyze arch k in
  Alcotest.(check string) "limited by blocks" "blocks" occ.limited_by

(* ---------------- Perf model ---------------- *)

let test_perf_positive_times () =
  let _, k = kernel_for ~tx:"j" ~ty:None ~bx:"i" () in
  let r = Gpusim.Perf.analyze_kernel arch k in
  Alcotest.(check bool) "time > launch" true (r.time_s > 0.9 *. r.t_launch);
  Alcotest.(check bool) "bytes positive" true (r.dram_bytes > 0.0)

let test_perf_coalescing_matters () =
  (* same computation, coalesced vs strided output: strided must be slower *)
  let _, k_good = kernel_for ~n:128 ~tx:"j" ~ty:None ~bx:"i" () in
  let _, k_bad = kernel_for ~n:128 ~tx:"i" ~ty:None ~bx:"j" () in
  let t_good = (Gpusim.Perf.analyze_kernel arch k_good).time_s in
  let t_bad = (Gpusim.Perf.analyze_kernel arch k_bad).time_s in
  Alcotest.(check bool) "coalesced faster" true (t_good < t_bad)

let test_perf_unroll_helps_issue () =
  let _, k1 = kernel_for ~n:128 ~tx:"j" ~ty:None ~bx:"i" ~unrolls:[ ("k", 1) ] () in
  let _, k4 = kernel_for ~n:128 ~tx:"j" ~ty:None ~bx:"i" ~unrolls:[ ("k", 4) ] () in
  let r1 = Gpusim.Perf.analyze_kernel arch k1 in
  let r4 = Gpusim.Perf.analyze_kernel arch k4 in
  Alcotest.(check bool) "issue time shrinks" true (r4.t_issue < r1.t_issue)

let test_perf_small_grid_penalty () =
  (* a grid with fewer blocks than SMs cannot use the whole chip *)
  let _, k_small = kernel_for ~n:8 ~tx:"j" ~ty:None ~bx:"i" () in
  let r = Gpusim.Perf.analyze_kernel arch k_small in
  Alcotest.(check bool) "utilization < 1" true (r.grid_utilization < 1.0)

let test_perf_memory_classes () =
  let _, k = kernel_for ~n:32 ~tx:"j" ~ty:None ~bx:"i" () in
  let r = Gpusim.Perf.analyze_kernel arch k in
  List.iter
    (fun (rr : Gpusim.Perf.ref_report) ->
      if rr.analysis.name = "C" then
        Alcotest.(check bool) "output write-through" true (rr.memory_class = Gpusim.Perf.Dram_raw))
    r.refs

(* ---------------- Perf bound attribution ---------------- *)

(* Like [kernel_for] but with independent extents, for fixtures whose bound
   needs an asymmetric problem (deep reduction, wide output...). *)
let kernel_for_dims ~ni ~nj ~nk ~tx ~ty ~bx () =
  let src =
    Printf.sprintf "dims: i=%d j=%d k=%d\nC[i j] = Sum([k], A[i k] * B[k j])" ni nj nk
  in
  let set = match Octopi.Variants.of_string src with [ s ] -> s | _ -> assert false in
  let ir = Tcr.Ir.of_variant ~label:"mm" set.contraction (List.hd set.variants) in
  let point = { Tcr.Space.decomp = { tx; ty; bx; by = None }; unrolls = []; red_order = [] } in
  Codegen.Kernel.lower ~name:"mm_GPU_1" ir (List.hd ir.ops) point

(* The roofline attribution: [bound] must name the dominant term, and
   time_s must be exactly t_launch + max(t_dp, t_issue, t_mem) -
   analyze_kernel reports are noise-free, so the identity is exact. *)
let check_bound name arch k expect =
  let r = Gpusim.Perf.analyze_kernel arch k in
  Alcotest.(check string) (name ^ " bound") expect r.bound;
  let dominant =
    match expect with
    | "dp" -> r.t_dp
    | "issue" -> r.t_issue
    | "memory" -> r.t_mem
    | "launch" -> 0.0 (* launch-bound: launch exceeds every roofline term *)
    | _ -> assert false
  in
  List.iter
    (fun t -> Alcotest.(check bool) (name ^ " term dominated") true (t <= dominant +. 1e-15))
    (match expect with "launch" -> [] | _ -> [ r.t_dp; r.t_issue; r.t_mem ]);
  if expect = "launch" then
    Alcotest.(check bool) (name ^ " launch dominates") true
      (r.t_launch > r.t_dp && r.t_launch > r.t_issue && r.t_launch > r.t_mem);
  Alcotest.(check (float 1e-12)) (name ^ " time identity")
    (r.t_launch +. Float.max r.t_dp (Float.max r.t_issue r.t_mem))
    r.time_s;
  Alcotest.(check (float 1e-12)) (name ^ " model_time agrees")
    (Gpusim.Perf.model_time r) r.time_s

let test_perf_bound_dp () =
  (* 32^3 matmul on the GTX 980's 4 DP lanes/SM: flops dominate *)
  let _, k = kernel_for ~n:32 ~tx:"j" ~ty:None ~bx:"i" () in
  check_bound "dp fixture" Gpusim.Arch.gtx980 k "dp"

let test_perf_bound_launch () =
  (* 4^3 problem: the fixed kernel-launch cost towers over all work *)
  let _, k = kernel_for ~n:4 ~tx:"j" ~ty:None ~bx:"i" () in
  check_bound "launch fixture" Gpusim.Arch.gtx980 k "launch"

let test_perf_bound_memory () =
  (* 128^3 with fully strided output (tx = i): DRAM traffic dominates *)
  let _, k = kernel_for ~n:128 ~tx:"i" ~ty:None ~bx:"j" () in
  check_bound "memory fixture" Gpusim.Arch.gtx980 k "memory"

let test_perf_bound_issue () =
  (* K20 has 64 DP lanes/SM (dp is cheap) and a single 32x32 block (one
     SM busy): instruction issue is the bottleneck of the deep reduction *)
  let k = kernel_for_dims ~ni:32 ~nj:32 ~nk:128 ~tx:"j" ~ty:(Some "i") ~bx:"i" () in
  check_bound "issue fixture" Gpusim.Arch.k20 k "issue"

(* ---------------- Transfer + Gpu ---------------- *)

let ir_small () =
  let src = "dims: i=8 j=8 k=8\nC[i j] = Sum([k], A[i k] * B[k j])" in
  let set = match Octopi.Variants.of_string src with [ s ] -> s | _ -> assert false in
  Tcr.Ir.of_variant ~label:"mm" set.contraction (List.hd set.variants)

let test_transfer_bytes () =
  let ir = ir_small () in
  let t = Gpusim.Transfer.analyze arch ir in
  check_int "h2d = A + B" (8 * 64 * 2) t.h2d_bytes;
  check_int "d2h = C" (8 * 64) t.d2h_bytes;
  Alcotest.(check bool) "latency floor" true (t.time_s >= 2.0 *. arch.pcie_latency_us *. 1e-6)

let test_gpu_measure_deterministic () =
  let ir = ir_small () in
  let ps = Tcr.Space.of_ir ir in
  let points = List.map (fun s -> List.hd (Tcr.Space.enumerate s)) ps.op_spaces in
  let r1 = Gpusim.Gpu.measure arch ir points in
  let r2 = Gpusim.Gpu.measure arch ir points in
  Alcotest.(check (float 0.0)) "deterministic" r1.kernel_time_s r2.kernel_time_s

let test_gpu_noise_bounded () =
  let ir = ir_small () in
  let ps = Tcr.Space.of_ir ir in
  let points = List.map (fun s -> List.hd (Tcr.Space.enumerate s)) ps.op_spaces in
  let measured = (Gpusim.Gpu.measure arch ir points).kernel_time_s in
  let kernels = Codegen.Kernel.lower_program ir points in
  let modeled =
    List.fold_left
      (fun acc k -> acc +. (Gpusim.Perf.analyze_kernel arch k).time_s)
      0.0 kernels
  in
  Alcotest.(check bool) "within 2.5%" true
    (abs_float (measured -. modeled) /. modeled <= 0.025)

let test_gpu_amortization () =
  let ir = ir_small () in
  let ps = Tcr.Space.of_ir ir in
  let points = List.map (fun s -> List.hd (Tcr.Space.enumerate s)) ps.op_spaces in
  let r = Gpusim.Gpu.measure arch ir points in
  let t1 = Gpusim.Gpu.amortized_time r ~reps:1 in
  let t100 = Gpusim.Gpu.amortized_time r ~reps:100 in
  Alcotest.(check bool) "amortizing transfers helps" true (t100 < t1);
  Alcotest.(check bool) "floor at kernel time" true (t100 >= r.kernel_time_s)

let test_gpu_execute_correct () =
  let ir = ir_small () in
  let ps = Tcr.Space.of_ir ir in
  let points = List.map (fun s -> List.hd (Tcr.Space.enumerate s)) ps.op_spaces in
  let rng = Util.Rng.create 9 in
  let inputs =
    List.filter_map
      (fun (v : Tcr.Ir.var) ->
        if v.role = Tcr.Ir.Input then
          Some (v.name, Tensor.Dense.random rng (Tcr.Ir.var_shape ir v.name))
        else None)
      ir.vars
  in
  let env = Codegen.Exec.run_program ir points inputs in
  let want = Codegen.Exec.run_reference ir inputs in
  Alcotest.(check bool) "device execution correct" true
    (Tensor.Dense.approx_equal (List.assoc "C" want) (List.assoc "C" env))

let suite =
  [
    ("arch lookup", `Quick, test_arch_lookup);
    ("arch dp peaks", `Quick, test_arch_peaks);
    ("coalesce unit stride", `Quick, test_coalesce_unit_stride);
    ("coalesce strided", `Quick, test_coalesce_strided);
    ("coalesce broadcast", `Quick, test_coalesce_broadcast);
    ("coalesce partial rows", `Quick, test_coalesce_partial_rows);
    ("loads per thread hoisting", `Quick, test_loads_per_thread_hoisting);
    ("footprint per block", `Quick, test_footprint);
    ("occupancy bounds", `Quick, test_occupancy_bounds);
    ("occupancy register pressure", `Quick, test_occupancy_register_pressure);
    ("occupancy block limited", `Quick, test_occupancy_blocks_limited);
    ("perf positive times", `Quick, test_perf_positive_times);
    ("perf coalescing matters", `Quick, test_perf_coalescing_matters);
    ("perf unroll helps issue", `Quick, test_perf_unroll_helps_issue);
    ("perf small grid penalty", `Quick, test_perf_small_grid_penalty);
    ("perf memory classes", `Quick, test_perf_memory_classes);
    ("perf bound dp", `Quick, test_perf_bound_dp);
    ("perf bound launch", `Quick, test_perf_bound_launch);
    ("perf bound memory", `Quick, test_perf_bound_memory);
    ("perf bound issue", `Quick, test_perf_bound_issue);
    ("transfer bytes", `Quick, test_transfer_bytes);
    ("gpu measure deterministic", `Quick, test_gpu_measure_deterministic);
    ("gpu noise bounded", `Quick, test_gpu_noise_bounded);
    ("gpu amortization", `Quick, test_gpu_amortization);
    ("gpu execute correct", `Quick, test_gpu_execute_correct);
  ]
