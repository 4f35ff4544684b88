(* Regeneration of every table and figure of the paper's evaluation
   (Section VI), printing measured (simulated) numbers side by side with
   the paper's published values.

   Experiment index (see DESIGN.md):
   - claims   : Section III  - 15 OCTOPI variants for Eqn.(1), 6 of minimal
                flops, performance spread of the equal-flop variants
   - space    : Section V    - search-space sizes, SURF vs. exhaustive cost
   - table2   : Table II     - individual contractions on 3 GPUs
   - table3   : Table III    - Nekbone: OpenACC vs Barracuda
   - table4   : Table IV     - Nekbone + NWChem: OpenMP vs Barracuda
   - figure3  : Figure 3     - 27 NWChem kernels, speedup over naive OpenACC
   - surfbrute: Section VI-A - SURF vs brute-force search quality
   - seeds    : Table II problems tuned at ten tuner seeds *)

let reps = 100

let fmt = Util.Table.cell_f

(* Deterministic per-(benchmark, arch) tuning, cached: Table IV and
   Figure 3 reuse each other's kernels. *)
let tune_cache : (string * string, Autotune.Tuner.result) Hashtbl.t = Hashtbl.create 64

let tune ?(pool_per_variant = 400) ?(max_evals = 100) (arch : Gpusim.Arch.t)
    (b : Autotune.Tuner.benchmark) =
  let key = (b.label, arch.name) in
  match Hashtbl.find_opt tune_cache key with
  | Some r -> r
  | None ->
    let rng = Util.Rng.create (Hashtbl.hash key) in
    let cfg = { Surf.Search.default_config with max_evals } in
    let r =
      Autotune.Tuner.tune ~strategy:(Autotune.Tuner.Surf_search cfg) ~reps
        ~pool_per_variant ~rng ~arch b
    in
    Hashtbl.add tune_cache key r;
    r

let archs = [ Gpusim.Arch.gtx980; Gpusim.Arch.k20; Gpusim.Arch.c2050 ]
let openacc_archs = [ Gpusim.Arch.k20; Gpusim.Arch.c2050 ]

(* ------------------------------------------------------------------ *)
(* Section III claims: variant enumeration and the equal-flop spread *)

let claims () =
  let b = Benchsuite.Suite.eqn1 () in
  let set = Octopi.Variants.of_contraction (List.hd b.statements) in
  let minimal = Octopi.Variants.minimal_flop_variants set in
  let arch = Gpusim.Arch.gtx980 in
  (* best tuned time of each minimal-flop variant on the GTX 980 *)
  let times =
    List.map
      (fun (v : Octopi.Variants.variant) ->
        let ir = Tcr.Ir.of_variant ~label:(Printf.sprintf "eqn1_v%d" v.id)
                   set.contraction v in
        let ps = Tcr.Space.of_ir ir in
        let rng = Util.Rng.create (1000 + v.id) in
        let evaluator = Autotune.Evaluator.create ~reps arch in
        (* exhaustive over a sampled sub-pool per variant *)
        let best = ref infinity in
        for _ = 1 to 250 do
          let points = List.map (Tcr.Space.sample rng) ps.op_spaces in
          best := min !best (Autotune.Evaluator.objective evaluator ir points)
        done;
        (v.id, !best))
      minimal
  in
  let ts = List.map snd times in
  let spread =
    100.0 *. (Util.Stats.max_list ts -. Util.Stats.min_list ts) /. Util.Stats.min_list ts
  in
  let rows =
    [ "quantity"; "paper"; "measured" ]
    :: [
         [ "OCTOPI variants for Eqn.(1)"; "15"; string_of_int (List.length set.variants) ];
         [ "variants with minimal flops"; "6"; string_of_int (List.length minimal) ];
         [ "minimal flops (3 nests x 2 x 10^4)"; "60000";
           string_of_int (Octopi.Variants.min_flops set) ];
         [ "equal-flop perf spread on GTX 980"; "~9%"; fmt ~digits:1 spread ^ "%" ];
       ]
  in
  Util.Table.create ~title:"Section III claims: Eqn.(1) strength-reduction variants" rows

(* ------------------------------------------------------------------ *)
(* Section V: search-space sizes and search cost *)

let space_table () =
  let benches = Benchsuite.Suite.all_individual () in
  let rows =
    [ "benchmark"; "variants"; "total space"; "SURF evals"; "SURF time (model)";
      "exhaustive est." ]
    :: List.map
         (fun (b : Autotune.Tuner.benchmark) ->
           let choices = Autotune.Tuner.variant_choices b in
           let total = Autotune.Tuner.total_space choices in
           let r = tune Gpusim.Arch.gtx980 b in
           let per_eval = r.search_seconds /. float_of_int r.evaluations in
           let exhaustive_days = float_of_int total *. per_eval /. 86400.0 in
           [
             b.label;
             string_of_int (List.length choices);
             string_of_int total;
             string_of_int r.evaluations;
             fmt ~digits:0 r.search_seconds ^ "s";
             fmt ~digits:1 exhaustive_days ^ " days";
           ])
         benches
  in
  Util.Table.create
    ~title:
      "Section V: search-space sizes (paper: 512,000 variants for Lg3t; 100 evals in ~7 min vs ~23 days exhaustive)"
    rows

(* ------------------------------------------------------------------ *)
(* Table II: individual tensor contractions *)

type paper_row = { p_speedup : float; p_gf : float array (* gtx, k20, c2050 *) }

let table2_paper =
  [
    ("eqn1", { p_speedup = 0.63; p_gf = [| 1.99; 1.42; 1.89 |] });
    ("lg3", { p_speedup = 23.74; p_gf = [| 42.74; 41.52; 42.47 |] });
    ("lg3t", { p_speedup = 22.87; p_gf = [| 41.11; 38.38; 34.99 |] });
    ("tce_ex", { p_speedup = 29.77; p_gf = [| 42.72; 17.82; 14.25 |] });
  ]

let table2 () =
  let benches = Benchsuite.Suite.all_individual () in
  let rows =
    [ "bench"; "speedup"; "(paper)"; "GTX980 GF"; "(paper)"; "K20 GF"; "(paper)";
      "C2050 GF"; "(paper)"; "search s (GTX)" ]
    :: List.map
         (fun (b : Autotune.Tuner.benchmark) ->
           let paper = List.assoc b.label table2_paper in
           let t_seq = Autotune.Tuner.best_sequential_time b in
           let results = List.map (fun a -> tune a b) archs in
           let gtx = List.nth results 0 in
           let speedup = t_seq /. gtx.time_per_eval_s in
           [ b.label; fmt speedup ^ "x"; fmt paper.p_speedup ^ "x" ]
           @ List.concat
               (List.mapi
                  (fun i (r : Autotune.Tuner.result) ->
                    [ fmt r.gflops; fmt paper.p_gf.(i) ])
                  results)
           @ [ fmt ~digits:0 gtx.search_seconds ])
         benches
  in
  Util.Table.create
    ~title:"Table II: individual tensor contractions (speedup vs 1-core Haswell, on GTX 980)"
    rows

(* ------------------------------------------------------------------ *)
(* Nekbone performance assembly *)

let nekbone_problem = Benchsuite.Nekbone.default

let nekbone_operator =
  lazy (Benchsuite.Nekbone.make_operator nekbone_problem)

let nekbone_barracuda arch =
  let lg3 = tune arch (Benchsuite.Nekbone.lg3_benchmark nekbone_problem) in
  let lg3t = tune arch (Benchsuite.Nekbone.lg3t_benchmark nekbone_problem) in
  let op = Lazy.force nekbone_operator in
  let t =
    Benchsuite.Nekbone.gpu_iter_time arch
      ~lg3_kernel_time:lg3.best_report.kernel_time_s
      ~lg3t_kernel_time:lg3t.best_report.kernel_time_s nekbone_problem
  in
  Benchsuite.Nekbone.gflops_of_iter_time op t

(* OpenACC in application context: only the contraction regions run on the
   device, so the field u travels in and w travels back every CG iteration;
   the naive variant additionally re-ships every array around every kernel
   and uses the undecomposed mapping. *)
let nekbone_openacc arch ~optimized =
  let op = Lazy.force nekbone_operator in
  let field_bytes = 8 * Benchsuite.Nekbone.field_points nekbone_problem in
  let lg3_b = Benchsuite.Nekbone.lg3_benchmark nekbone_problem in
  let lg3t_b = Benchsuite.Nekbone.lg3t_benchmark nekbone_problem in
  let ir_of b = (List.hd (Autotune.Tuner.variant_choices b)).Autotune.Tuner.v_ir in
  let kernel_time b =
    let ir = ir_of b in
    if optimized then begin
      let r = tune arch b in
      Cpusim.Openacc.kernel_time arch r.best.ir (Cpusim.Openacc.Optimized r.best.points)
    end
    else Cpusim.Openacc.kernel_time arch ir Cpusim.Openacc.Naive
  in
  let t_kernels = kernel_time lg3_b +. kernel_time lg3t_b in
  let transfers =
    if optimized then
      (* u in, w out once per iteration; gradients stay on the device *)
      2.0 *. Gpusim.Transfer.time_of_bytes arch field_bytes
    else
      (* every region ships its operands both ways *)
      2.0 *. 8.0 *. Gpusim.Transfer.time_of_bytes arch field_bytes
  in
  let aux =
    float_of_int (Benchsuite.Nekbone.aux_bytes nekbone_problem)
    /. (Cpusim.Haswell.haswell.mem_bw_gbs *. 1e9)
  in
  Benchsuite.Nekbone.gflops_of_iter_time op (t_kernels +. transfers +. aux)

let table3_paper = [ ("Tesla K20", (2.86, 12.39, 36.47)); ("Tesla C2050", (1.18, 19.21, 34.65)) ]

let table3 () =
  let rows =
    [ "arch"; "ACC naive"; "(paper)"; "ACC optimized"; "(paper)"; "Barracuda"; "(paper)" ]
    :: List.map
         (fun (arch : Gpusim.Arch.t) ->
           let p_naive, p_opt, p_barra = List.assoc arch.name table3_paper in
           [
             arch.name;
             fmt (nekbone_openacc arch ~optimized:false);
             fmt p_naive;
             fmt (nekbone_openacc arch ~optimized:true);
             fmt p_opt;
             fmt (nekbone_barracuda arch);
             fmt p_barra;
           ])
         openacc_archs
  in
  Util.Table.create ~title:"Table III: Nekbone, OpenACC vs Barracuda (GFlops)" rows

(* ------------------------------------------------------------------ *)
(* Table IV: OpenMP vs Barracuda *)

(* The paper's GPU column is reported on the Tesla K20 (the d1 figure of
   115 GFlops exceeds the GTX 980's double-precision peak). *)
let table4_arch = Gpusim.Arch.k20

let nwchem_family_avg family ~f =
  let xs = List.map f (Benchsuite.Nwchem.benchmarks family) in
  Util.Stats.mean xs

let table4_paper =
  [
    ("Nekbone", (7.79, 23.97, 35.70));
    ("NWCHEM s1", (2.47, 2.61, 16.14));
    ("NWCHEM d1", (3.90, 25.29, 115.37));
    ("NWCHEM d2", (5.60, 14.90, 50.00));
  ]

let table4 () =
  let op = Lazy.force nekbone_operator in
  let nek_1core =
    Benchsuite.Nekbone.gflops_of_iter_time op (Benchsuite.Nekbone.cpu_iter_time ~cores:1 op)
  in
  let nek_omp =
    Benchsuite.Nekbone.gflops_of_iter_time op (Benchsuite.Nekbone.cpu_iter_time ~cores:4 op)
  in
  let nek_barra = nekbone_barracuda table4_arch in
  let family_row name family =
    let seq =
      nwchem_family_avg family ~f:(fun b ->
          float_of_int (Autotune.Tuner.min_variant_flops b)
          /. Autotune.Tuner.best_sequential_time b /. 1e9)
    in
    let omp =
      nwchem_family_avg family ~f:(fun b ->
          float_of_int (Autotune.Tuner.min_variant_flops b)
          /. Autotune.Tuner.best_openmp_time b /. 1e9)
    in
    let barra = nwchem_family_avg family ~f:(fun b -> (tune table4_arch b).gflops) in
    (name, seq, omp, barra)
  in
  let measured =
    [
      (let g1, g4, gb = (nek_1core, nek_omp, nek_barra) in
       ("Nekbone", g1, g4, gb));
      family_row "NWCHEM s1" Benchsuite.Nwchem.S1;
      family_row "NWCHEM d1" Benchsuite.Nwchem.D1;
      family_row "NWCHEM d2" Benchsuite.Nwchem.D2;
    ]
  in
  let rows =
    [ "benchmark"; "1 core"; "(paper)"; "OpenMP 4"; "(paper)"; "Barracuda"; "(paper)" ]
    :: List.map
         (fun (name, g1, g4, gb) ->
           let p1, p4, pb = List.assoc name table4_paper in
           [ name; fmt g1; fmt p1; fmt g4; fmt p4; fmt gb; fmt pb ])
         measured
  in
  Util.Table.create
    ~title:"Table IV: Nekbone and NWChem excerpts, OpenMP vs Barracuda (GFlops; GPU = Tesla K20)"
    rows

(* ------------------------------------------------------------------ *)
(* Figure 3: the 27 NWChem kernels, speedups over naive OpenACC *)

let figure3_family family =
  let rows =
    [ "kernel"; "Barracuda C2050"; "ACC C2050"; "Barracuda K20"; "ACC K20" ]
    :: List.map
         (fun (b : Autotune.Tuner.benchmark) ->
           let cells =
             List.concat_map
               (fun (arch : Gpusim.Arch.t) ->
                 let ir = (List.hd (Autotune.Tuner.variant_choices b)).v_ir in
                 let t_naive = Cpusim.Openacc.time arch ir ~reps Cpusim.Openacc.Naive in
                 let r = tune arch b in
                 let t_opt =
                   Cpusim.Openacc.time arch r.best.ir ~reps
                     (Cpusim.Openacc.Optimized r.best.points)
                 in
                 [ fmt (t_naive /. r.time_per_eval_s); fmt (t_naive /. t_opt) ])
               [ Gpusim.Arch.c2050; Gpusim.Arch.k20 ]
           in
           b.label :: cells)
         (Benchsuite.Nwchem.benchmarks family)
  in
  Util.Table.create
    ~title:
      (Printf.sprintf
         "Figure 3 (%s): speedup over naive OpenACC (paper: D1 up to ~70x, D2 and S1 5-25x; Barracuda >= optimized OpenACC)"
         (Benchsuite.Nwchem.family_name family))
    rows

let figure3 () = List.map figure3_family [ Benchsuite.Nwchem.D1; Benchsuite.Nwchem.D2; Benchsuite.Nwchem.S1 ]

(* ------------------------------------------------------------------ *)
(* Section VI-A: SURF vs brute force *)

let surf_vs_brute () =
  let b = Benchsuite.Suite.lg3 () in
  let arch = Gpusim.Arch.gtx980 in
  let run strategy seed =
    let rng = Util.Rng.create seed in
    Autotune.Tuner.tune ~strategy ~reps ~pool_per_variant:400 ~rng ~arch b
  in
  let cfg = { Surf.Search.default_config with max_evals = 100 } in
  let surf = run (Autotune.Tuner.Surf_search cfg) 5 in
  let brute = run Autotune.Tuner.Exhaustive 6 in
  let random = run Autotune.Tuner.Random_search 7 in
  let best_after (r : Autotune.Tuner.result) n =
    match List.filteri (fun i _ -> i < n) r.convergence with
    | [] -> nan
    | curve -> List.nth curve (List.length curve - 1)
  in
  let rows =
    [ "strategy"; "evaluations"; "best@20"; "best@50"; "best kernel time"; "GFlops";
      "search (model)" ]
    :: List.map
         (fun (name, (r : Autotune.Tuner.result)) ->
           [
             name;
             string_of_int r.evaluations;
             Printf.sprintf "%.3g s" (best_after r 20);
             Printf.sprintf "%.3g s" (best_after r 50);
             Printf.sprintf "%.3g s" r.best_report.kernel_time_s;
             fmt r.gflops;
             fmt ~digits:0 r.search_seconds ^ "s";
           ])
         [ ("SURF (100 evals)", surf); ("brute force (pool)", brute); ("random (100)", random) ]
  in
  Util.Table.create
    ~title:
      "Section VI-A: SURF vs brute force on Lg3 (paper: SURF comparable to or better than prior brute-force search)"
    rows

(* ------------------------------------------------------------------ *)
(* Ablation study (extensions beyond the paper's evaluation):
   - search-space pruning (the Section VIII outlook), default vs none;
   - scalar replacement on/off (Section IV's always-on transformation);
   - unroll tuning on/off;
   - joint vs separate tuning of Lg3 + Lg3t (Section VIII outlook). *)

let ablation () =
  let arch = Gpusim.Arch.gtx980 in
  let cfg = { Surf.Search.default_config with max_evals = 100 } in
  let tune_with ?prune seed b =
    Autotune.Tuner.tune ~strategy:(Autotune.Tuner.Surf_search cfg) ~reps
      ~pool_per_variant:400 ?prune ~rng:(Util.Rng.create seed) ~arch b
  in
  let rows = ref [] in
  let add row = rows := row :: !rows in

  (* pruning *)
  List.iter
    (fun (b : Autotune.Tuner.benchmark) ->
      let full = tune_with 31 b in
      let pruned = tune_with ~prune:Tcr.Prune.default 31 b in
      let spaces = (List.hd (Autotune.Tuner.variant_choices b)).spaces in
      let frac =
        Util.Stats.mean
          (List.map (Tcr.Prune.pruned_fraction Tcr.Prune.default) spaces.op_spaces)
      in
      add
        [
          Printf.sprintf "pruning (%s)" b.label;
          Printf.sprintf "full: %.2f GF / %.0fs search" full.gflops full.search_seconds;
          Printf.sprintf "pruned(-%.0f%%): %.2f GF / %.0fs search" (100.0 *. frac)
            pruned.gflops pruned.search_seconds;
        ])
    [ Benchsuite.Suite.lg3 (); Benchsuite.Nwchem.benchmark Benchsuite.Nwchem.D1 ~index:1 ];

  (* scalar replacement *)
  List.iter
    (fun (b : Autotune.Tuner.benchmark) ->
      let r = tune_with 32 b in
      let with_sr = Gpusim.Gpu.measure arch r.best.ir r.best.points in
      let without_sr =
        Gpusim.Gpu.measure ~scalar_replace:false arch r.best.ir r.best.points
      in
      let gf report =
        float_of_int report.Gpusim.Gpu.flops /. report.kernel_time_s /. 1e9
      in
      add
        [
          Printf.sprintf "scalar replacement (%s)" b.label;
          Printf.sprintf "on: %.2f GF" (gf with_sr);
          Printf.sprintf "off: %.2f GF (%.1fx slower)" (gf without_sr)
            (without_sr.kernel_time_s /. with_sr.kernel_time_s);
        ])
    [ Benchsuite.Suite.lg3 (); Benchsuite.Nwchem.benchmark Benchsuite.Nwchem.D1 ~index:1 ];

  (* unroll tuning *)
  List.iter
    (fun (b : Autotune.Tuner.benchmark) ->
      let r = tune_with 33 b in
      let no_unroll =
        List.map
          (fun (p : Tcr.Space.point) ->
            { p with Tcr.Space.unrolls = List.map (fun (l, _) -> (l, 1)) p.unrolls })
          r.best.points
      in
      let base = Gpusim.Gpu.measure arch r.best.ir r.best.points in
      let flat = Gpusim.Gpu.measure arch r.best.ir no_unroll in
      add
        [
          Printf.sprintf "unroll tuning (%s)" b.label;
          Printf.sprintf "tuned: %.3g s" base.kernel_time_s;
          Printf.sprintf "unroll=1: %.3g s (%+.1f%%)" flat.kernel_time_s
            (100.0 *. ((flat.kernel_time_s /. base.kernel_time_s) -. 1.0));
        ])
    [ Benchsuite.Suite.lg3 (); Benchsuite.Suite.tce_ex () ];

  (* concurrent kernels (streams): waves of independent statements share a
     launch; pays off only for launch-bound programs like Eqn.(1) *)
  List.iter
    (fun (b : Autotune.Tuner.benchmark) ->
      let r = tune_with 35 b in
      let serial = Gpusim.Gpu.measure arch r.best.ir r.best.points in
      let streams = Gpusim.Gpu.measure_streams arch r.best.ir r.best.points in
      add
        [
          Printf.sprintf "concurrent kernels (%s)" b.label;
          Printf.sprintf "serial: %.3g s" serial.kernel_time_s;
          Printf.sprintf "streams: %.3g s (%+.1f%%)" streams.kernel_time_s
            (100.0 *. ((streams.kernel_time_s /. serial.kernel_time_s) -. 1.0));
        ])
    [ Benchsuite.Suite.eqn1 (); Benchsuite.Suite.lg3 () ];

  (* joint vs separate Nekbone tuning *)
  let problem = Benchsuite.Nekbone.default in
  let lg3 = tune_with 34 (Benchsuite.Nekbone.lg3_benchmark problem) in
  let lg3t = tune_with 34 (Benchsuite.Nekbone.lg3t_benchmark problem) in
  let joint = tune_with 34 (Benchsuite.Nekbone.joint_benchmark problem) in
  let separate_time = lg3.best_report.kernel_time_s +. lg3t.best_report.kernel_time_s in
  add
    [
      "joint lg3+lg3t tuning";
      Printf.sprintf "separate: %.3g s/iter" separate_time;
      Printf.sprintf "joint: %.3g s/iter (%+.1f%%)" joint.best_report.kernel_time_s
        (100.0 *. ((joint.best_report.kernel_time_s /. separate_time) -. 1.0));
    ];
  Util.Table.create ~title:"Ablation study (design choices from Sections IV and VIII)"
    ([ "experiment"; "baseline"; "variant" ] :: List.rev !rows)

(* ------------------------------------------------------------------ *)
(* Model validation: for the tuned kernels of the main benchmarks, compare
   the analytic memory classification against the trace-driven LRU cache
   simulator (ground truth for one block's L1 behaviour). *)

let modelcheck () =
  let arch = Gpusim.Arch.gtx980 in
  let rows = ref [] in
  List.iter
    (fun (b : Autotune.Tuner.benchmark) ->
      let r = tune arch b in
      let kernels = Codegen.Kernel.lower_program r.best.ir r.best.points in
      List.iteri
        (fun ki k ->
          let perf = Gpusim.Perf.analyze_kernel arch k in
          List.iteri
            (fun ri (rr : Gpusim.Perf.ref_report) ->
              (* skip the synthetic output entry (last) for hit-rate checks *)
              if ri < List.length perf.refs - 1 then begin
                let name = rr.analysis.name and dims = rr.analysis.dims in
                let rate = Gpusim.Simtrace.block_hit_rate arch k (name, dims) in
                let cls =
                  match rr.memory_class with
                  | Gpusim.Perf.L1_resident -> "L1"
                  | Gpusim.Perf.L2_shared -> "L2"
                  | Gpusim.Perf.Dram_raw -> "DRAM"
                in
                let agree =
                  match rr.memory_class with
                  | Gpusim.Perf.L1_resident -> rate >= 0.85
                  | Gpusim.Perf.L2_shared | Gpusim.Perf.Dram_raw -> true
                in
                rows :=
                  [
                    Printf.sprintf "%s k%d %s" b.label (ki + 1) name;
                    cls;
                    fmt ~digits:3 rate;
                    (if agree then "ok" else "DISAGREES");
                  ]
                  :: !rows
              end)
            perf.refs)
        kernels)
    [ Benchsuite.Suite.eqn1 (); Benchsuite.Suite.lg3 ~elems:16 ();
      Benchsuite.Nwchem.benchmark ~n:16 Benchsuite.Nwchem.D1 ~index:1 ];
  Util.Table.create
    ~title:
      "Model validation: analytic memory class vs trace-driven L1 hit rate (one block)"
    ([ "kernel / ref"; "analytic class"; "simulated L1 hit rate"; "agreement" ]
    :: List.rev !rows)

(* ------------------------------------------------------------------ *)
(* Motivation experiment (Section I / Section VII): direct tuned kernels
   vs the library path (TTGT: transpose + vendor GEMM + transpose). On the
   paper's small-tensor workloads the library path loses - tiny tile grids
   idle the chip and transposes rival the math - while on a large matmul it
   wins; Barracuda targets exactly the regime the libraries miss. *)

let motivation () =
  let arch = Gpusim.Arch.gtx980 in
  let mm n =
    Autotune.Tuner.benchmark_of_dsl
      ~label:(Printf.sprintf "mm%d" n)
      (Printf.sprintf "dims: i=%d j=%d k=%d\nC[i j] = Sum([k], A[i k] * B[k j])" n n n)
  in
  let row name (b : Autotune.Tuner.benchmark) =
    let fl = float_of_int (Autotune.Tuner.min_variant_flops b) in
    let ttgt_gf = fl /. Autotune.Ttgt.best_time arch b /. 1e9 in
    let barracuda =
      (* extents beyond the thread-block capacity are outside the paper's
         small-tensor domain: report n/a rather than failing *)
      try Some (tune arch b).gflops with Invalid_argument _ -> None
    in
    [
      name;
      (match barracuda with Some g -> fmt g | None -> "n/a (tensor too large)");
      fmt ttgt_gf;
      (match barracuda with
      | Some g -> fmt ~digits:1 (g /. ttgt_gf) ^ "x"
      | None -> "-");
    ]
  in
  let rows =
    [ "workload"; "Barracuda GF"; "TTGT/GEMM GF"; "Barracuda/TTGT" ]
    :: [
         row "eqn1 (10^3)" (Benchsuite.Suite.eqn1 ());
         row "lg3 (12^3 x 512)" (Benchsuite.Suite.lg3 ());
         row "nwchem d1_1 (16)" (Benchsuite.Nwchem.benchmark Benchsuite.Nwchem.D1 ~index:1);
         row "matmul 64" (mm 64);
         row "matmul 512" (mm 512);
         row "matmul 4096" (mm 4096);
       ]
  in
  Util.Table.create
    ~title:
      "Motivation: small-tensor contractions vs the library (TTGT) path (paper Section I)"
    rows

(* ------------------------------------------------------------------ *)
(* Polynomial-order sweep: tuned Lg3 GFlops as the element order grows
   (the CESAR codesign center's hand-coded OpenCL kernels reach 100-200
   GFlops on Fermi-class hardware for orders 8..12; Section VII). The
   sweep shows the same qualitative growth: larger orders raise arithmetic
   intensity and amortize launch overhead. *)

let sweep () =
  let orders = [ 6; 8; 10; 12; 14; 16 ] in
  let rows =
    [ "order p"; "GTX 980 GF"; "K20 GF"; "C2050 GF"; "flops/element" ]
    :: List.map
         (fun p ->
           let base = Benchsuite.Suite.lg3 ~p ~elems:512 () in
           (* distinct label per order: the tuning cache keys on it *)
           let b = { base with Autotune.Tuner.label = Printf.sprintf "lg3_p%d" p } in
           let per_arch =
             List.map (fun arch -> fmt (tune arch b).gflops) archs
           in
           (string_of_int p :: per_arch)
           @ [ string_of_int (3 * 2 * p * p * p * p) ])
         orders
  in
  Util.Table.create
    ~title:"Order sweep: tuned local_grad3 vs element order (512 elements)"
    rows

(* ------------------------------------------------------------------ *)
(* Seed sweep: the Table II problems at paper size on the three GPUs, tuned
   at the paper's budget (SURF, 100 evaluations in batches of 10, 600
   candidates per variant) with tuner seeds 1-10. A cell's min, median (the
   upper of the two middle values) and max modeled GFLOP/s show how much a
   winner owes to its seed; the digest over every tune's winner and the bits
   of its GFLOP/s shows whether a change moved any of the 120. *)

let seeds () =
  let cells =
    List.concat_map
      (fun (b : Autotune.Tuner.benchmark) -> List.map (fun arch -> (b, arch)) archs)
      (Benchsuite.Suite.all_individual ())
  in
  let lines = ref [] in
  let rows =
    List.map
      (fun ((b : Autotune.Tuner.benchmark), (arch : Gpusim.Arch.t)) ->
        let gflops =
          List.init 10 (fun i ->
              let seed = i + 1 in
              let r =
                Autotune.Tuner.tune ~strategy:(Autotune.Tuner.Surf_search Surf.Search.default_config)
                  ~reps ~pool_per_variant:600 ~rng:(Util.Rng.create seed) ~arch b
              in
              lines :=
                Printf.sprintf "%s %s %d %s/%s %h" b.label arch.name seed
                  (String.concat "." (List.map string_of_int r.best.variant_ids))
                  (String.concat "|" (List.map Tcr.Space.point_key r.best.points))
                  r.gflops
                :: !lines;
              r.gflops)
          |> List.sort compare
        in
        [ b.label; arch.name; fmt (List.hd gflops); fmt (List.nth gflops 5);
          fmt (List.nth gflops 9) ])
      cells
  in
  ( Util.Table.create
      ~title:"Seed sweep: modeled GFLOP/s of the Table II winners over tuner seeds 1-10"
      ([ "bench"; "GPU"; "min"; "median"; "max" ] :: rows),
    Digest.to_hex (Digest.string (String.concat "\n" (List.rev !lines))) )
