(* Barracuda: public facade over the full pipeline of the paper
   (Figure 1) - OCTOPI tensor DSL -> strength reduction -> TCR -> GPU
   decision algorithm -> SURF autotuning -> CUDA emission - together with
   the simulated devices it is evaluated on.

   Typical use:

   {[
     let result =
       Barracuda.tune ~arch:Barracuda.Arch.gtx980
         "V[i j k] = Sum([l m n], A[l k] * B[m j] * C[n i] * U[l m n])"
     in
     print_string (Barracuda.cuda_of result)
   ]} *)

type tuned = Autotune.Tuner.result

(* ------------------------------------------------------------------ *)
(* One-call pipeline entry points *)

(* Parse a DSL program into a tunable benchmark. *)
let parse ?(label = "tc") src = Autotune.Tuner.benchmark_of_dsl ~label src

(* Enumerate the OCTOPI strength-reduction variants of each statement. *)
let variants src =
  let program = Octopi.Parse.program src in
  List.map Octopi.Variants.of_contraction (Octopi.Contraction.of_program program)

(* Tune a DSL program for an architecture; returns the full report. *)
let tune ?(label = "tc") ?(seed = 42) ?(max_evals = 100) ?(arch = Gpusim.Arch.gtx980) src =
  let b = parse ~label src in
  let cfg = { Surf.Search.default_config with max_evals } in
  Autotune.Tuner.tune
    ~strategy:(Autotune.Tuner.Surf_search cfg)
    ~rng:(Util.Rng.create seed) ~arch b

(* Tuned CUDA source of a result. *)
let cuda_of (result : tuned) = Autotune.Tuner.emit_cuda result

(* Sequential C / OpenACC renderings of the best variant. *)
let c_of ?(mode = Codegen.C_emit.Sequential) (result : tuned) =
  Codegen.C_emit.emit_program ~mode result.best.ir

(* Execute the tuned program on named inputs; returns the outputs. *)
let run (result : tuned) inputs =
  let ir = result.best.ir in
  let env = Codegen.Exec.run_program ir result.best.points inputs in
  List.filter_map
    (fun (v : Tcr.Ir.var) ->
      if v.role = Tcr.Ir.Output then Some (v.name, List.assoc v.name env) else None)
    ir.vars

(* Save / reload tuning artifacts (see {!Autotune.Store}). *)
let save_tuning = Autotune.Store.save

let load_tuning (b : Autotune.Tuner.benchmark) text =
  Autotune.Store.restore b (Autotune.Store.parse text)

(* Standalone CUDA driver (main + timing loop + CPU check). *)
let driver_of ?reps (result : tuned) =
  Codegen.Driver.emit ?reps result.best.ir result.best.points

(* Simulated performance summary. *)
type summary = {
  gflops : float;
  time_per_eval_s : float;
  speedup_vs_sequential : float;
  search_seconds : float;
  variant_count : int;
  space_size : int;
}

let summarize (result : tuned) =
  let t_seq = Autotune.Tuner.best_sequential_time result.benchmark in
  {
    gflops = result.gflops;
    time_per_eval_s = result.time_per_eval_s;
    speedup_vs_sequential = t_seq /. result.time_per_eval_s;
    search_seconds = result.search_seconds;
    variant_count = result.variant_count;
    space_size = result.total_space;
  }

let pp_summary fmt s =
  Format.fprintf fmt
    "@[<v>GFlops (simulated)     %.2f@,time per evaluation    %.3g s@,speedup vs sequential  %.2fx@,search cost (modeled)  %.0f s@,OCTOPI variants        %d@,search-space size      %d@]"
    s.gflops s.time_per_eval_s s.speedup_vs_sequential s.search_seconds s.variant_count
    s.space_size

(* ------------------------------------------------------------------ *)
(* Re-exports: each stage of the system under its paper name. Aliases that
   read through a module about to be shadowed come first. *)

module Shape = Tensor.Shape
module Einsum = Tensor.Einsum
module Tensor = Tensor.Dense
module Contraction = Octopi.Contraction
module Space = Tcr.Space
module Orio = Tcr.Orio
module Tcr = Tcr.Ir
module Cuda = Codegen.Cuda
module Arch = Gpusim.Arch
module Openacc = Cpusim.Openacc
module Tuner = Autotune.Tuner
module Rng = Util.Rng
