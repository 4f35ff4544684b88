(* Empirical evaluation of one code variant on the simulated device, with
   memoization, plus the model of what one evaluation *costs* the search
   (Section V quotes ~4 s per variant: nvcc compilation dominates, then 100
   timed repetitions on the board). *)

type t = {
  arch : Gpusim.Arch.t;
  reps : int;                  (* timed repetitions per evaluation *)
  cache : (string, Gpusim.Gpu.report) Hashtbl.t;
  mutable evaluations : int;   (* cache misses = real evaluations *)
  mutable search_seconds : float;  (* modeled empirical search cost *)
}

let compile_seconds_per_kernel = 0.9
let harness_seconds = 0.3

(* Orio-style per-variant timeout: a configuration that runs longer than
   this is abandoned, so a slow variant costs at most [eval_timeout_s] of
   search time. *)
let eval_timeout_s = 20.0

let create ?(reps = 100) arch =
  { arch; reps; cache = Hashtbl.create 256; evaluations = 0; search_seconds = 0.0 }

let key (ir : Tcr.Ir.t) points =
  ir.label ^ "|" ^ String.concat "|" (List.map Tcr.Space.point_key points)

(* Merge a freshly computed report into the memo table and charge the
   modeled search cost of one real evaluation. *)
let record t (ir : Tcr.Ir.t) points report =
  let k = key ir points in
  if not (Hashtbl.mem t.cache k) then begin
    Hashtbl.add t.cache k report;
    t.evaluations <- t.evaluations + 1;
    t.search_seconds <-
      t.search_seconds
      +. (compile_seconds_per_kernel *. float_of_int (List.length ir.ops))
      +. harness_seconds
      +. min eval_timeout_s (Gpusim.Gpu.time_with_reps report ~reps:t.reps)
  end

(* Feed every kernel report of one evaluation to the roofline profiler.
   Obs.Profile cannot name Gpusim's types (codegen sits between the two
   libraries), so this is the adapter that flattens a kernel_report into a
   profile sample. Pure accumulation: no RNG draws, no influence on the
   measurement, so tuning results are bit-identical with profiling on or
   off. A sample names its variant choice ({!Provenance.variant_name});
   the IR label, the same for every choice of a program, stands in only
   when the caller gave no ids. *)
let profile_report (arch : Gpusim.Arch.t) ?variant_ids (ir : Tcr.Ir.t)
    (report : Gpusim.Gpu.report) =
  let variant =
    match variant_ids with
    | Some ids -> Provenance.variant_name ids
    | None -> ir.label
  in
  List.iter
    (fun (kr : Gpusim.Perf.kernel_report) ->
      Obs.Profile.record
        {
          Obs.Profile.arch = arch.name;
          variant;
          kernel = kr.kernel_name;
          bound = kr.bound;
          t_dp = kr.t_dp;
          t_issue = kr.t_issue;
          t_mem = kr.t_mem;
          t_launch = kr.t_launch;
          measured_s = kr.time_s;
          dram_bytes = kr.dram_bytes;
          l2_bytes = kr.l2_bytes;
          occupancy = kr.occupancy.occupancy;
        })
    report.Gpusim.Gpu.kernels

(* One real (uncached) measurement, wrapped in a span so traces show every
   empirical evaluation - wherever it ran, including worker domains. *)
let traced_measure arch ?variant_ids (ir : Tcr.Ir.t) points =
  Obs.Trace.with_span ~cat:"autotune"
    ~attrs:(fun () -> [ ("label", ir.label) ])
    "eval.measure"
  @@ fun span ->
  let report = Gpusim.Gpu.measure arch ir points in
  Obs.Trace.add_attrs span
    [ ("kernel_time_s", Printf.sprintf "%.6g" report.Gpusim.Gpu.kernel_time_s) ];
  if Obs.Profile.enabled () then profile_report arch ?variant_ids ir report;
  report

let measure ?variant_ids t (ir : Tcr.Ir.t) points =
  match Hashtbl.find_opt t.cache (key ir points) with
  | Some report -> report
  | None ->
    let report = traced_measure t.arch ?variant_ids ir points in
    record t ir points report;
    report

(* Batch measurement with a pluggable executor. Cached entries are served
   from the memo table; the rest become pure thunks (Gpusim.Gpu.measure
   touches no shared state) handed to [map] - e.g. a multi-domain
   scheduler - and merged back in input order, so accounting and results
   are bit-identical to the sequential path. *)
let measure_batch t ~map items =
  let slots =
    List.map
      (fun (variant_ids, ir, points) ->
        (variant_ids, ir, points, Hashtbl.find_opt t.cache (key ir points)))
      items
  in
  let thunks =
    List.filter_map
      (function
        | variant_ids, ir, points, None ->
          Some (fun () -> traced_measure t.arch ~variant_ids ir points)
        | _ -> None)
      slots
  in
  let computed = ref (map thunks) in
  List.map
    (fun (_, ir, points, cached) ->
      match cached with
      | Some report -> report
      | None ->
        let report =
          match !computed with
          | r :: rest ->
            computed := rest;
            r
          | [] -> invalid_arg "Evaluator.measure_batch: executor dropped results"
        in
        record t ir points report;
        report)
    slots

(* The search objective: simulated kernel time of one evaluation (transfers
   are variant-independent, so they do not influence the choice). *)
let objective ?variant_ids t ir points =
  (measure ?variant_ids t ir points).Gpusim.Gpu.kernel_time_s

let objective_batch t ~map items =
  List.map (fun (r : Gpusim.Gpu.report) -> r.kernel_time_s) (measure_batch t ~map items)
