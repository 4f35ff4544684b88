(* Command-line front end to the Barracuda pipeline: one subcommand per
   job. [commands] at the bottom lists each with a one-line summary and
   builds both the command group and the usage screen.

   The tensor program is read from a file, -e EXPR or --einsum SPEC. *)

open Cmdliner

(* The program input: at most one of a file, -e EXPR and --einsum SPEC,
   or [None] when none is given. *)
let src_opt_arg =
  let file =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Tensor program file.")
  in
  let expr =
    Arg.(
      value
      & opt (some string) None
      & info [ "e"; "expr" ] ~docv:"EXPR" ~doc:"Tensor program given inline.")
  in
  let einsum =
    Arg.(
      value
      & opt (some string) None
      & info [ "einsum" ] ~docv:"SPEC"
          ~doc:"NumPy-style einsum spec, e.g. 'lk,mj,ni,lmn->ijk'.")
  in
  let read file expr einsum =
    match (file, expr, einsum) with
    | None, None, None -> None
    | None, Some src, None -> Some src
    | None, None, Some spec -> Some (Octopi.Einsum_notation.to_dsl spec)
    | Some path, None, None -> Some (Util.Fs.read_file path)
    | _ -> failwith "give exactly one of: a file, -e, --einsum"
  in
  Term.(const read $ file $ expr $ einsum)

(* The program input, required. *)
let need_program = function
  | Some src -> src
  | None -> failwith "no input: give a file, -e EXPR or --einsum SPEC"

let src_args = Term.(const need_program $ src_opt_arg)

(* An integer converter that rejects values below [n] as a usage error
   (exit 124) naming the bound. *)
let at_least n =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok k when k < n -> Error (`Msg (Printf.sprintf "%d is below the minimum of %d" k n))
    | r -> r
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

(* A float converter that rejects values failing [ok] as a usage error
   (exit 124) naming the [bound]. *)
let float_where bound ok =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok x when not (ok x) -> Error (`Msg (Printf.sprintf "%s is not %s" s bound))
    | r -> r
  in
  Arg.conv ~docv:"X" (parse, Format.pp_print_float)

let unit_interval = float_where "in [0, 1]" (fun x -> x >= 0. && x <= 1.)
let finite_nonneg = float_where "finite and >= 0" (fun x -> Float.is_finite x && x >= 0.)

let arch_arg =
  let parse s =
    match Gpusim.Arch.by_name s with
    | Some a -> Ok a
    | None -> Error (`Msg (Printf.sprintf "unknown architecture %S" s))
  in
  let print fmt (a : Gpusim.Arch.t) = Format.pp_print_string fmt a.name in
  let arch_conv = Arg.conv ~docv:"ARCH" (parse, print) in
  Arg.(
    value
    & opt arch_conv Gpusim.Arch.gtx980
    & info [ "a"; "arch" ] ~docv:"ARCH"
        ~doc:"Target GPU: maxwell (GTX 980), kepler (Tesla K20) or fermi (Tesla C2050).")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Random seed for the search.")

let evals_arg =
  Arg.(
    value
    & opt (at_least 1) 100
    & info [ "evals" ] ~docv:"N" ~doc:"SURF evaluation budget (default 100).")

let prune_arg =
  Arg.(
    value & flag
    & info [ "prune" ]
        ~doc:"Prune the search space with the default static policy before searching.")

let json_flag =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as machine-readable JSON.")

let variant_arg =
  Arg.(
    value & opt int 0
    & info [ "variant" ] ~docv:"N"
        ~doc:"Variant choice, by its index in the 'space' listing (default 0).")

(* The variant choice [vid] of a program, as [space] numbers them. *)
let variant_choice src vid =
  let choices = Autotune.Tuner.variant_choices (Barracuda.parse src) in
  match if vid < 0 then None else List.nth_opt choices vid with
  | Some c -> c
  | None ->
    failwith
      (Printf.sprintf "variant %d out of range (0..%d)" vid (List.length choices - 1))

(* Create the parent directory of every output path a command was given,
   before its job runs: a missing parent is created, and a path under a
   regular file fails at once instead of after the job has printed. *)
let prepare_outputs paths =
  List.iter (Option.iter (fun path -> Util.Fs.mkdir_p (Filename.dirname path))) paths

let profile_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile-out" ] ~docv:"FILE"
        ~doc:
          "Profile every kernel evaluation through the roofline model and write \
           the report (time buckets per bound, top kernels by DRAM traffic, \
           occupancy histogram) to FILE.")

(* Run [f] with the kernel profiler on when [out] is set, writing the
   roofline report afterwards. Profiling draws no RNG state, so results
   are identical with or without it. *)
let with_profile out f =
  match out with
  | None -> f ()
  | Some path ->
    let r, samples = Obs.Profile.collect f in
    Util.Fs.write_file path (Obs.Profile.render samples);
    Printf.printf "wrote roofline profile (%d kernel evaluations) to %s\n"
      (List.length samples) path;
    r

let trace_out_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Trace the run and write Chrome trace-event JSON to FILE (open it in \
           ui.perfetto.dev or chrome://tracing).")

(* Run [f] with pipeline tracing on when [out] is set, writing the trace
   afterwards. Tracing draws no RNG state either. *)
let with_trace out f =
  match out with
  | None -> f ()
  | Some path ->
    let r, events = Obs.Trace.collect f in
    Obs.Export.write_chrome_trace ~dropped:(Obs.Trace.dropped ()) path events;
    Printf.printf "wrote %s (%d spans)\n" path (List.length events);
    r

let journal_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:
          "Append every tuning run to the flight-recorder journal FILE \
           (JSONL): canonical key, seed, per-iteration SURF state, and the \
           five-stage provenance lineage of every evaluated variant. Read it \
           back with the history, explain and replay subcommands.")

let journal_file_arg =
  Arg.(
    value
    & opt string "tuning-journal.jsonl"
    & info [ "journal" ] ~docv:"FILE"
        ~doc:"Tuning journal to read (default tuning-journal.jsonl).")

(* Run [f] with the tuning journal recording to [path] when set. Journaling
   draws no RNG state, so tuning results are identical with or without
   it. *)
let with_journal path f =
  match path with
  | None -> f ()
  | Some path ->
    Obs.Journal.start ~path ();
    let r = Fun.protect ~finally:Obs.Journal.stop f in
    List.iter
      (fun (e : Obs.Journal.entry) ->
        Printf.printf "journaled run %s (%s) to %s\n" (Obs.Journal.short e.run_id)
          e.label path)
      (Obs.Journal.entries ());
    r

let load_journal path =
  let entries, discarded = Obs.Journal.load path in
  if discarded > 0 then
    Printf.eprintf "warning: discarded %d torn or corrupt journal line%s\n"
      discarded
      (if discarded = 1 then "" else "s");
  entries

let find_run entries run =
  match Obs.Journal.find entries ~run with
  | Ok e -> e
  | Error msg -> failwith msg

let run_arg =
  Arg.(
    value & pos 0 string "latest"
    & info [] ~docv:"RUN"
        ~doc:"Run id (or unique prefix) from the journal; default latest.")

(* ---------------- variants ---------------- *)

let cmd_variants =
  let run src =
    List.iteri
      (fun si (set : Octopi.Variants.t) ->
        Printf.printf "statement %d: output %s, %d variants (naive: %d flops)\n" (si + 1)
          set.contraction.output
          (List.length set.variants)
          (Octopi.Contraction.naive_flops set.contraction);
        List.iter
          (fun (v : Octopi.Variants.variant) ->
            Printf.printf "  [%2d] %8d flops  fusion %d  %s\n" v.id v.flops
              (Octopi.Fusion.score v.schedule)
              (Octopi.Plan.describe v.plan))
          set.variants)
      (Barracuda.variants src)
  in
  Cmd.v (Cmd.info "variants" ~doc:"Enumerate OCTOPI strength-reduction variants.")
    Term.(const run $ src_args)

(* ---------------- tcr ---------------- *)

let cmd_tcr =
  let run src vid = print_string (Tcr.Ir.to_string (variant_choice src vid).v_ir) in
  Cmd.v (Cmd.info "tcr" ~doc:"Print the TCR intermediate form of a variant.")
    Term.(const run $ src_args $ variant_arg)

(* ---------------- space ---------------- *)

let cmd_space =
  let run src =
    let b = Barracuda.parse src in
    let choices = Autotune.Tuner.variant_choices b in
    Printf.printf "OCTOPI variants: %d\n" (List.length choices);
    Printf.printf "total tensor-code variants: %d\n" (Autotune.Tuner.total_space choices);
    List.iteri
      (fun i (c : Autotune.Tuner.variant_choice) ->
        let per_op =
          List.map (fun s -> string_of_int (Tcr.Space.count s)) c.spaces.op_spaces
        in
        Printf.printf "  variant %2d: %s kernels, space %s = %d\n" i
          (string_of_int (List.length c.spaces.op_spaces))
          (String.concat " x " per_op)
          (Tcr.Space.program_count c.spaces))
      choices
  in
  Cmd.v (Cmd.info "space" ~doc:"Summarize the autotuning search space.")
    Term.(const run $ src_args)

(* ---------------- tune ---------------- *)

let tune_common src arch seed evals prune =
  let b = Barracuda.parse src in
  let cfg = { Surf.Search.default_config with max_evals = evals } in
  let prune = if prune then Some Tcr.Prune.default else None in
  Autotune.Tuner.tune
    ~strategy:(Autotune.Tuner.Surf_search cfg)
    ?prune ~journal_seed:seed ~rng:(Util.Rng.create seed) ~arch b

let cmd_tune =
  let save_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE" ~doc:"Save the tuning artifact to FILE.")
  in
  let run src arch seed evals prune save profile_out journal_out =
    prepare_outputs [ save; profile_out; journal_out ];
    let result =
      with_journal journal_out (fun () ->
          with_profile profile_out (fun () -> tune_common src arch seed evals prune))
    in
    let s = Barracuda.summarize result in
    Format.printf "target: %s@\n%a@\n" result.arch.name Barracuda.pp_summary s;
    Format.printf "best variant: %s@\n"
      (String.concat "." (List.map string_of_int result.best.variant_ids));
    List.iteri
      (fun i p -> Format.printf "  kernel %d: %s@\n" (i + 1) (Tcr.Space.point_key p))
      result.best.points;
    (match result.importances with
    | [] -> ()
    | imps ->
      Format.printf "parameter importances:%s@\n"
        (String.concat ""
           (List.map (fun (n, w) -> Printf.sprintf " %s=%.2f" n w) imps)));
    match save with
    | None -> ()
    | Some path ->
      Autotune.Store.save_file path result;
      Printf.printf "saved tuning artifact to %s\n" path
  in
  Cmd.v (Cmd.info "tune" ~doc:"Autotune a tensor program with SURF and report.")
    Term.(
      const run $ src_args $ arch_arg $ seed_arg $ evals_arg $ prune_arg
      $ save_arg $ profile_out_arg $ journal_out_arg)

(* ---------------- annotations ---------------- *)

let cmd_annotations =
  let recipe_arg =
    Arg.(
      value & flag
      & info [ "recipe" ]
          ~doc:"Also tune and print the concrete transformation recipe.")
  in
  let run src vid arch seed evals want_recipe =
    print_string (Tcr.Orio.annotations (variant_choice src vid).spaces);
    if want_recipe then begin
      let result = tune_common src arch seed evals false in
      print_endline "/* tuned recipe */";
      print_endline (Tcr.Orio.recipe result.best.points)
    end
  in
  Cmd.v
    (Cmd.info "annotations"
       ~doc:"Print the Orio/CUDA-CHiLL search-space annotations (Figure 2(c)).")
    Term.(
      const run $ src_args $ variant_arg $ arch_arg $ seed_arg $ evals_arg
      $ recipe_arg)

(* ---------------- cuda ---------------- *)

let cmd_cuda =
  let out_arg =
    Arg.(
      value & opt (some string) None & info [ "o" ] ~docv:"FILE" ~doc:"Write CUDA to FILE.")
  in
  let from_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "from" ] ~docv:"FILE"
          ~doc:"Re-emit from a saved tuning artifact instead of searching.")
  in
  let run src arch seed evals prune from out =
    prepare_outputs [ out ];
    let cuda =
      match from with
      | Some path ->
        let saved = Autotune.Store.parse (Util.Fs.read_file path) in
        let b = Barracuda.parse ~label:saved.label src in
        let ir, points = Autotune.Store.restore b saved in
        Codegen.Cuda.emit_program ir points
      | None ->
        let result = tune_common src arch seed evals prune in
        Barracuda.cuda_of result
    in
    match out with
    | None -> print_string cuda
    | Some path ->
      Util.Fs.write_file path cuda;
      Printf.printf "wrote %s\n" path
  in
  Cmd.v (Cmd.info "cuda" ~doc:"Tune and emit the optimized CUDA code.")
    Term.(
      const run $ src_args $ arch_arg $ seed_arg $ evals_arg $ prune_arg
      $ from_arg $ out_arg)

(* ---------------- c ---------------- *)

let cmd_c =
  let mode_arg =
    let mode_conv =
      Arg.enum
        [ ("seq", `Seq); ("omp", `Omp); ("acc-naive", `Acc_naive);
          ("acc-optimized", `Acc_opt) ]
    in
    Arg.(
      value & opt mode_conv `Seq
      & info [ "mode" ] ~docv:"MODE" ~doc:"seq, omp, acc-naive or acc-optimized.")
  in
  let run src arch seed evals mode =
    let result = tune_common src arch seed evals false in
    let mode =
      match mode with
      | `Seq -> Codegen.C_emit.Sequential
      | `Omp -> Codegen.C_emit.Openmp
      | `Acc_naive -> Codegen.C_emit.Acc_naive
      | `Acc_opt ->
        Codegen.C_emit.Acc_optimized
          (List.map (fun (p : Tcr.Space.point) -> p.decomp) result.best.points)
    in
    print_string (Barracuda.c_of ~mode result)
  in
  Cmd.v (Cmd.info "c" ~doc:"Emit sequential C or OpenACC renderings.")
    Term.(const run $ src_args $ arch_arg $ seed_arg $ evals_arg $ mode_arg)

(* ---------------- driver ---------------- *)

let cmd_driver =
  let reps_arg =
    Arg.(value & opt (at_least 1) 100 & info [ "reps" ] ~docv:"N" ~doc:"Timed repetitions.")
  in
  let run src arch seed evals reps =
    let result = tune_common src arch seed evals false in
    print_string (Codegen.Driver.emit ~reps result.best.ir result.best.points)
  in
  Cmd.v
    (Cmd.info "driver"
       ~doc:"Tune and emit a standalone CUDA driver (main + timing + check).")
    Term.(const run $ src_args $ arch_arg $ seed_arg $ evals_arg $ reps_arg)

(* ---------------- inspect ---------------- *)

let cmd_inspect =
  let run src arch seed evals =
    let result = tune_common src arch seed evals false in
    Printf.printf "%s on %s: %.2f GFlops (simulated)\n\n" result.benchmark.label
      arch.Gpusim.Arch.name result.gflops;
    let graph = Tcr.Depgraph.build result.best.ir in
    Printf.printf "dependence waves: %d (max width %d)\n\n"
      (List.length (Tcr.Depgraph.waves graph))
      (Tcr.Depgraph.max_wave_width graph);
    List.iter2
      (fun (kr : Gpusim.Perf.kernel_report) point ->
        Printf.printf "%s  [%s]\n" kr.kernel_name (Tcr.Space.point_key point);
        Printf.printf
          "  bound: %-6s  time %.3g s (dp %.2e, issue %.2e, mem %.2e, launch %.1e)\n"
          kr.bound kr.time_s kr.t_dp kr.t_issue kr.t_mem kr.t_launch;
        Printf.printf "  occupancy %.2f (%s-limited, %d regs/thread)  grid util %.2f\n"
          kr.occupancy.occupancy kr.occupancy.limited_by kr.occupancy.regs_per_thread
          kr.grid_utilization;
        Printf.printf "  traffic: %.3g MB DRAM + %.3g MB L2\n" (kr.dram_bytes /. 1e6)
          (kr.l2_bytes /. 1e6);
        List.iter
          (fun (rr : Gpusim.Perf.ref_report) ->
            Printf.printf "    %-8s %4.1f trans/warp, %7d loads/thread, %s\n"
              rr.analysis.name rr.analysis.transactions_per_warp rr.analysis.loads_per_thread
              (match rr.memory_class with
              | Gpusim.Perf.L1_resident -> "L1-resident"
              | Gpusim.Perf.L2_shared -> "L2-shared"
              | Gpusim.Perf.Dram_raw -> "DRAM"))
          kr.refs)
      result.best_report.kernels result.best.points
  in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:"Tune and print the per-kernel performance-model breakdown.")
    Term.(const run $ src_args $ arch_arg $ seed_arg $ evals_arg)

(* ---------------- batch (tuning service) ---------------- *)

let service_config arch seed evals domains cache_dir =
  { Service.Engine.default_config with arch; domains; max_evals = evals; seed; cache_dir }

let cmd_batch =
  let files_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"FILE" ~doc:"Tensor program files (one request each).")
  in
  let exprs_arg =
    Arg.(
      value & opt_all string []
      & info [ "e"; "expr" ] ~docv:"EXPR" ~doc:"Inline tensor program (repeatable).")
  in
  let cache_arg =
    Arg.(
      value & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:"Persistent tuning-cache directory (created if missing).")
  in
  let domains_arg =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"N"
          ~doc:"Worker domains for parallel evaluation (default 1).")
  in
  let stats_flag =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print service metrics after the batch.")
  in
  let run files exprs arch seed evals domains cache_dir want_stats trace_out
      profile_out journal_out =
    prepare_outputs [ trace_out; profile_out; journal_out ];
    let requests =
      List.map
        (fun path ->
          {
            Service.Engine.label = Filename.remove_extension (Filename.basename path);
            src = Util.Fs.read_file path;
          })
        files
      @ List.mapi (fun i src -> { Service.Engine.label = Printf.sprintf "expr%d" (i + 1); src }) exprs
    in
    if requests = [] then failwith "no requests: give program files and/or -e EXPR";
    let svc = Service.Engine.create ~config:(service_config arch seed evals domains cache_dir) () in
    let responses =
      with_journal journal_out @@ fun () ->
      with_profile profile_out @@ fun () ->
      with_trace trace_out @@ fun () -> Service.Engine.batch svc requests
    in
    Printf.printf "%-16s %-14s %-12s %10s %10s\n" "request" "served" "key" "gflops" "wall";
    List.iter
      (fun (r : Service.Engine.response) ->
        Printf.printf "%-16s %-14s %-12s %10.2f %9.3fs\n" r.label
          (Service.Engine.served_name r.served)
          (Obs.Journal.short r.key) r.result.gflops r.wall_s)
      responses;
    if want_stats then begin
      print_newline ();
      print_string (Service.Engine.stats_report svc)
    end
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Serve a batch of tuning requests: canonical-cache lookup, deduplication, \
          multi-domain tuning of the cold remainder.")
    Term.(
      const run $ files_arg $ exprs_arg $ arch_arg $ seed_arg $ evals_arg
      $ domains_arg $ cache_arg $ stats_flag $ trace_out_arg $ profile_out_arg
      $ journal_out_arg)

(* ---------------- report ---------------- *)

let cmd_report =
  let prom_arg =
    Arg.(
      value & opt (some string) None
      & info [ "prom-out" ] ~docv:"FILE"
          ~doc:"Also write the Prometheus text exposition to FILE.")
  in
  let run src arch seed evals trace_out prom_out =
    prepare_outputs [ trace_out; prom_out ];
    let svc = Service.Engine.create ~config:(service_config arch seed evals 1 None) () in
    let response = with_trace trace_out (fun () -> Service.Engine.tune_dsl svc src) in
    Printf.printf "%s on %s: %.2f GFlops after %d evaluations (pool %d of %d)\n\n"
      response.label arch.Gpusim.Arch.name response.result.gflops
      response.result.evaluations response.result.pool_size
      response.result.total_space;
    print_string (Service.Engine.convergence_report response);
    print_newline ();
    print_string (Service.Engine.stats_report svc);
    let prom = Service.Engine.prometheus_report svc in
    match prom_out with
    | None ->
      print_newline ();
      print_string prom
    | Some path ->
      Util.Fs.write_file path prom;
      Printf.printf "\nwrote %s\n" path
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Tune a program and print the SURF convergence report (best-so-far, pool \
          coverage, surrogate R^2 per iteration) plus service metrics in \
          human-readable and Prometheus text form; --trace-out also writes \
          the traced tune as Chrome trace-event JSON.")
    Term.(
      const run $ src_args $ arch_arg $ seed_arg $ evals_arg $ trace_out_arg
      $ prom_arg)

(* ---------------- stats (cache inventory) ---------------- *)

let cmd_stats =
  let dir_arg =
    Arg.(
      required & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR" ~doc:"Tuning-cache directory to inspect.")
  in
  let run dir =
    let inv = Service.Tuning_cache.inventory ~dir in
    Printf.printf "cache %s: %d entries, %d corrupt\n" dir
      (List.length inv.entries) (List.length inv.corrupt_files);
    Printf.printf "%-14s %-14s %-12s %10s\n" "key" "label" "arch" "gflops";
    List.iter
      (fun (e : Service.Tuning_cache.entry) ->
        Printf.printf "%-14s %-14s %-12s %10.2f\n" (Obs.Journal.short e.key)
          e.saved.label e.saved.arch_name e.saved.gflops)
      inv.entries;
    List.iter
      (fun (file, reason) -> Printf.printf "corrupt: %s (%s)\n" file reason)
      inv.corrupt_files
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Inspect a persistent tuning-cache directory.")
    Term.(const run $ dir_arg)

(* ---------------- check ---------------- *)

let cmd_check =
  let tcr_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "tcr" ] ~docv:"FILE"
          ~doc:
            "Verify a textual TCR program (well-formedness layer only) instead \
             of a DSL source. The file is parsed without the parser's own \
             validation, so deliberately broken programs are diagnosed rather \
             than rejected at parse time.")
  in
  let net_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "net" ] ~docv:"FILE"
          ~doc:
            "Verify a tensor-network spec (network-stage BAR05x diagnostics: \
             dangling or mismatched indices, unknown output indices) plus the \
             sc_target and step-rank findings of its greedy contraction tree.")
  in
  let sc_target_arg =
    Arg.(
      value & opt float Netopt.Tree.default_score.sc_target
      & info [ "sc-target" ] ~docv:"L"
          ~doc:"log2 intermediate-size cap for --net tree findings.")
  in
  let max_points_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-points" ] ~docv:"N"
          ~doc:
            "Verify at most N search points per statement space (default: the \
             whole space).")
  in
  let no_lints_flag =
    Arg.(
      value & flag
      & info [ "no-lints" ]
          ~doc:
            "Errors only: skip every warning- and info-level lint, recipe and kernel.")
  in
  let semantic_flag =
    Arg.(
      value & flag
      & info [ "semantic" ]
          ~doc:
            "Also run translation validation: evaluate the five lineage \
             stages (dsl, variant, tcr, recipe, kernel) of the first variant \
             on random points of the prime field and prove them equivalent \
             (BAR06x on disagreement).")
  in
  let diff_flag =
    Arg.(
      value & flag
      & info [ "diff" ]
          ~doc:
            "Print each lineage stage's output digest from the first \
             validation round (implies --semantic).")
  in
  let rounds_arg =
    Arg.(
      value
      & opt (at_least 1) Check.Semantic.default_rounds
      & info [ "rounds" ] ~docv:"K"
          ~doc:"Schwartz-Zippel rounds for --semantic (at least 1).")
  in
  let sz_seed_arg =
    Arg.(
      value & opt int Check.Semantic.default_seed
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"RNG seed for --semantic's random field points.")
  in
  let mutate_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "mutate" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf
               "Self-test: inject a known-bad kernel mutation before validation \
                (%s) and verify it is caught (implies --semantic)."
               (String.concat ", " (List.map Check.Mutate.name Check.Mutate.all))))
  in
  let run src tcr net_file sc_target arch json max_points no_lints
      semantic diff rounds sz_seed mutate =
    let lints = not no_lints in
    let semantic = semantic || diff || mutate <> None in
    let mutate_kernel =
      match mutate with
      | None -> None
      | Some name -> (
        match Check.Mutate.of_name name with
        | Some m -> Some (fun k -> fst (Check.Mutate.apply m k))
        | None ->
          failwith
            (Printf.sprintf "unknown mutation %S (have: %s)" name
               (String.concat ", " (List.map Check.Mutate.name Check.Mutate.all))))
    in
    let report, bench =
      match (tcr, net_file) with
      | Some _, Some _ -> failwith "give at most one of --tcr, --net"
      | (Some _, _ | _, Some _) when src <> None ->
        failwith "give a program or --tcr/--net, not both"
      | Some path, None ->
        if semantic then
          failwith "--semantic validates DSL or --net programs, not --tcr";
        let text = Util.Fs.read_file path in
        let ir = Tcr.Read.program ~validate:false text in
        ({ Check.Verify.empty_report with diags = Check.Verify.ir ir }, None)
      | None, Some path ->
        (* network-stage diagnostics; tree findings only when the network
           itself is sound enough to optimize *)
        let net = Netopt.Network.of_file path in
        let diags = Netopt.Network.validate net in
        let tree =
          if Check.Diag.has_errors diags then None
          else Some (Netopt.Greedy.optimize net)
        in
        let diags =
          match tree with
          | None -> diags
          | Some t -> diags @ Netopt.Tree.check ~sc_target net t
        in
        (* the semantic stage validates the network via its DSL lowering -
           the same source a network tune feeds the pipeline *)
        let bench =
          match tree with
          | Some t when semantic -> Some (Barracuda.parse (Netopt.Lower.to_dsl net t))
          | _ -> None
        in
        ({ Check.Verify.empty_report with diags }, bench)
      | None, None ->
        let b = Barracuda.parse (need_program src) in
        let labeled =
          List.map
            (fun (c : Autotune.Tuner.variant_choice) ->
              (Autotune.Provenance.variant_name c.ids, c.spaces))
            (Autotune.Tuner.variant_choices b)
        in
        ( Check.Verify.program ~lints ?max_points_per_op:max_points ~arch labeled,
          Some b )
    in
    (* translation validation of the first variant choice at its first
       enumerated point - a fixed, reproducible candidate *)
    let verdict =
      match bench with
      | Some (b : Autotune.Tuner.benchmark) when semantic -> (
        let c = List.hd (Autotune.Tuner.variant_choices b) in
        match Autotune.Tuner.empty_ops [ c ] with
        | [] ->
          let points =
            List.map
              (fun s -> List.hd (Tcr.Space.enumerate s))
              c.Autotune.Tuner.spaces.op_spaces
          in
          Some
            (Check.Semantic.validate ~rounds ~seed:sz_seed ~walk:true ?mutate_kernel
               ~label:b.label b.statements ~variant_ids:c.Autotune.Tuner.ids
               ~ir:c.Autotune.Tuner.v_ir ~points)
        | ops ->
          (* no candidate to validate: an error, since nothing is proven *)
          Some
            {
              Check.Semantic.equivalent = false;
              failed_stage = None;
              rounds_run = 0;
              stages = [];
              diags =
                [
                  Check.Diag.error Check.Diag.Semantic ~code:"BAR064" ~site:b.label
                    "no search point for %s, so no candidate can be validated"
                    (String.concat ", " ops);
                ];
              kernel_proven = false;
            })
      | _ -> None
    in
    let report =
      match verdict with
      | None -> report
      | Some v -> { report with diags = report.diags @ v.Check.Semantic.diags }
    in
    if json then begin
      let j = Check.Verify.report_json report in
      let j =
        match (verdict, j) with
        | Some v, Obs.Json.Obj fields ->
          Obs.Json.Obj
            (fields
            @ [
                ( "semantic",
                  Obs.Json.Obj
                    ([
                       ("equivalent", Obs.Json.Bool v.Check.Semantic.equivalent);
                       ("rounds_run", Obs.Json.of_int v.rounds_run);
                     ]
                    @ (match v.failed_stage with
                      | None -> []
                      | Some s -> [ ("failed_stage", Obs.Json.Str s) ])
                    @ [
                        ( "stages",
                          Obs.Json.Obj
                            (List.map (fun (n, d) -> (n, Obs.Json.Str d)) v.stages)
                        );
                      ]) );
              ])
        | _ -> j
      in
      print_endline (Obs.Json.to_string j)
    end
    else begin
      if report.variants > 0 then
        Printf.printf "verified %d variant%s: %d search points, %d kernels%s\n"
          report.variants
          (if report.variants = 1 then "" else "s")
          report.points_checked report.kernels_checked
          (if report.truncated then " (per-op point cap reached)" else "");
      print_endline (Check.Verify.summary_line report);
      (match verdict with
      | None -> ()
      | Some v ->
        Printf.printf "translation validation: %s (%d round%s, seed %d)\n"
          (match (v.Check.Semantic.equivalent, v.failed_stage) with
          | true, _ -> "equivalent across all five stages"
          | false, Some stage -> Printf.sprintf "FAILED at the %s stage" stage
          | false, None -> "nothing proven")
          v.rounds_run
          (if v.rounds_run = 1 then "" else "s")
          sz_seed;
        if diff then begin
          Printf.printf "stage digests (round 1):\n";
          List.iter (fun (name, d) -> Printf.printf "  %-8s %s\n" name d) v.stages
        end);
      if report.diags <> [] then begin
        print_newline ();
        print_string (Check.Diag.render_report report.diags)
      end
    end;
    if Check.Diag.has_errors report.diags then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Statically verify a tensor program end to end: TCR well-formedness, \
          recipe legality of every search point, kernel resource analysis \
          (bounds proof, registers, launch limits) and symbolic access facts \
          (exact coalescing, occupancy) for every variant, \
          plus (--semantic) translation validation over the prime field. \
          Exits nonzero when any error-severity diagnostic is found.")
    Term.(
      const run $ src_opt_arg $ tcr_arg $ net_arg
      $ sc_target_arg $ arch_arg $ json_flag $ max_points_arg $ no_lints_flag
      $ semantic_flag $ diff_flag $ rounds_arg $ sz_seed_arg $ mutate_arg)

(* ---------------- net (tensor-network contraction orders) ----------- *)

let cmd_net =
  let file_arg =
    Arg.(
      value & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"Network spec file (tensor/extent/output directives).")
  in
  let einsum_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "einsum" ] ~docv:"SPEC"
          ~doc:"N-tensor einsum spec, e.g. 'ab,bc,cd,de->ae'.")
  in
  let gen_arg =
    let shape = Arg.enum [ ("line", `Line); ("ring", `Ring); ("power", `Power) ] in
    Arg.(
      value
      & opt (some shape) None
      & info [ "gen" ] ~docv:"SHAPE"
          ~doc:
            "Generate a random network instead of reading one: line (open \
             chain), ring (closed chain) or power (preferential-attachment \
             graph).")
  in
  let n_arg =
    Arg.(
      value & opt int 20
      & info [ "n" ] ~docv:"N" ~doc:"Generated network size (default 20).")
  in
  let gen_seed_arg =
    Arg.(
      value & opt int 1
      & info [ "gen-seed" ] ~docv:"N"
          ~doc:"Seed for --gen network generation (default 1).")
  in
  let sa_iters_arg =
    Arg.(
      value & opt int Netopt.Treesa.default_config.sa_iters
      & info [ "sa-iters" ] ~docv:"N" ~doc:"TreeSA annealing proposals.")
  in
  let weight name doc default =
    Arg.(value & opt float default & info [ name ] ~docv:"W" ~doc)
  in
  let tc_arg = weight "tc-weight" "Score weight on log2 time complexity." 1.0 in
  let sc_arg = weight "sc-weight" "Score weight on the sc_target overflow." 1.0 in
  let rw_arg = weight "rw-weight" "Score weight on log2 read/write volume." 1.0 in
  let sc_target_arg =
    Arg.(
      value & opt float Netopt.Tree.default_score.sc_target
      & info [ "sc-target" ] ~docv:"L"
          ~doc:
            "log2 elements an intermediate may occupy (the GPU-memory cap); \
             exceeding it is hard-penalized.")
  in
  let emit_dsl_flag =
    Arg.(
      value & flag
      & info [ "emit-dsl" ]
          ~doc:"Print the TreeSA tree lowered to Figure 2(a) DSL text.")
  in
  let tune_flag =
    Arg.(
      value & flag
      & info [ "tune" ]
          ~doc:
            "Lower the TreeSA tree and autotune the resulting program through \
             the full variants/TCR/SURF/codegen pipeline.")
  in
  let tree_json name (c : Netopt.Tree.cost) score order =
    ( name,
      Obs.Json.Obj
        [
          ("order", Obs.Json.Str order);
          ("tc", Obs.Json.Num c.tc);
          ("sc", Obs.Json.Num c.sc);
          ("rw", Obs.Json.Num c.rw);
          ("score", Obs.Json.Num score);
        ] )
  in
  let run file einsum gen n gen_seed seed sa_iters tc_w sc_w rw_w sc_target
      json emit_dsl do_tune arch evals journal_out =
    prepare_outputs [ journal_out ];
    let net =
      match (file, einsum, gen) with
      | Some path, None, None -> Netopt.Network.of_file path
      | None, Some spec, None -> Netopt.Network.of_einsum spec
      | None, None, Some shape -> (
        let rng = Util.Rng.create gen_seed in
        (* each generator rejects an [n] below its shape's minimum *)
        try
          match shape with
          | `Line -> Netopt.Gen.line ~n rng
          | `Ring -> Netopt.Gen.ring ~n rng
          | `Power -> Netopt.Gen.power_law ~n rng
        with Invalid_argument msg -> failwith msg)
      | None, None, None ->
        failwith "no input: give a network spec file, --einsum or --gen"
      | _ -> failwith "give exactly one of: a file, --einsum, --gen"
    in
    let diags = Netopt.Network.validate net in
    if diags <> [] then prerr_string (Check.Diag.render_report diags);
    if Check.Diag.has_errors diags then exit 1;
    let score =
      { Netopt.Tree.tc_weight = tc_w; sc_weight = sc_w; rw_weight = rw_w; sc_target }
    in
    let greedy = Netopt.Greedy.optimize net in
    let config = { Netopt.Treesa.default_config with sa_iters } in
    let treesa =
      Netopt.Treesa.optimize ~config ~score ~rng:(Util.Rng.create seed) net
    in
    let cg = Netopt.Tree.cost net greedy and ct = Netopt.Tree.cost net treesa in
    let sg = Netopt.Tree.score score cg and st = Netopt.Tree.score score ct in
    let og = Netopt.Tree.to_string net greedy
    and ot = Netopt.Tree.to_string net treesa in
    if json then
      print_endline
        (Obs.Json.to_string
           (Obs.Json.Obj
              [
                ("tensors", Obs.Json.of_int (List.length net.tensors));
                ("indices", Obs.Json.of_int (List.length (Netopt.Network.all_indices net)));
                ("output", Obs.Json.Arr (List.map (fun i -> Obs.Json.Str i) net.output));
                ("sc_target", Obs.Json.Num sc_target);
                tree_json "greedy" cg sg og;
                tree_json "treesa" ct st ot;
              ]))
    else begin
      Printf.printf "network: %d tensors, %d indices, output [%s]\n"
        (List.length net.tensors)
        (List.length (Netopt.Network.all_indices net))
        (String.concat " " net.output);
      Printf.printf "%-8s %8s %8s %8s %10s\n" "method" "tc" "sc" "rw" "score";
      Printf.printf "%-8s %8.2f %8.2f %8.2f %10.2f\n" "greedy" cg.tc cg.sc cg.rw sg;
      Printf.printf "%-8s %8.2f %8.2f %8.2f %10.2f\n" "treesa" ct.tc ct.sc ct.rw st;
      Printf.printf "treesa order: %s\n" ot
    end;
    if emit_dsl then print_string (Netopt.Lower.to_dsl net treesa);
    if do_tune then begin
      let dsl = Netopt.Lower.to_dsl net treesa in
      let b = Autotune.Tuner.benchmark_of_dsl ~label:"network" dsl in
      let cfg = { Surf.Search.default_config with max_evals = evals } in
      let result =
        with_journal journal_out (fun () ->
            Autotune.Tuner.tune
              ~strategy:(Autotune.Tuner.Surf_search cfg)
              ~journal_seed:seed
              ~journal_net:(Netopt.Lower.provenance ~meth:"treesa" ~score net treesa)
              ~rng:(Util.Rng.create seed) ~arch b)
      in
      Printf.printf
        "tuned %d-statement program on %s: %.2f GFlops after %d evaluations\n"
        (List.length b.statements) arch.Gpusim.Arch.name result.gflops
        result.evaluations
    end
  in
  Cmd.v
    (Cmd.info "net"
       ~doc:
         "Optimize the contraction order of an N-tensor network: score the \
          greedy baseline against the TreeSA simulated-annealing tree (log2 \
          time/space/read-write under an sc_target memory cap), and \
          optionally lower the winner into the autotuning pipeline.")
    Term.(
      const run $ file_arg $ einsum_arg $ gen_arg $ n_arg
      $ gen_seed_arg $ seed_arg $ sa_iters_arg $ tc_arg $ sc_arg $ rw_arg
      $ sc_target_arg $ json_flag $ emit_dsl_flag $ tune_flag $ arch_arg
      $ evals_arg $ journal_out_arg)

(* ---------------- archs ---------------- *)

let cmd_archs =
  let run () =
    List.iter
      (fun (a : Gpusim.Arch.t) ->
        Printf.printf "%-12s (%s): %d SMs @ %.3f GHz, DP peak %.0f GFlops, %.0f GB/s\n"
          a.name a.codename a.sm_count a.clock_ghz (Gpusim.Arch.dp_peak_gflops a)
          a.mem_bw_gbs)
      Gpusim.Arch.all
  in
  Cmd.v (Cmd.info "archs" ~doc:"List the simulated GPU architectures.")
    Term.(const run $ const ())

(* ---------------- history / explain / replay (tuning journal) ------- *)

let cmd_history =
  let tail_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "tail" ] ~docv:"N" ~doc:"Show only the N most recent runs.")
  in
  let since_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "since" ] ~docv:"RUN"
          ~doc:"Show only the runs recorded after RUN (id or unique prefix).")
  in
  let run journal tail since json =
    let entries = load_journal journal in
    let entries =
      match since with
      | None -> entries
      | Some run ->
        let anchor = find_run entries run in
        let rec after = function
          | [] -> []
          | (e : Obs.Journal.entry) :: rest ->
            if e.run_id = anchor.Obs.Journal.run_id then rest else after rest
        in
        after entries
    in
    let entries =
      match tail with
      | None -> entries
      | Some n when n <= 0 -> []
      | Some n ->
        let len = List.length entries in
        List.filteri (fun i _ -> i >= len - n) entries
    in
    if json then
      print_endline
        (Obs.Json.to_string ~indent:true (Obs.Journal.history_json entries))
    else print_string (Obs.Journal.render_history entries)
  in
  Cmd.v
    (Cmd.info "history"
       ~doc:
         "List the runs recorded in a tuning journal: all of them, the most \
          recent N (--tail), or the ones after a given run (--since); \
          --json emits machine-readable summaries instead.")
    Term.(
      const run $ journal_file_arg $ tail_arg $ since_arg
      $ json_flag)

let cmd_explain =
  let run journal run_id =
    print_string (Obs.Journal.render_explain (find_run (load_journal journal) run_id))
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Full report for one journaled run: the winner's five-stage \
          provenance lineage, named parameter importances of the surrogate, \
          its predicted-vs-measured fit, and the rejected rivals.")
    Term.(const run $ journal_file_arg $ run_arg)

let cmd_replay =
  let tolerance_arg =
    Arg.(
      value & opt finite_nonneg 0.05
      & info [ "tolerance" ] ~docv:"R"
          ~doc:"Allowed |measured-time ratio - 1| before declaring drift.")
  in
  let run journal run_id prune tolerance =
    let entry = find_run (load_journal journal) run_id in
    let arch =
      match
        List.find_opt
          (fun a -> Gpusim.Arch.fingerprint a = entry.Obs.Journal.arch)
          Gpusim.Arch.all
      with
      | Some a -> a
      | None -> (
        (* no exact fingerprint: resolve by name so the replay reports the
           device-identity drift instead of failing to find the arch *)
        let name = Obs.Journal.arch_name entry.Obs.Journal.arch in
        match Gpusim.Arch.by_name name with
        | Some a -> a
        | None -> failwith (Printf.sprintf "unknown architecture %S" name))
    in
    let prune = if prune then Some Tcr.Prune.default else None in
    match Autotune.Replay.replay ?prune ~time_tolerance:tolerance ~arch entry with
    | Error msg -> failwith msg
    | Ok verdict ->
      print_string (Autotune.Replay.render verdict);
      if not (Autotune.Replay.ok verdict) then exit 1
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-run a journaled tune from its recorded inputs (DSL, seed, \
          budget) and exit nonzero if the winning kernel hash or the \
          measured-time ratio drifts.")
    Term.(const run $ journal_file_arg $ run_arg $ prune_arg $ tolerance_arg)

(* ---------------- loadgen / slo (telemetry) ---------------- *)

(* The replay configuration of the deterministic load harness. *)
let loadgen_config_term =
  let requests =
    Arg.(
      value
      & opt (at_least 1) 10_000
      & info [ "requests" ] ~docv:"N" ~doc:"Requests to replay (default 10000).")
  in
  let batch =
    Arg.(
      value
      & opt (at_least 1) 16
      & info [ "batch" ] ~docv:"N" ~doc:"Requests per engine batch (default 16).")
  in
  let error_rate =
    Arg.(
      value & opt unit_interval 0.001
      & info [ "error-rate" ] ~docv:"R"
          ~doc:"Injected failure probability per request (default 0.001).")
  in
  let degrade =
    Arg.(
      value
      & opt (float_where "> 0" (fun x -> x > 0.)) 1.0
      & info [ "degrade" ] ~docv:"X"
          ~doc:
            "Latency-model multiplier; >1 simulates a regression, inf an \
             unbounded one (default 1).")
  in
  let degrade_at =
    Arg.(
      value & opt int 0
      & info [ "degrade-at" ] ~docv:"TICK"
          ~doc:
            "First tick the --degrade multiplier applies to; 0 degrades the \
             whole run, a mid-run tick injects a regression the change-point \
             monitors must catch (default 0).")
  in
  let monitor =
    Arg.(
      value & flag
      & info [ "monitor" ]
          ~doc:
            "Attach online change-point monitors to the latency stream (p99 \
             quantile-shift and mean CUSUM, self-calibrated from the early \
             windows); alarms are reported and make loadgen exit nonzero.")
  in
  let p99_budget =
    Arg.(
      value
      & opt finite_nonneg Obs.Slo.default_spec.latency_budget_s
      & info [ "p99-budget" ] ~docv:"SECONDS"
          ~doc:"p99 latency budget of the SLO, in seconds (default 0.005).")
  in
  let error_objective =
    Arg.(
      value & opt unit_interval Obs.Slo.default_spec.error_objective
      & info [ "error-objective" ] ~docv:"R"
          ~doc:"Tolerated error ratio of the SLO (default 0.01).")
  in
  let window_width =
    Arg.(
      value
      & opt (at_least 1) 250
      & info [ "window-width" ] ~docv:"TICKS"
          ~doc:"Logical ticks per telemetry-window epoch (default 250).")
  in
  let window_buckets =
    Arg.(
      value
      & opt (at_least 1) 8
      & info [ "window-buckets" ] ~docv:"N"
          ~doc:"Epochs in the telemetry-window ring (default 8).")
  in
  let reps_arg =
    Arg.(
      value
      & opt (at_least 1) 3
      & info [ "reps" ] ~docv:"N"
          ~doc:"Measurement repetitions per cold-tune evaluation (default 3).")
  in
  let mk arch seed evals reps requests batch error_rate degrade degrade_at
      monitor p99 err_obj width buckets =
    let engine = Service.Loadgen.default_config.engine in
    {
      Service.Loadgen.requests;
      seed;
      batch;
      error_rate;
      degrade;
      degrade_at;
      monitor;
      window_width = width;
      window_buckets = buckets;
      slo =
        {
          Obs.Slo.default_spec with
          latency_budget_s = p99;
          error_objective = err_obj;
        };
      engine = { engine with arch; seed; max_evals = evals; reps };
    }
  in
  Term.(
    const mk $ arch_arg $ seed_arg $ evals_arg $ reps_arg $ requests $ batch
    $ error_rate $ degrade $ degrade_at $ monitor $ p99_budget
    $ error_objective $ window_width $ window_buckets)

(* Read a replay artifact with [read] ({!Obs.Replay.load} or
   {!Obs.Replay.summarize}); any failure names the file. *)
let read_replay read path =
  match read path with
  | Ok v -> v
  | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)

let replay_file_arg =
  Arg.(
    value & pos 0 string "load.jsonl"
    & info [] ~docv:"FILE"
        ~doc:"Replay artifact written by 'loadgen --out' (default load.jsonl).")

let cmd_loadgen =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Record the replay to FILE (JSONL, deterministic for a fixed \
             seed): a header line, then one line per request as it is \
             served. The slo, ledger, whatif and doctor --load commands \
             re-derive their reports from it.")
  in
  let frames_arg =
    Arg.(
      value
      & opt (at_least 0) 0
      & info [ "frames" ] ~docv:"N"
          ~doc:
            "Print N dashboard frames of the telemetry window (per-epoch \
             rates, quantiles, a p99 sparkline), evenly spaced over the \
             replay (default 0).")
  in
  let run journal cfg frames out =
    prepare_outputs [ out ];
    let entries = load_journal journal in
    let mix = Service.Loadgen.mix_of_journal entries in
    if mix = [] then
      failwith
        (Printf.sprintf
           "journal %s holds no runs; record one first, e.g. 'barracuda tune \
            --journal=%s -e EXPR'"
           journal journal);
    let frame w ~now =
      Printf.printf "--- tick %d ---\n%s\n" now (Obs.Window.render w ~now)
    in
    let frame_every =
      if frames = 0 then None else Some (max 1 (cfg.Service.Loadgen.requests / frames))
    in
    let replay out =
      Service.Loadgen.run ~on_frame:frame ?frame_every ?out
        ~run_ids:(Service.Loadgen.run_ids_of_journal entries)
        cfg mix
    in
    let r =
      match out with
      | None -> replay None
      | Some path -> Out_channel.with_open_bin path (fun oc -> replay (Some oc))
    in
    print_string (Service.Loadgen.render r);
    Option.iter (Printf.printf "wrote replay to %s\n") out;
    if not (Obs.Slo.ok r.summary.verdict) || r.summary.alarms <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Replay the request mix recorded in a tuning journal against a real \
          engine, stream the modeled latencies through sliding telemetry \
          windows, and exit nonzero if the final SLO verdict pages or (with \
          --monitor) a change-point monitor alarms.")
    Term.(
      const run $ journal_file_arg $ loadgen_config_term $ frames_arg $ out_arg)

let cmd_slo =
  let run path =
    let s = read_replay Obs.Replay.summarize path in
    print_string (Obs.Slo.render s.verdict);
    if not (Obs.Slo.ok s.verdict) then exit 1
  in
  Cmd.v
    (Cmd.info "slo"
       ~doc:
         "Render the final SLO verdict of a recorded replay and exit nonzero \
          if it pages.")
    Term.(const run $ replay_file_arg)

let cmd_doctor =
  let bench_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "bench" ] ~docv:"FILE"
          ~doc:
            "Benchmark artifact (BENCH_*.json) to correlate: service \
             quantiles already over the SLO budget corroborate a paged \
             verdict.")
  in
  let load_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "load" ] ~docv:"FILE"
          ~doc:
            "Replay artifact written by 'loadgen --out': its SLO verdict, \
             drift alarms and serve counts, and the DR04x phase-attribution \
             findings and worst-request exemplar jump of its ledger.")
  in
  let run journal bench load json =
    let entries, discarded = Obs.Journal.load journal in
    let bench =
      match bench with
      | None -> None
      | Some path -> (
        match Obs.Bench_log.read path with
        | Ok a -> Some a
        | Error msg -> failwith (Printf.sprintf "%s: %s" path msg))
    in
    let replay = Option.map (read_replay Obs.Replay.summarize) load in
    let report =
      Obs.Doctor.diagnose { Obs.Doctor.journal = entries; discarded; bench; replay }
    in
    if json then
      print_endline (Obs.Json.to_string ~indent:true (Obs.Doctor.to_json report))
    else print_string (Obs.Doctor.render report);
    if Obs.Doctor.has_critical report then exit 1
  in
  Cmd.v
    (Cmd.info "doctor"
       ~doc:
         "Correlate a tuning journal, a benchmark artifact and a recorded \
          replay into a health report: paged SLOs and change-point alarms \
          are attributed to ranked suspects (arch change, kernel regression \
          at the earliest diverging lineage stage, surrogate drift, cache \
          eviction). Exits nonzero on a critical finding.")
    Term.(const run $ journal_file_arg $ bench_arg $ load_arg $ json_flag)

(* ---------------- ledger / whatif (causal cost ledger) ---------------- *)

let cmd_ledger =
  let prom_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "prom-out" ] ~docv:"FILE"
          ~doc:
            "Write a Prometheus exposition of the per-phase and per-class \
             histograms.")
  in
  let run path json prom_out =
    prepare_outputs [ prom_out ];
    let s = read_replay Obs.Replay.summarize path in
    let report = Obs.Ledger.report s.ledger in
    if json then
      print_endline (Obs.Json.to_string ~indent:true (Obs.Ledger.report_json report))
    else print_string (Obs.Ledger.render report);
    Option.iter
      (fun out ->
        Util.Fs.write_file out (Obs.Ledger.prometheus s.ledger);
        Printf.printf "wrote Prometheus exposition to %s\n" out)
      prom_out
  in
  Cmd.v
    (Cmd.info "ledger"
       ~doc:
         "Render the causal cost ledger of a recorded replay: per-phase \
          cost quantiles split by serve class (cold/warm/dedup), phase \
          shares of modeled time, and the worst-request exemplars that \
          link slow p99 slots back to journal runs.")
    Term.(const run $ replay_file_arg $ json_flag $ prom_arg)

let cmd_whatif =
  let factors_arg =
    Arg.(
      value
      & opt
          (list (float_where "finite and > 0" (fun x -> Float.is_finite x && x > 0.)))
          [ 0.5; 0.25; 0.1 ]
      & info [ "factors" ] ~docv:"F,F,..."
          ~doc:
            "Speedup factors to apply to each phase's modeled cost \
             (default 0.5,0.25,0.1).")
  in
  let expect_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "expect-top" ] ~docv:"PHASE"
          ~doc:
            "Exit nonzero unless the causal ranking's top phase is PHASE \
             (the CI gate pinning where the next perf PR must aim).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Write the machine-readable ranking to FILE (bit-identical \
             across runs of the same replay artifact).")
  in
  let run path factors expect_top json out =
    prepare_outputs [ out ];
    let header, records = read_replay Obs.Replay.load path in
    let ranking = Obs.Replay.whatif ~factors header records in
    if json then
      print_endline (Obs.Json.to_string ~indent:true (Obs.Replay.whatif_json ranking))
    else print_string (Obs.Replay.render_whatif ranking);
    (match out with
    | Some p ->
      Util.Fs.write_file p (Obs.Json.to_string (Obs.Replay.whatif_json ranking));
      Printf.printf "wrote what-if ranking to %s\n" p
    | None -> ());
    match expect_top with
    | None -> ()
    | Some name -> (
      match Obs.Ledger.phase_of_name name with
      | None -> failwith (Printf.sprintf "unknown phase %S" name)
      | Some expected -> (
        match Obs.Replay.top ranking with
        | Some actual when actual = expected -> ()
        | top ->
          Printf.eprintf
            "whatif: expected top phase %s, ranking says %s\n" name
            (match top with
            | Some p -> Obs.Ledger.phase_name p
            | None -> "(empty)");
          exit 1))
  in
  Cmd.v
    (Cmd.info "whatif"
       ~doc:
         "Exact causal profiling over a recorded replay: virtually speed \
          up each phase by the given factors, recompute every request's \
          latency, and rank phases by their true p99 impact. Deterministic \
          - two runs over the same artifact are bit-identical.")
    Term.(
      const run $ replay_file_arg $ factors_arg $ expect_arg
      $ json_flag $ out_arg)

(* ---------------- main ---------------- *)

(* Every command with its one-line summary: the command group and the
   usage screen are both built from this list. *)
let commands =
  [
    (cmd_variants, "enumerate the OCTOPI strength-reduction variants");
    (cmd_tcr, "print the TCR form of a chosen variant");
    (cmd_space, "summarize the autotuning search space");
    (cmd_annotations, "print the Orio/CUDA-CHiLL search-space annotations");
    (cmd_tune, "run the full pipeline (SURF autotuning) and report");
    (cmd_cuda, "tune and emit the optimized CUDA translation unit");
    (cmd_driver, "tune and emit a standalone CUDA driver");
    (cmd_c, "emit sequential C or OpenACC renderings");
    (cmd_inspect, "tune and print the per-kernel performance-model breakdown");
    ( cmd_check,
      "statically verify a program across all variants and points \
       (--semantic adds translation validation)" );
    (cmd_batch, "serve many requests via the tuning service (cache + domains)");
    (cmd_stats, "inspect a persistent tuning-cache directory");
    (cmd_report, "tune and print convergence + metrics reports");
    (cmd_net, "optimize an N-tensor network's contraction order (greedy vs TreeSA)");
    (cmd_archs, "list the simulated GPU architectures");
    (cmd_history, "list the runs recorded in a tuning journal");
    (cmd_explain, "full report for one journaled run (lineage, importances)");
    (cmd_replay, "re-run a journaled tune; exit nonzero on drift");
    (cmd_loadgen, "replay a journal's request mix; exit nonzero on SLO breach");
    (cmd_slo, "render the SLO verdict of a saved replay report");
    (cmd_doctor, "correlate journal/bench/SLO artifacts into a health report");
    (cmd_ledger, "render the per-phase causal cost ledger of a recorded replay");
    (cmd_whatif, "rank phases by exact causal p99 impact (virtual speedups)");
  ]

(* Shown on bare invocation and on --help, and on stderr (exit 2) for an
   unknown command. *)
let usage_screen =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "barracuda - autotuning tensor-contraction compiler for (simulated) GPUs\n\n\
     usage: barracuda COMMAND [OPTIONS]\n\ncommands:\n";
  List.iter
    (fun (cmd, summary) ->
      Buffer.add_string b (Printf.sprintf "  %-12s %s\n" (Cmd.name cmd) summary))
    commands;
  Buffer.add_string b
    "\nRun 'barracuda COMMAND --help' for the options of one command.\n";
  Buffer.contents b

let () =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some Logs.Warning);
  let info =
    Cmd.info "barracuda" ~version:"1.0.0"
      ~doc:"Autotuning tensor-contraction compiler for (simulated) GPUs."
  in
  let group = Cmd.group info (List.map fst commands) in
  match Array.to_list Sys.argv with
  | [ _ ] | _ :: ("--help" | "-h" | "help") :: _ ->
    print_string usage_screen;
    exit 0
  | _ :: cmd :: _
    when cmd <> ""
         && cmd.[0] <> '-'
         && not (List.exists (fun (c, _) -> Cmd.name c = cmd) commands) ->
    prerr_string usage_screen;
    Printf.eprintf "\nbarracuda: unknown command %S\n" cmd;
    exit 2
  | _ -> (
    (* The one place exceptions end a command. A user error - bad input,
       an unreadable file, a program without a search point - prints its
       message and exits 1; anything else is a bug and keeps Cmdliner's
       internal-error report and exit 125. *)
    match Cmd.eval ~catch:false group with
    | code -> exit code
    | exception
        ( Failure msg
        | Sys_error msg
        | Octopi.Parse.Error msg
        | Octopi.Contraction.Invalid msg
        | Octopi.Einsum_notation.Error msg
        | Netopt.Network.Parse_error msg
        | Tcr.Read.Error msg
        | Tcr.Orio.Parse_error msg
        | Autotune.Store.Error msg
        | Autotune.Tuner.Empty_space msg ) ->
      prerr_endline ("barracuda: " ^ msg);
      exit 1
    | exception e ->
      let bt = Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ()) in
      let bt = if bt = "" then bt else String.sub bt 0 (String.length bt - 1) in
      Format.eprintf "barracuda: @[internal error, uncaught exception:@\n%a@]@."
        (Format.pp_print_list ~pp_sep:Format.pp_force_newline Format.pp_print_string)
        (String.split_on_char '\n' (Printexc.to_string e ^ "\n" ^ bt));
      exit Cmd.Exit.internal_error)
