(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (printing measured vs published values) and runs one Bechamel
   micro-benchmark per table/figure measuring the cost of regenerating a
   scaled-down version of it.

   Usage:
     bench/main.exe [EXPERIMENT...] [FLAGS]

   Experiments (none = all, in the order below):
     claims space table2 table3 table4 figure3 surf-vs-brute ablation
     modelcheck motivation sweep service netopt telemetry drift ledger
     check bechamel

   Flags compose with any experiment selection; unknown --flags are an
   error, not a silently ignored subcommand:
     --list             print the experiment names, one per line, and exit
     --trace-dir=DIR    trace every experiment; write DIR/<name>.trace.json
                        (Chrome trace-event, loadable in chrome://tracing);
                        nested DIRs are created recursively
     --json-out=FILE    write a benchmark artifact (Obs.Bench_log JSON):
                        per-experiment wall time, raw Bechamel samples and
                        OLS estimates, service latency quantiles, and
                        pipeline span timings aggregated from the trace
     --compare=FILE     after running, compare against the baseline
                        artifact in FILE (e.g. bench/baseline.json); print
                        a delta table and exit 1 on a statistically
                        significant slowdown (Mann-Whitney + bootstrap CI
                        over raw samples, see Util.Stats.compare_samples)
     --compare-threshold=R  minimum median ratio to call a regression
                        (default 1.5; CI uses a generous value so shared
                        runners only gate on order-of-magnitude slowdowns)
     --compare-alpha=A  significance level of the gate (default 0.01) *)

type options = {
  trace_dir : string option;
  json_out : string option;
  compare_to : string option;
  threshold : float;
  alpha : float;
}

let default_options =
  { trace_dir = None; json_out = None; compare_to = None; threshold = 1.5; alpha = 0.01 }

let experiment_names =
  [ "claims"; "space"; "table2"; "table3"; "table4"; "figure3"; "surf-vs-brute";
    "ablation"; "modelcheck"; "motivation"; "sweep"; "service"; "netopt";
    "telemetry"; "drift"; "ledger"; "check"; "bechamel" ]

let usage () =
  Printf.eprintf
    "usage: main.exe [EXPERIMENT...] [--list] [--trace-dir=DIR] \
     [--json-out=FILE] [--compare=FILE] [--compare-threshold=R] \
     [--compare-alpha=A]\n\
     experiments: %s\n"
    (String.concat " " experiment_names);
  exit 2

(* Flag-stripping parser: every --flag (anywhere on the command line) is
   consumed here, the rest must be experiment names. An unknown --flag is
   a hard error instead of falling through to the usage as a bogus
   experiment. *)
let parse_argv argv =
  let opts = ref default_options in
  let positional = ref [] in
  let split_flag a =
    match String.index_opt a '=' with
    | Some i -> (String.sub a 0 i, Some (String.sub a (i + 1) (String.length a - i - 1)))
    | None -> (a, None)
  in
  let value name = function
    | Some v when v <> "" -> v
    | _ ->
      Printf.eprintf "flag %s requires a value (%s=...)\n" name name;
      usage ()
  in
  let float_value name v =
    let v = value name v in
    match float_of_string_opt v with
    | Some x -> x
    | None ->
      Printf.eprintf "flag %s: %S is not a number\n" name v;
      usage ()
  in
  List.iter
    (fun a ->
      if String.length a >= 2 && String.sub a 0 2 = "--" then begin
        let name, v = split_flag a in
        match name with
        | "--list" ->
          List.iter print_endline experiment_names;
          exit 0
        | "--trace-dir" -> opts := { !opts with trace_dir = Some (value name v) }
        | "--json-out" -> opts := { !opts with json_out = Some (value name v) }
        | "--compare" -> opts := { !opts with compare_to = Some (value name v) }
        | "--compare-threshold" -> opts := { !opts with threshold = float_value name v }
        | "--compare-alpha" -> opts := { !opts with alpha = float_value name v }
        | _ ->
          Printf.eprintf "unknown flag %s\n" name;
          usage ()
      end
      else positional := a :: !positional)
    (List.tl (Array.to_list argv));
  (!opts, List.rev !positional)

let opts, selected = parse_argv Sys.argv

(* ------------------------------------------------------------------ *)
(* Experiment records accumulated for the benchmark artifact. *)

let records : Obs.Bench_log.experiment list ref = ref []

let push_record r = records := r :: !records

(* Run one experiment: wall-time it, trace it when the trace dir or the
   JSON artifact needs spans, and record it. [f] returns the latency
   quantiles to attach (most experiments have none). *)
let timed name f =
  let want_spans = opts.trace_dir <> None || opts.json_out <> None in
  let t0 = Unix.gettimeofday () in
  let quantiles, events =
    if want_spans then Obs.Trace.collect f else (f (), [])
  in
  let wall = Unix.gettimeofday () -. t0 in
  (match opts.trace_dir with
  | None -> ()
  | Some dir ->
    Util.Fs.mkdir_p dir;
    let path = Filename.concat dir (name ^ ".trace.json") in
    Obs.Export.write_chrome_trace path events;
    Printf.printf "[%s trace: %d spans -> %s]\n%!" name (List.length events) path);
  push_record
    {
      Obs.Bench_log.name;
      wall_s = wall;
      samples_s = [];
      ols_s = None;
      quantiles;
      spans = Obs.Bench_log.span_totals events;
    };
  Printf.printf "[%s regenerated in %.1fs]\n\n%!" name wall

let print_table t =
  Util.Table.print t;
  print_newline ()

let table name mk = timed name (fun () -> print_table (mk ()); [])

let run_claims () = table "claims" Tables.claims
let run_space () = table "space" Tables.space_table
let run_table2 () = table "table2" Tables.table2
let run_table3 () = table "table3" Tables.table3
let run_table4 () = table "table4" Tables.table4
let run_figure3 () = timed "figure3" (fun () -> List.iter print_table (Tables.figure3 ()); [])
let run_surf_brute () = table "surf-vs-brute" Tables.surf_vs_brute
let run_ablation () = table "ablation" Tables.ablation
let run_modelcheck () = table "modelcheck" Tables.modelcheck
let run_motivation () = table "motivation" Tables.motivation
let run_sweep () = table "sweep" Tables.sweep
let run_service () = timed "service" (fun () -> Service_bench.run ())

(* Contraction-order optimizer: greedy baseline vs TreeSA on fixed-seed
   networks the paper's single-equation front end never handled. Costs are
   log2, so a delta of 1.0 is a 2x change in the linear quantity. *)
let netopt_table () =
  let score = { Netopt.Tree.default_score with sc_target = 10.0 } in
  let row name net meth tree =
    let c = Netopt.Tree.cost net tree in
    [ name; meth; Util.Table.cell_f c.tc; Util.Table.cell_f c.sc;
      Util.Table.cell_f c.rw; Util.Table.cell_f (Netopt.Tree.score score c) ]
  in
  let cases =
    [
      ("line-20", Netopt.Gen.line ~n:20 (Util.Rng.create 2));
      ("ring-16", Netopt.Gen.ring ~n:16 (Util.Rng.create 1));
      ("power-20", Netopt.Gen.power_law ~n:20 (Util.Rng.create 2));
    ]
  in
  let rows =
    List.concat_map
      (fun (name, net) ->
        let greedy = Netopt.Greedy.optimize net in
        let treesa =
          Netopt.Treesa.optimize ~score ~rng:(Util.Rng.create 7) net
        in
        [ row name net "greedy" greedy; row name net "treesa" treesa ])
      cases
  in
  Util.Table.create ~title:"Contraction-order optimizer (log2 costs)"
    ([ "network"; "method"; "tc"; "sc"; "rw"; "score" ] :: rows)

let run_netopt () = table "netopt" netopt_table

(* Telemetry: sketch-estimated quantiles vs exact order statistics on a
   heavy-tailed fixed-seed sample, with the constant-memory bucket count
   alongside - the accuracy/footprint tradeoff that lets Service.Metrics
   drop full-history timer storage. *)
let telemetry_table () =
  let n = 20_000 in
  let rng = Util.Rng.create 5 in
  let sketch = Obs.Sketch.create () in
  let samples =
    List.init n (fun _ ->
        let v = 1e-4 *. exp (1.5 *. Util.Rng.gaussian rng) in
        Obs.Sketch.add sketch v;
        v)
  in
  let row p =
    let exact = Util.Stats.percentile p samples in
    let est = Obs.Sketch.quantile sketch p in
    [ Printf.sprintf "p%g" p;
      Util.Table.cell_f ~digits:4 (exact *. 1e3);
      Util.Table.cell_f ~digits:4 (est *. 1e3);
      Util.Table.cell_f (100.0 *. abs_float (est -. exact) /. exact) ]
  in
  let rows = List.map row [ 50.0; 90.0; 99.0; 99.9 ] in
  Util.Table.create
    ~title:
      (Printf.sprintf
         "Quantile sketch vs exact order statistics (n=%d, %d sketch buckets)"
         n (Obs.Sketch.bucket_count sketch))
    ([ "quantile"; "exact (ms)"; "sketch (ms)"; "err %" ] :: rows)

let run_telemetry () = table "telemetry" telemetry_table

(* Change-point detectors: detection delay (ticks from the injected shift
   to the first alarm) per detector and shift size on a fixed-seed
   lognormal stream. Small shifts inside a detector's tolerance band are
   expected to stay silent - that row prints "-", documenting the band. *)
let drift_table () =
  let shift_at = 1_000 and horizon = 3_000 in
  let detectors =
    [
      (fun () -> Obs.Drift.page_hinkley ~delta:0.3 "page-hinkley");
      (fun () -> Obs.Drift.cusum ~ref_count:500 "cusum");
      (fun () ->
        Obs.Drift.quantile_shift ~window:250 ~ref_windows:2 "quantile-shift");
    ]
  in
  let row mk shift =
    let m = mk () in
    let rng = Util.Rng.create 11 in
    let first = ref None in
    for t = 0 to horizon - 1 do
      let base = if t < shift_at then 1.0 else shift in
      let v = base *. exp (0.1 *. Util.Rng.gaussian rng) in
      match Obs.Drift.observe m ~tick:t v with
      | Some a when !first = None -> first := Some a
      | _ -> ()
    done;
    [ Obs.Drift.name m;
      Printf.sprintf "%gx" shift;
      (match !first with
      | Some a -> string_of_int (a.Obs.Drift.at_tick - shift_at)
      | None -> "-");
      (match !first with
      | Some a -> Printf.sprintf "%.3g" a.Obs.Drift.statistic
      | None -> "-") ]
  in
  let rows =
    List.concat_map
      (fun mk -> List.map (row mk) [ 1.5; 2.0; 4.0 ])
      detectors
  in
  Util.Table.create
    ~title:
      (Printf.sprintf
         "Change-point detection delay (shift injected at tick %d, seed 11)"
         shift_at)
    ([ "detector"; "shift"; "delay (ticks)"; "statistic" ] :: rows)

let run_drift () = table "drift" drift_table

(* Translation validation: wall time of the semantic layer on fixed
   candidates - the cost of proving a tuned winner computes its
   contraction. Every row asserts the candidate actually validates. *)
let check_table () =
  let rounds = Check.Semantic.default_rounds in
  let row (b : Autotune.Tuner.benchmark) =
    let c = List.hd (Autotune.Tuner.variant_choices b) in
    let points =
      List.map
        (fun s -> List.hd (Tcr.Space.enumerate s))
        c.Autotune.Tuner.spaces.op_spaces
    in
    let t0 = Unix.gettimeofday () in
    let v =
      Check.Semantic.validate ~rounds ~label:b.label b.statements
        ~variant_ids:c.Autotune.Tuner.ids ~ir:c.Autotune.Tuner.v_ir ~points
    in
    let wall = Unix.gettimeofday () -. t0 in
    assert v.Check.Semantic.equivalent;
    [ b.label; Util.Table.cell_f (wall *. 1e3) ]
  in
  let rows =
    List.map row
      [
        Autotune.Tuner.benchmark_of_dsl ~label:"matmul-32"
          "dims: i=32 j=32 k=32\nC[i j] = Sum([k], A[i k] * B[k j])";
        Benchsuite.Suite.eqn1 ~n:10 ();
        Benchsuite.Suite.lg3 ~p:6 ~elems:16 ();
      ]
  in
  Util.Table.create
    ~title:
      (Printf.sprintf "Translation validation wall time (%d rounds, seed %#x)"
         rounds Check.Semantic.default_seed)
    ([ "benchmark"; "wall (ms)" ] :: rows)

let run_check () = table "check" check_table

(* Causal cost ledger: a small fixed-seed loadgen replay through a real
   engine, its per-phase attribution, and the exact what-if ranking over
   the requests it recorded. The cold-class phase quantiles land in the
   artifact keyed "phase:<name>" so Doctor DR042 can compare a live
   ledger against this committed baseline. *)
let ledger_cfg =
  {
    Service.Loadgen.default_config with
    requests = 2_000;
    batch = 8;
    window_width = 100;
    window_buckets = 8;
    engine =
      { Service.Engine.default_config with max_evals = 8; batch_size = 4; reps = 1 };
  }

let ledger_mix =
  [
    { Service.Loadgen.mix_label = "mm";
      mix_dsl = "C[i j] = Sum([k], A[i k] * B[k j])";
      weight = 3 };
    { Service.Loadgen.mix_label = "tiny";
      mix_dsl = "V[i j k] = Sum([l m n], A[l k] * B[m j] * C[n i] * U[l m n])";
      weight = 1 };
  ]

let run_ledger () =
  timed "ledger" (fun () ->
      let path = Filename.temp_file "ledger" ".jsonl" in
      let r =
        Out_channel.with_open_bin path (fun out ->
            Service.Loadgen.run ~out ledger_cfg ledger_mix)
      in
      let recorded = Obs.Replay.load path in
      Sys.remove path;
      let rep = Obs.Ledger.report r.summary.ledger in
      print_string (Obs.Ledger.render rep);
      print_newline ();
      let header, records =
        match recorded with Ok hr -> hr | Error msg -> failwith msg
      in
      print_string (Obs.Replay.render_whatif (Obs.Replay.whatif header records));
      print_newline ();
      List.filter_map
        (fun (cls, phase, (st : Obs.Ledger.stat)) ->
          if cls = Obs.Ledger.Cold then
            Some
              ( "phase:" ^ Obs.Ledger.phase_name phase,
                {
                  Obs.Bench_log.q50 = st.st_p50_s;
                  q90 = st.st_p90_s;
                  q99 = st.st_p99_s;
                } )
          else None)
        rep.lr_cells)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-suite: one Test.make per table/figure, each running a
   reduced-size regeneration of that experiment's pipeline so that several
   samples fit in the quota. *)

let small_cfg = { Surf.Search.default_config with max_evals = 20; batch_size = 5 }

let tune_small arch b =
  Autotune.Tuner.tune
    ~strategy:(Autotune.Tuner.Surf_search small_cfg)
    ~pool_per_variant:30 ~rng:(Util.Rng.create 1) ~arch b

let bench_claims () =
  (* Section III: enumerate the Eqn.(1) variants *)
  let b = Benchsuite.Suite.eqn1 ~n:4 () in
  let set = Octopi.Variants.of_contraction (List.hd b.statements) in
  assert (List.length set.variants = 15)

let bench_space () =
  let b = Benchsuite.Suite.lg3 ~p:6 ~elems:16 () in
  let choices = Autotune.Tuner.variant_choices b in
  assert (Autotune.Tuner.total_space choices > 0)

let bench_table2 () =
  ignore (tune_small Gpusim.Arch.gtx980 (Benchsuite.Suite.eqn1 ~n:6 ()))

let bench_table3 () =
  let b = Benchsuite.Suite.lg3 ~p:6 ~elems:16 () in
  let ir = (List.hd (Autotune.Tuner.variant_choices b)).v_ir in
  ignore (Cpusim.Openacc.time Gpusim.Arch.k20 ir ~reps:100 Cpusim.Openacc.Naive);
  ignore (tune_small Gpusim.Arch.k20 b)

let bench_table4 () =
  let b = Benchsuite.Nwchem.benchmark ~n:8 Benchsuite.Nwchem.D1 ~index:1 in
  ignore (Autotune.Tuner.best_openmp_time b);
  ignore (tune_small Gpusim.Arch.k20 b)

let bench_figure3 () =
  let b = Benchsuite.Nwchem.benchmark ~n:8 Benchsuite.Nwchem.S1 ~index:1 in
  let ir = (List.hd (Autotune.Tuner.variant_choices b)).v_ir in
  ignore (Cpusim.Openacc.time Gpusim.Arch.c2050 ir ~reps:100 Cpusim.Openacc.Naive);
  ignore (tune_small Gpusim.Arch.c2050 b)

let bench_surf_brute () =
  let pool = Array.init 200 (fun i -> i) in
  let eval i = abs_float (float_of_int i -. 127.0) in
  let encode i = [| float_of_int (i mod 16); float_of_int (i / 16) |] in
  let r = Surf.Search.surf ~config:small_cfg (Util.Rng.create 2) ~pool ~encode ~eval in
  assert (r.evaluations <= 20)

let bench_netopt () =
  let net = Netopt.Gen.line ~n:12 (Util.Rng.create 2) in
  let cfg = { Netopt.Treesa.default_config with sa_iters = 400 } in
  let greedy = Netopt.Greedy.optimize net in
  let treesa = Netopt.Treesa.optimize ~config:cfg ~rng:(Util.Rng.create 7) net in
  let score = Netopt.Tree.default_score in
  assert (
    Netopt.Tree.score score (Netopt.Tree.cost net treesa)
    <= Netopt.Tree.score score (Netopt.Tree.cost net greedy))

let bench_telemetry () =
  (* the streaming observe path: ring write, moments, sketch, decades *)
  let m = Service.Metrics.create () in
  let rng = Util.Rng.create 3 in
  for _ = 1 to 2048 do
    Service.Metrics.observe m "bench" (1e-4 *. exp (Util.Rng.gaussian rng))
  done

let bench_drift () =
  (* the monitor observe path: registry dispatch, running moments, one
     sketch insertion per quantile-shift observation *)
  let r = Obs.Drift.create_registry () in
  Obs.Drift.register r (Obs.Drift.page_hinkley "ph");
  Obs.Drift.register r (Obs.Drift.cusum ~ref_count:500 "cu");
  Obs.Drift.register r (Obs.Drift.quantile_shift ~window:250 "qs");
  let rng = Util.Rng.create 3 in
  for t = 0 to 2047 do
    let v = exp (0.1 *. Util.Rng.gaussian rng) in
    List.iter
      (fun m -> ignore (Obs.Drift.observe m ~tick:t v))
      (Obs.Drift.monitors r)
  done

let bench_ledger () =
  (* the ledger observe path: cell lookup, Welford update, one sketch
     insertion per phase, exemplar slot maintenance *)
  let l = Obs.Ledger.create ~slot_width:250 () in
  let rng = Util.Rng.create 3 in
  for t = 0 to 2047 do
    let h = 1e-4 *. exp (Util.Rng.gaussian rng) in
    let costs =
      [ (Obs.Ledger.Canonicalize, 0.10 *. h); (Obs.Ledger.Lookup, 0.15 *. h);
        (Obs.Ledger.Queue, 0.05 *. h); (Obs.Ledger.Measure, 0.70 *. h) ]
    in
    Obs.Ledger.observe l ~tick:t ~cls:Obs.Ledger.Warm ~ok:true ~latency_s:h costs
  done

let check_fixture =
  (* parsed/enumerated once: the micro-benchmark times only the validate
     path (four fingerprinted reference stages and the kernel walk over the
     prime field) *)
  lazy
    (let b =
       Autotune.Tuner.benchmark_of_dsl ~label:"matmul-16"
         "dims: i=16 j=16 k=16\nC[i j] = Sum([k], A[i k] * B[k j])"
     in
     let c = List.hd (Autotune.Tuner.variant_choices b) in
     let points =
       List.map
         (fun s -> List.hd (Tcr.Space.enumerate s))
         c.Autotune.Tuner.spaces.op_spaces
     in
     (b, c, points))

let bench_check () =
  let b, c, points = Lazy.force check_fixture in
  let v =
    Check.Semantic.validate ~rounds:1 ~label:b.label b.statements
      ~variant_ids:c.Autotune.Tuner.ids ~ir:c.Autotune.Tuner.v_ir ~points
  in
  assert v.Check.Semantic.equivalent

let bechamel_tests =
  let open Bechamel in
  [
    Test.make ~name:"claims:variant-enumeration" (Staged.stage bench_claims);
    Test.make ~name:"space:search-space-size" (Staged.stage bench_space);
    Test.make ~name:"table2:tune-eqn1" (Staged.stage bench_table2);
    Test.make ~name:"table3:nekbone-openacc-vs-tuned" (Staged.stage bench_table3);
    Test.make ~name:"table4:nwchem-omp-vs-tuned" (Staged.stage bench_table4);
    Test.make ~name:"figure3:nwchem-vs-naive-acc" (Staged.stage bench_figure3);
    Test.make ~name:"surf-vs-brute:model-search" (Staged.stage bench_surf_brute);
    Test.make ~name:"netopt:treesa-line12" (Staged.stage bench_netopt);
    Test.make ~name:"telemetry:metrics-observe" (Staged.stage bench_telemetry);
    Test.make ~name:"drift:observe" (Staged.stage bench_drift);
    Test.make ~name:"ledger:observe" (Staged.stage bench_ledger);
    Test.make ~name:"check:semantic-validate" (Staged.stage bench_check);
  ]

let clock_label = "monotonic-clock"

(* Raw per-run seconds of each Bechamel measurement: total clock ns of the
   sample divided by its run count. These feed the statistical comparator,
   which works on sample sets, not point estimates. *)
let raw_samples (result : Bechamel.Benchmark.t) =
  Array.to_list result.lr
  |> List.filter_map (fun m ->
         let runs = Bechamel.Measurement_raw.run m in
         if runs <= 0.0 || not (Bechamel.Measurement_raw.exists ~label:clock_label m)
         then None
         else Some (Bechamel.Measurement_raw.get ~label:clock_label m /. runs /. 1e9))

let run_bechamel () =
  let open Bechamel in
  let cfg =
    Benchmark.cfg ~limit:25 ~quota:(Time.second 2.0) ~stabilize:false ~kde:None ()
  in
  let instance = Toolkit.Instance.monotonic_clock in
  Printf.printf "Bechamel micro-benchmarks (scaled-down table regenerations):\n";
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let t0 = Unix.gettimeofday () in
          let result = Benchmark.run cfg [ instance ] elt in
          let wall = Unix.gettimeofday () -. t0 in
          let ols =
            Analyze.OLS.ols ~bootstrap:0 ~r_square:false ~responder:clock_label
              ~predictors:[| "run" |] result.lr
          in
          let estimate =
            match Analyze.OLS.estimates ols with Some [ e ] -> e | _ -> nan
          in
          push_record
            {
              Obs.Bench_log.name = "bechamel:" ^ Test.Elt.name elt;
              wall_s = wall;
              samples_s = raw_samples result;
              ols_s = (if Float.is_nan estimate then None else Some (estimate /. 1e9));
              quantiles = [];
              spans = [];
            };
          Printf.printf "  %-40s %10.3f ms/run (%d samples)\n%!" (Test.Elt.name elt)
            (estimate /. 1e6) result.stats.samples)
        (Test.elements test))
    bechamel_tests;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Dispatch, artifact output, regression gate. *)

let runners =
  [
    ("claims", run_claims);
    ("space", run_space);
    ("table2", run_table2);
    ("table3", run_table3);
    ("table4", run_table4);
    ("figure3", run_figure3);
    ("surf-vs-brute", run_surf_brute);
    ("ablation", run_ablation);
    ("modelcheck", run_modelcheck);
    ("motivation", run_motivation);
    ("sweep", run_sweep);
    ("service", run_service);
    ("netopt", run_netopt);
    ("telemetry", run_telemetry);
    ("drift", run_drift);
    ("ledger", run_ledger);
    ("check", run_check);
    ("bechamel", run_bechamel);
  ]

let finalize () =
  let current = Obs.Bench_log.make (List.rev !records) in
  (match opts.json_out with
  | None -> ()
  | Some path ->
    Obs.Bench_log.write path current;
    Printf.printf "wrote %s (%d experiment records)\n%!" path
      (List.length current.experiments));
  match opts.compare_to with
  | None -> ()
  | Some path -> (
    match Obs.Bench_log.read path with
    | Error msg ->
      Printf.eprintf "cannot read baseline %s: %s\n" path msg;
      exit 2
    | Ok baseline ->
      let deltas =
        Obs.Bench_log.compare_artifacts ~alpha:opts.alpha ~min_ratio:opts.threshold
          ~baseline ~current ()
      in
      print_string (Obs.Bench_log.render_deltas deltas);
      if Obs.Bench_log.gate deltas then print_endline "regression gate: PASS"
      else begin
        print_endline "regression gate: FAIL (significant slowdown vs baseline)";
        exit 1
      end)

let () =
  let to_run =
    match selected with
    | [] -> List.map snd runners
    | names ->
      List.map
        (fun name ->
          match List.assoc_opt name runners with
          | Some f -> f
          | None ->
            Printf.eprintf "unknown experiment %S\n" name;
            usage ())
        names
  in
  List.iter (fun f -> f ()) to_run;
  finalize ()
