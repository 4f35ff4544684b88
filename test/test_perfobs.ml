(* Tests for the performance-observability layer: the minimal JSON codec,
   benchmark artifacts (render/parse round-trip, statistical regression
   gate), and the kernel roofline profiler. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ---------------- Json ---------------- *)

let test_json_roundtrip () =
  let open Obs.Json in
  let v =
    Obj
      [
        ("s", Str "he said \"hi\"\n\ttab");
        ("n", Num 1.25);
        ("i", of_int 42);
        ("neg", Num (-0.001));
        ("b", Bool true);
        ("z", Null);
        ("a", Arr [ Num 1.0; Str "x"; Obj [ ("k", Bool false) ] ]);
      ]
  in
  (match parse (to_string v) with
  | Ok v' -> check_bool "compact round-trip" true (v = v')
  | Error e -> Alcotest.fail e);
  match parse (to_string ~indent:true v) with
  | Ok v' -> check_bool "indented round-trip" true (v = v')
  | Error e -> Alcotest.fail e

let test_json_nonfinite () =
  let open Obs.Json in
  check_str "nan is null" "null" (to_string (Num nan));
  check_str "inf is null" "null" (to_string (Num infinity));
  (* and null reads back as nan through get_num *)
  match parse "null" with
  | Ok v -> check_bool "null -> nan" true (match get_num v with Some x -> Float.is_nan x | None -> false)
  | Error e -> Alcotest.fail e

let test_json_unicode_escape () =
  match Obs.Json.parse {|"aéb"|} with
  | Ok (Obs.Json.Str s) -> check_str "utf-8 decoded" "a\xc3\xa9b" s
  | _ -> Alcotest.fail "unicode escape"

let test_json_errors () =
  let bad s = check_bool s true (Result.is_error (Obs.Json.parse s)) in
  bad "{";
  bad "[1,]";
  bad "{\"a\":}";
  bad "tru";
  bad "1 2"

(* ---------------- Bench_log ---------------- *)

let sample_artifact () =
  Obs.Bench_log.make
    [
      {
        Obs.Bench_log.name = "table2";
        wall_s = 1.5;
        samples_s = [ 0.010; 0.011; 0.012; 0.013 ];
        ols_s = Some 0.0115;
        quantiles = [ ("request.wall", { Obs.Bench_log.q50 = 0.01; q90 = 0.02; q99 = 0.03 }) ];
        spans = [ { Obs.Bench_log.cat = "autotune"; span = "eval.measure"; count = 30; total_s = 0.9 } ];
      };
      {
        Obs.Bench_log.name = "claims";
        wall_s = 0.2;
        samples_s = [];
        ols_s = None;
        quantiles = [];
        spans = [];
      };
    ]

let test_artifact_roundtrip () =
  let a = sample_artifact () in
  match Obs.Bench_log.parse (Obs.Bench_log.render a) with
  | Error e -> Alcotest.fail e
  | Ok a' ->
    check_bool "lossless" true (a = a');
    check_int "version" Obs.Bench_log.schema_version a'.version

let test_artifact_file_io () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "barracuda_perfobs_%d/deep/BENCH_t.json" (Unix.getpid ()))
  in
  let a = sample_artifact () in
  Obs.Bench_log.write path a;
  (match Obs.Bench_log.read path with
  | Ok a' -> check_bool "file round-trip" true (a = a')
  | Error e -> Alcotest.fail e);
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote (Filename.dirname (Filename.dirname path)))))

let test_artifact_corrupt () =
  check_bool "not json" true (Result.is_error (Obs.Bench_log.parse "nope"));
  check_bool "missing fields" true (Result.is_error (Obs.Bench_log.parse "{\"suite\": \"x\"}"))

let test_aggregate_spans () =
  let ev id name cat dur : Obs.Trace.event =
    { id; parent = None; name; cat; domain = 0; t0 = 10.0; t1 = 10.0 +. dur; attrs = [] }
  in
  let spans =
    Obs.Bench_log.span_totals
      [ ev 1 "a" "c1" 1.0; ev 2 "a" "c1" 2.0; ev 3 "b" "c2" 0.5 ]
  in
  check_int "two groups" 2 (List.length spans);
  let a = List.find (fun (s : Obs.Bench_log.span_agg) -> s.span = "a") spans in
  check_int "a count" 2 a.count;
  Alcotest.(check (float 1e-9)) "a total seconds" 3.0 a.total_s

(* The acceptance scenario: comparing an artifact against itself passes
   the gate; inflating every sample 3x trips it. *)
let test_gate_pass_on_self () =
  let a = sample_artifact () in
  let deltas = Obs.Bench_log.compare_artifacts ~baseline:a ~current:a () in
  check_bool "gate passes" true (Obs.Bench_log.gate deltas);
  List.iter
    (fun (d : Obs.Bench_log.delta) ->
      check_bool (d.exp ^ " same") true (d.status = Obs.Bench_log.Same))
    deltas

let test_gate_fail_on_slowdown () =
  let base = sample_artifact () in
  let slow =
    {
      base with
      experiments =
        List.map
          (fun (e : Obs.Bench_log.experiment) ->
            { e with wall_s = e.wall_s *. 3.0; samples_s = List.map (fun x -> x *. 3.0) e.samples_s })
          base.experiments;
    }
  in
  let deltas = Obs.Bench_log.compare_artifacts ~baseline:base ~current:slow () in
  check_bool "gate fails" false (Obs.Bench_log.gate deltas);
  let d = List.find (fun (d : Obs.Bench_log.delta) -> d.exp = "table2") deltas in
  check_bool "table2 regressed" true (d.status = Obs.Bench_log.Regression);
  (* and the delta table names it *)
  let table = Obs.Bench_log.render_deltas deltas in
  check_bool "rendered verdict" true (contains_sub table "REGRESSION")

let test_gate_no_baseline () =
  let base = sample_artifact () in
  let extra =
    {
      base with
      experiments =
        { Obs.Bench_log.name = "fresh"; wall_s = 1.0; samples_s = []; ols_s = None;
          quantiles = []; spans = [] }
        :: base.experiments;
    }
  in
  let deltas = Obs.Bench_log.compare_artifacts ~baseline:base ~current:extra () in
  let d = List.find (fun (d : Obs.Bench_log.delta) -> d.exp = "fresh") deltas in
  check_bool "new experiment has no baseline" true (d.status = Obs.Bench_log.No_baseline);
  check_bool "missing baseline does not fail the gate" true (Obs.Bench_log.gate deltas)

(* ---------------- Profile ---------------- *)

let mk_sample ?(arch = "GTX 980") ?(variant = "v0") ?(kernel = "k1") ?(bound = "dp")
    ?(measured = 1e-4) ?(dram = 1e6) ?(occ = 0.5) () =
  {
    Obs.Profile.arch; variant; kernel; bound;
    t_dp = 1e-4; t_issue = 1e-5; t_mem = 1e-5; t_launch = 5e-6;
    measured_s = measured;
    dram_bytes = dram; l2_bytes = 2e6; occupancy = occ;
  }

let test_profile_disabled_by_default () =
  Obs.Profile.clear ();
  check_bool "off" false (Obs.Profile.enabled ());
  Obs.Profile.record (mk_sample ());
  check_int "nothing recorded" 0 (List.length (Obs.Profile.samples ()))

let test_profile_collect () =
  let r, samples =
    Obs.Profile.collect (fun () ->
        Obs.Profile.record (mk_sample ());
        Obs.Profile.record (mk_sample ~bound:"memory" ());
        17)
  in
  check_int "result passthrough" 17 r;
  check_int "two samples" 2 (List.length samples);
  check_bool "off afterwards" false (Obs.Profile.enabled ())

let test_profile_buckets () =
  let ss =
    [ mk_sample ~bound:"dp" ~measured:1.0 (); mk_sample ~bound:"dp" ~measured:2.0 ();
      mk_sample ~bound:"memory" ~measured:4.0 ();
      mk_sample ~variant:"v1" ~bound:"launch" ~measured:8.0 () ]
  in
  let by_variant = Obs.Profile.variant_buckets ss in
  check_int "two variants" 2 (List.length by_variant);
  let v0 = List.assoc "v0" by_variant in
  let dp = List.find (fun (b : Obs.Profile.bucket) -> b.bound = "dp") v0 in
  check_int "dp evals" 2 dp.count;
  Alcotest.(check (float 1e-9)) "dp total" 3.0 dp.total_s;
  check_bool "no issue bucket" true
    (not (List.exists (fun (b : Obs.Profile.bucket) -> b.bound = "issue") v0))

let test_profile_top_dram () =
  let ss =
    [ mk_sample ~kernel:"small" ~dram:1e3 (); mk_sample ~kernel:"big" ~dram:1e9 ();
      mk_sample ~kernel:"big" ~dram:1e9 (); mk_sample ~kernel:"mid" ~dram:1e6 () ]
  in
  let top = Obs.Profile.top_dram ~n:2 ss in
  check_int "two rows" 2 (List.length top);
  let first = List.hd top in
  check_str "big first" "big" first.Obs.Profile.k_kernel;
  check_int "big evals" 2 first.Obs.Profile.evals;
  Alcotest.(check (float 1.0)) "big traffic summed" 2e9 first.Obs.Profile.total_dram_bytes

let test_profile_occupancy_histogram () =
  let ss = [ mk_sample ~occ:0.05 (); mk_sample ~occ:0.55 (); mk_sample ~occ:0.58 ();
             mk_sample ~occ:1.0 () ] in
  let h = Obs.Profile.occupancy_histogram ss in
  check_int "ten bins" 10 (List.length h);
  check_int "low bin" 1 (List.assoc "0.0-0.1" h);
  check_int "mid bin" 2 (List.assoc "0.5-0.6" h);
  check_int "occ 1.0 clamps into the top bin" 1 (List.assoc "0.9-1.0" h)

let test_profile_render () =
  let ss = [ mk_sample (); mk_sample ~bound:"memory" () ] in
  let report = Obs.Profile.render ss in
  check_bool "header" true (contains_sub report "2 kernel evaluations");
  check_bool "buckets" true (contains_sub report "Per-variant time by roofline bound");
  check_bool "dram table" true (contains_sub report "DRAM traffic")

(* The profiler must not perturb the search: a fixed-seed tune gives
   bit-identical results with profiling on and off (recording draws no
   RNG state), and the samples mirror the evaluator's kernel reports. *)
let test_profile_tune_bit_identical () =
  let tune () =
    let b = Benchsuite.Suite.eqn1 ~n:6 () in
    let cfg = { Surf.Search.default_config with max_evals = 20; batch_size = 5 } in
    Autotune.Tuner.tune
      ~strategy:(Autotune.Tuner.Surf_search cfg)
      ~pool_per_variant:30 ~rng:(Util.Rng.create 11) ~arch:Gpusim.Arch.gtx980 b
  in
  let plain = tune () in
  let profiled, samples = Obs.Profile.collect tune in
  Alcotest.(check (float 0.0)) "gflops identical" plain.gflops profiled.gflops;
  check_bool "best points identical" true (plain.best.points = profiled.best.points);
  check_bool "samples recorded" true (samples <> []);
  List.iter
    (fun (s : Obs.Profile.sample) ->
      check_str "arch stamped" "GTX 980" s.arch;
      check_bool "bound valid" true (List.mem s.bound Obs.Profile.bounds);
      check_bool "measured positive" true (s.measured_s > 0.0);
      (* Gpu noise is within 3% of the noise-free roofline time, which
         the sample's own terms give (Gpusim.Perf.model_time). *)
      let model = s.t_launch +. Float.max s.t_dp (Float.max s.t_issue s.t_mem) in
      check_bool "model close to measured" true
        (abs_float ((s.measured_s /. model) -. 1.0) <= 0.03))
    samples

(* A sample names its candidate's variant choice as the journal does
   ("v3"), not the IR label that every choice of a program shares: the
   fixed-seed eqn1 tune of `tune examples/eqn1.tc --evals 30` evaluates
   eleven OCTOPI variants, and its profile reports eleven. *)
let test_profile_names_variants () =
  let b =
    Autotune.Tuner.benchmark_of_dsl ~label:"tc"
      "dims: i=24 j=16 k=16 l=24 m=16 n=24\n\
       V[i j k] = Sum([l m n], A[l k] * B[m j] * C[n i] * U[l m n])"
  in
  let cfg = { Surf.Search.default_config with max_evals = 30 } in
  let _, samples =
    Obs.Profile.collect (fun () ->
        Autotune.Tuner.tune
          ~strategy:(Autotune.Tuner.Surf_search cfg)
          ~rng:(Util.Rng.create 42) ~arch:Gpusim.Arch.gtx980 b)
  in
  Alcotest.(check (list string))
    "variants" [ "v0"; "v10"; "v11"; "v13"; "v14"; "v2"; "v3"; "v5"; "v6"; "v8"; "v9" ]
    (List.map fst (Obs.Profile.variant_buckets samples));
  check_bool "header counts them" true
    (contains_sub (Obs.Profile.render samples) "90 kernel evaluations, 11 variants")

let suite =
  [
    ("json roundtrip", `Quick, test_json_roundtrip);
    ("json non-finite numbers", `Quick, test_json_nonfinite);
    ("json unicode escape", `Quick, test_json_unicode_escape);
    ("json parse errors", `Quick, test_json_errors);
    ("artifact roundtrip", `Quick, test_artifact_roundtrip);
    ("artifact file io", `Quick, test_artifact_file_io);
    ("artifact corrupt input", `Quick, test_artifact_corrupt);
    ("aggregate spans", `Quick, test_aggregate_spans);
    ("gate passes on itself", `Quick, test_gate_pass_on_self);
    ("gate fails on synthetic slowdown", `Quick, test_gate_fail_on_slowdown);
    ("gate tolerates missing baseline", `Quick, test_gate_no_baseline);
    ("profile disabled by default", `Quick, test_profile_disabled_by_default);
    ("profile collect", `Quick, test_profile_collect);
    ("profile buckets", `Quick, test_profile_buckets);
    ("profile top dram", `Quick, test_profile_top_dram);
    ("profile occupancy histogram", `Quick, test_profile_occupancy_histogram);
    ("profile render", `Quick, test_profile_render);
    ("profile does not perturb tuning", `Quick, test_profile_tune_bit_identical);
    ("profile names each variant choice", `Quick, test_profile_names_variants);
  ]
