(* Streaming telemetry: quantile-sketch error bound and merge algebra,
   deterministic window eviction, SLO burn-rate alerting, the bounded
   metrics registry, native-histogram exposition, and the journal-replay
   load harness. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let check_contains what haystack needle =
  check_bool (what ^ ": contains " ^ needle) true (contains haystack needle)

(* ---------------- sketch ---------------- *)

let test_sketch_empty () =
  let s = Obs.Sketch.create () in
  check_int "count" 0 (Obs.Sketch.count s);
  check_bool "quantile is nan" true (Float.is_nan (Obs.Sketch.quantile s 50.0));
  check_bool "mean is nan" true (Float.is_nan (Obs.Sketch.mean s));
  check_int "no buckets" 0 (Obs.Sketch.bucket_count s)

let test_sketch_basic () =
  let s = Obs.Sketch.create ~alpha:0.01 () in
  List.iter (Obs.Sketch.add s) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  check_int "count" 5 (Obs.Sketch.count s);
  Alcotest.(check (float 1e-9)) "total" 15.0 (Obs.Sketch.total s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Obs.Sketch.min_value s);
  Alcotest.(check (float 1e-9)) "max" 5.0 (Obs.Sketch.max_value s);
  Alcotest.(check (float 0.04)) "median near 3" 3.0 (Obs.Sketch.quantile s 50.0);
  (* quantile extremes clamp to the observed range *)
  Alcotest.(check (float 1e-9)) "p0 = min" 1.0 (Obs.Sketch.quantile s 0.0);
  Alcotest.(check (float 1e-9)) "p100 = max" 5.0 (Obs.Sketch.quantile s 100.0)

(* An infinite latency (a --degrade=inf replay) makes Welford's update
   compute inf - inf; the mean is still Util.Stats.mean's inf, alone and
   after a merge, never a NaN. *)
let test_sketch_infinite_mean () =
  let s = Obs.Sketch.create () in
  List.iter (Obs.Sketch.add s) [ infinity; infinity; 1.0 ];
  Alcotest.(check (float 0.0)) "mean" infinity (Obs.Sketch.mean s);
  Alcotest.(check (float 0.0)) "stats mean" infinity (Util.Stats.mean [ infinity; infinity; 1.0 ]);
  Alcotest.(check (float 0.0)) "merged" infinity (Obs.Sketch.mean (Obs.Sketch.merge s s))

let test_sketch_zero_and_negative () =
  let s = Obs.Sketch.create () in
  List.iter (Obs.Sketch.add s) [ 0.0; -3.0; 1e-15; 2.0 ];
  check_int "count" 4 (Obs.Sketch.count s);
  (* three of four samples sit in the zero bucket, so the median is 0 *)
  Alcotest.(check (float 1e-9)) "median" 0.0 (Obs.Sketch.quantile s 50.0);
  Alcotest.(check (float 0.03)) "p100" 2.0 (Obs.Sketch.quantile s 100.0)

let test_sketch_collapse_cap () =
  let s = Obs.Sketch.create ~alpha:0.05 ~max_buckets:16 () in
  (* 60 decades of dynamic range cannot fit in 16 buckets *)
  for i = -30 to 29 do
    Obs.Sketch.add s (10.0 ** float_of_int i)
  done;
  check_bool "cap held" true (Obs.Sketch.bucket_count s <= 16);
  check_bool "collapse reported" true (Obs.Sketch.collapsed s);
  check_int "count unaffected" 60 (Obs.Sketch.count s);
  (* the top of the distribution keeps its accuracy: collapse only merges
     the lowest buckets *)
  let q = Obs.Sketch.quantile s 100.0 in
  check_bool "p100 survives collapse" true (abs_float (q -. 1e29) /. 1e29 < 0.05)

let test_sketch_buckets_cumulate () =
  let s = Obs.Sketch.create () in
  List.iter (Obs.Sketch.add s) [ 0.0; 0.5; 1.0; 2.0; 2.0 ];
  let bs = Obs.Sketch.buckets s in
  check_int "bucket counts sum to count" (Obs.Sketch.count s)
    (List.fold_left (fun acc (_, c) -> acc + c) 0 bs);
  let bounds = List.map fst bs in
  check_bool "bounds ascending" true (List.sort compare bounds = bounds)

let test_sketch_merge_alpha_mismatch () =
  let a = Obs.Sketch.create ~alpha:0.01 () in
  let b = Obs.Sketch.create ~alpha:0.02 () in
  Alcotest.check_raises "alpha mismatch"
    (Invalid_argument "Sketch.merge: sketches have different accuracies")
    (fun () -> ignore (Obs.Sketch.merge a b))

(* Deterministic positive floats for the properties: ints mapped into
   [1e-6, 1], all above the sketch floor. *)
let pos_floats =
  QCheck.(
    map
      (fun xs -> List.map (fun i -> float_of_int i *. 1e-6) xs)
      (list_of_size Gen.(1 -- 120) (int_range 1 1_000_000)))

let qcheck_sketch_error_bound =
  QCheck.Test.make ~name:"sketch quantile within the relative-error bound"
    ~count:120 pos_floats (fun xs ->
      let alpha = 0.01 in
      let s = Obs.Sketch.create ~alpha () in
      List.iter (Obs.Sketch.add s) xs;
      let sorted = Array.of_list (List.sort compare xs) in
      let n = Array.length sorted in
      List.for_all
        (fun p ->
          let q = Obs.Sketch.quantile s p in
          let r = p /. 100.0 *. float_of_int (n - 1) in
          let lo = sorted.(int_of_float (Float.floor r)) *. (1.0 -. alpha) in
          let hi = sorted.(int_of_float (Float.ceil r)) *. (1.0 +. alpha) in
          lo -. 1e-12 <= q && q <= hi +. 1e-12)
        [ 0.0; 25.0; 50.0; 90.0; 99.0; 100.0 ])

let qcheck_sketch_merge_algebra =
  QCheck.Test.make
    ~name:"sketch merge is associative and commutative (bit-identical quantiles)"
    ~count:80
    QCheck.(triple pos_floats pos_floats pos_floats)
    (fun (xs, ys, zs) ->
      let mk vs =
        let s = Obs.Sketch.create () in
        List.iter (Obs.Sketch.add s) vs;
        s
      in
      let a = mk xs and b = mk ys and c = mk zs in
      let l = Obs.Sketch.merge (Obs.Sketch.merge a b) c in
      let r = Obs.Sketch.merge a (Obs.Sketch.merge b c) in
      let comm = Obs.Sketch.merge b a in
      let qs s = List.map (Obs.Sketch.quantile s) [ 0.0; 50.0; 99.0; 100.0 ] in
      Obs.Sketch.count l = Obs.Sketch.count r
      && qs l = qs r
      && qs (Obs.Sketch.merge a b) = qs comm
      && Obs.Sketch.count l = List.length xs + List.length ys + List.length zs)

(* Lognormal (sigma 1) samples drawn from a seeded Util.Rng. *)
let lognormal ~min_n =
  QCheck.(
    map
      (fun (n, seed) ->
        let rng = Util.Rng.create seed in
        List.init n (fun _ -> exp (Util.Rng.gaussian rng)))
      (pair (int_range min_n 300) small_nat))

let close a b = abs_float (a -. b) <= 1e-9 *. Float.max (abs_float a) (abs_float b)

let sketch_of vs =
  let s = Obs.Sketch.create () in
  List.iter (Obs.Sketch.add s) vs;
  s

let qcheck_sketch_moments =
  QCheck.Test.make ~name:"sketch Welford mean/std match Util.Stats" ~count:100
    (lognormal ~min_n:1) (fun xs ->
      let s = sketch_of xs in
      close (Obs.Sketch.mean s) (Util.Stats.mean xs)
      && close (Obs.Sketch.std s) (Util.Stats.stddev xs))

let qcheck_sketch_merge_moments =
  QCheck.Test.make ~name:"sketch merge moments match the concatenated stream"
    ~count:100
    QCheck.(pair (lognormal ~min_n:0) (lognormal ~min_n:0))
    (fun (xs, ys) ->
      let m = Obs.Sketch.merge (sketch_of xs) (sketch_of ys) in
      let whole = sketch_of (xs @ ys) in
      Obs.Sketch.count m = Obs.Sketch.count whole
      && (xs @ ys = []
         || close (Obs.Sketch.mean m) (Obs.Sketch.mean whole)
            && close (Obs.Sketch.std m) (Obs.Sketch.std whole)))

let test_sketch_copy_independent () =
  let s = Obs.Sketch.create () in
  Obs.Sketch.add s 1.0;
  let c = Obs.Sketch.copy s in
  Obs.Sketch.add s 100.0;
  check_int "copy unaffected" 1 (Obs.Sketch.count c);
  check_int "original grew" 2 (Obs.Sketch.count s)

(* ---------------- window ---------------- *)

let test_window_eviction () =
  let w = Obs.Window.create ~width:10 ~buckets:4 () in
  Obs.Window.observe w ~now:0 ~ok:true 100.0;
  List.iter (fun t -> Obs.Window.observe w ~now:t ~ok:true 1e-3) [ 10; 20; 30 ];
  let snap = Obs.Window.snapshot w ~now:39 in
  check_int "all four epochs live" 4 snap.requests;
  check_bool "old outlier still visible" true
    (Obs.Window.quantile snap 100.0 > 50.0);
  (* tick 40 reuses the epoch-0 slot, evicting the outlier *)
  Obs.Window.observe w ~now:40 ~ok:true 1e-3;
  let snap = Obs.Window.snapshot w ~now:40 in
  check_int "ring still holds four epochs" 4 snap.requests;
  check_bool "outlier evicted" true (Obs.Window.quantile snap 100.0 < 1.0)

let test_window_snapshot_last () =
  let w = Obs.Window.create ~width:10 ~buckets:4 () in
  List.iter
    (fun t -> Obs.Window.observe w ~now:t ~ok:(t >= 20) 1e-3)
    [ 5; 15; 25; 35 ];
  let all = Obs.Window.snapshot w ~now:39 in
  check_int "all requests" 4 all.requests;
  check_int "errors counted" 2 all.errors;
  let last = Obs.Window.snapshot ~last:2 w ~now:39 in
  check_int "short window requests" 2 last.requests;
  check_int "short window errors" 0 last.errors

let test_window_render () =
  let w = Obs.Window.create ~width:5 ~buckets:3 () in
  List.iter (fun t -> Obs.Window.observe w ~now:t ~ok:true 2e-3) [ 0; 5; 10 ];
  let out = Obs.Window.render w ~now:12 in
  check_contains "render" out "3 epochs live";
  check_contains "render" out "p99 trend"

let test_window_render_empty () =
  let w = Obs.Window.create ~width:5 ~buckets:3 () in
  let out = Obs.Window.render w ~now:0 in
  check_contains "render" out "0 epochs live";
  (* no slots, so no sparkline line at all *)
  check_bool "no trend line" false (contains out "p99 trend")

let test_window_render_single_epoch () =
  let w = Obs.Window.create ~width:5 ~buckets:3 () in
  Obs.Window.observe w ~now:2 ~ok:true 2e-3;
  let out = Obs.Window.render w ~now:4 in
  check_contains "render" out "1 epochs live";
  check_contains "render" out "0-4";
  check_contains "render" out "p99 trend"

let test_window_render_all_error_epoch () =
  (* an epoch of failed zero-latency probes: the error column counts them
     and the sparkline degrades to blanks (max of the series is 0) rather
     than dividing by zero *)
  let w = Obs.Window.create ~width:5 ~buckets:3 () in
  for t = 0 to 4 do
    Obs.Window.observe w ~now:t ~ok:false 0.0
  done;
  let out = Obs.Window.render w ~now:4 in
  check_contains "render" out "1 epochs live";
  check_contains "errors counted" out "     5";
  check_contains "zero p99 renders" out "0.000";
  check_contains "blank sparkline" out "p99 trend:  \n"

(* A random monotone tick stream replayed into two fresh windows lands
   bit-identically: eviction depends only on the observed sequence. *)
let qcheck_window_replay_deterministic =
  QCheck.Test.make ~name:"window replay is bit-identical" ~count:60
    QCheck.(list_of_size Gen.(1 -- 150) (pair (int_range 0 7) (int_range 1 999)))
    (fun steps ->
      let feed w =
        let now = ref 0 in
        List.iter
          (fun (dt, lat) ->
            now := !now + dt;
            Obs.Window.observe w ~now:!now ~ok:(lat mod 5 <> 0)
              (float_of_int lat *. 1e-5))
          steps;
        !now
      in
      let a = Obs.Window.create ~width:13 ~buckets:5 () in
      let b = Obs.Window.create ~width:13 ~buckets:5 () in
      let now = feed a in
      ignore (feed b);
      let sa = Obs.Window.snapshot a ~now and sb = Obs.Window.snapshot b ~now in
      sa.requests = sb.requests && sa.errors = sb.errors
      && Obs.Window.quantile sa 99.0 = Obs.Window.quantile sb 99.0
      && Obs.Window.slots a ~now = Obs.Window.slots b ~now
      && Obs.Window.render a ~now = Obs.Window.render b ~now)

(* ---------------- slo ---------------- *)

let spec = Obs.Slo.default_spec

(* Fill a width-10, 8-bucket window: [latency] and failure flag chosen per
   tick by [f], one observation per tick over [ticks]. *)
let filled_window ticks f =
  let w = Obs.Window.create ~width:10 ~buckets:8 () in
  for t = 0 to ticks - 1 do
    let latency, ok = f t in
    Obs.Window.observe w ~now:t ~ok latency
  done;
  w

let severity_of report objective =
  let a =
    List.find (fun (a : Obs.Slo.alert) -> a.objective = objective)
      report.Obs.Slo.alerts
  in
  a.severity

let test_slo_healthy () =
  let w = filled_window 80 (fun _ -> (1e-4, true)) in
  let r = Obs.Slo.evaluate spec w ~now:79 in
  check_bool "ok" true (Obs.Slo.ok r);
  check_int "requests in long window" 80 r.requests;
  check_bool "latency ok" true (severity_of r "latency" = Obs.Slo.Ok);
  check_bool "errors ok" true (severity_of r "error-rate" = Obs.Slo.Ok)

let test_slo_latency_page () =
  (* slow in both the short and the long window: page *)
  let w = filled_window 80 (fun _ -> (0.05, true)) in
  let r = Obs.Slo.evaluate spec w ~now:79 in
  check_bool "not ok" false (Obs.Slo.ok r);
  check_bool "latency pages" true (severity_of r "latency" = Obs.Slo.Page)

let test_slo_latency_ticket () =
  (* slow history, fast last epoch: sustained breach over the long window
     only, so it tickets instead of paging *)
  let w = filled_window 80 (fun t -> ((if t < 70 then 0.05 else 1e-4), true)) in
  let r = Obs.Slo.evaluate spec w ~now:79 in
  check_bool "ok (no page)" true (Obs.Slo.ok r);
  check_bool "latency tickets" true (severity_of r "latency" = Obs.Slo.Ticket)

let test_slo_error_page () =
  (* every request fails: burn 100x the 1% objective in both windows *)
  let w = filled_window 80 (fun _ -> (1e-4, false)) in
  let r = Obs.Slo.evaluate spec w ~now:79 in
  check_bool "not ok" false (Obs.Slo.ok r);
  let a =
    List.find (fun (a : Obs.Slo.alert) -> a.objective = "error-rate") r.alerts
  in
  check_bool "error pages" true (a.severity = Obs.Slo.Page);
  Alcotest.(check (float 1e-9)) "burn long" 100.0 a.burn_long

let test_slo_alert_order () =
  (* the report lists the worst alert first *)
  let w = filled_window 80 (fun _ -> (1e-4, false)) in
  let r = Obs.Slo.evaluate spec w ~now:79 in
  match r.alerts with
  | first :: _ -> check_bool "worst first" true (first.severity = Obs.Slo.Page)
  | [] -> Alcotest.fail "no alerts"

(* An infinite p99 is over any budget; the NaN p99 of an empty window is
   not. *)
let test_slo_infinite_p99 () =
  let w = filled_window 80 (fun _ -> (infinity, true)) in
  let r = Obs.Slo.evaluate spec w ~now:79 in
  check_bool "infinite latency pages" true (severity_of r "latency" = Obs.Slo.Page);
  check_bool "not ok" false (Obs.Slo.ok r);
  let r = Obs.Slo.evaluate spec (filled_window 0 (fun _ -> (0.0, true))) ~now:79 in
  check_bool "empty window stays ok" true (severity_of r "latency" = Obs.Slo.Ok);
  check_bool "ok" true (Obs.Slo.ok r)

(* ---------------- metrics (bounded registry) ---------------- *)

let test_metrics_exact_below_cap () =
  let m = Service.Metrics.create () in
  let xs = List.init 500 (fun i -> float_of_int (i + 1) *. 1e-4) in
  List.iter (Service.Metrics.observe m "t") xs;
  let s = List.assoc "t" (Service.Metrics.summaries m) in
  check_int "count" 500 s.count;
  Alcotest.(check (float 1e-12)) "median exact" (Util.Stats.median xs) s.median_s;
  Alcotest.(check (float 1e-12)) "p99 exact"
    (Util.Stats.percentile 99.0 xs)
    s.p99_s;
  check_int "all samples retained" 500
    (List.length (Service.Metrics.observations m "t"))

let test_metrics_bounded_beyond_cap () =
  let m = Service.Metrics.create () in
  let n = 3000 in
  let xs = List.init n (fun i -> float_of_int (i + 1) *. 1e-4) in
  List.iter (Service.Metrics.observe m "t") xs;
  let cap = Service.Metrics.raw_sample_cap in
  let retained = Service.Metrics.observations m "t" in
  check_int "raw samples capped" cap (List.length retained);
  (* oldest-first ring: the retained window is the most recent cap *)
  Alcotest.(check (float 1e-12)) "oldest retained"
    (float_of_int (n - cap + 1) *. 1e-4)
    (List.hd retained);
  Alcotest.(check (float 1e-12)) "newest retained" (float_of_int n *. 1e-4)
    (List.nth retained (cap - 1));
  let s = List.assoc "t" (Service.Metrics.summaries m) in
  check_int "count streams past the cap" n s.count;
  (* streaming moments stay exact; quantiles fall back to the sketch and
     stay inside its relative-error bound *)
  Alcotest.(check (float 1e-9)) "mean exact" (Util.Stats.mean xs) s.mean_s;
  Alcotest.(check (float 1e-12)) "min exact" 1e-4 s.min_s;
  Alcotest.(check (float 1e-12)) "max exact" (float_of_int n *. 1e-4) s.max_s;
  let exact = Util.Stats.percentile 99.0 xs in
  check_bool "p99 within sketch bound" true
    (abs_float (s.p99_s -. exact) /. exact <= 2.0 *. Service.Metrics.sketch_alpha);
  let exact_sd = Util.Stats.stddev xs in
  check_bool "stddev from streaming moments" true
    (abs_float (s.stddev_s -. exact_sd) /. exact_sd < 1e-6)

let test_metrics_stddev_cancellation () =
  (* past the raw-sample cap the stddev comes from streaming moments;
     with mean 1 and true stddev 5e-10, a sum-of-squares formula cancels
     catastrophically (~3e-8) where Welford's update stays exact *)
  let m = Service.Metrics.create () in
  for i = 1 to 2000 do
    Service.Metrics.observe m "t" (if i mod 2 = 0 then 1.0 +. 1e-9 else 1.0)
  done;
  let s = List.assoc "t" (Service.Metrics.summaries m) in
  check_bool
    (Printf.sprintf "stddev %.3g within 1e-6 of 5e-10" s.stddev_s)
    true
    (abs_float (s.stddev_s -. 5e-10) /. 5e-10 <= 1e-6)

let test_metrics_histogram_streams () =
  let m = Service.Metrics.create () in
  for _ = 1 to 2000 do
    Service.Metrics.observe m "t" 5e-4
  done;
  (* decade counters never cap, unlike the raw ring *)
  check_int "all observations bucketed" 2000
    (List.assoc "100us-1ms" (Service.Metrics.histogram m "t"))

let test_metrics_quantile_and_sketches () =
  let m = Service.Metrics.create () in
  List.iter (Service.Metrics.observe m "t") [ 1.0; 2.0; 3.0 ];
  let sk = List.assoc "t" (Service.Metrics.sketches m) in
  Alcotest.(check (float 0.05)) "sketch quantile" 2.0 (Obs.Sketch.quantile sk 50.0);
  Service.Metrics.observe m "t" 10.0;
  check_int "sketches are snapshots" 3 (Obs.Sketch.count sk)

(* ---------------- exposition ---------------- *)

let test_prometheus_native_histogram () =
  let m = Service.Metrics.create () in
  List.iter (Service.Metrics.observe m "req") [ 1e-3; 2e-3; 4e-3 ];
  Service.Metrics.incr m "served";
  let out = Service.Metrics.prometheus m in
  check_contains "exposition" out "# HELP barracuda_served_total";
  check_contains "exposition" out "# TYPE barracuda_served_total counter";
  check_contains "exposition" out "# TYPE barracuda_req_seconds histogram";
  check_contains "exposition" out "barracuda_req_seconds_bucket{le=\"+Inf\"} 3";
  check_contains "exposition" out "barracuda_req_seconds_count 3";
  (* cumulative: every bucket count is <= the +Inf count *)
  String.split_on_char '\n' out
  |> List.iter (fun line ->
         if contains line "_bucket{le=" && not (contains line "+Inf") then
           match String.rindex_opt line ' ' with
           | Some i ->
             let c =
               int_of_string
                 (String.sub line (i + 1) (String.length line - i - 1))
             in
             check_bool "cumulative bucket" true (c <= 3)
           | None -> Alcotest.fail "malformed bucket line")

let test_metric_name_escaping () =
  let s = Obs.Sketch.create () in
  Obs.Sketch.add s 1.0;
  let out =
    Obs.Export.prometheus_sketches ~prefix:""
      ~counters:[ ("9lives!", 1) ]
      ~sketches:[ ("weird name", s) ]
      ()
  in
  (* leading digit gains a '_' with an empty prefix; illegal chars map
     to '_' *)
  check_contains "escaped counter" out "_9lives__total 1";
  check_contains "escaped timer" out "weird_name_seconds_bucket"

let test_legacy_prometheus_help () =
  let out =
    Obs.Export.prometheus_sketches ~counters:[ ("hits", 2) ] ~sketches:[] ()
  in
  check_contains "counter help" out "# HELP barracuda_hits_total"

let test_prometheus_sketch_health_gauges () =
  (* every exposed timer carries its sketch-health gauges: the live bucket
     count and whether the bucket cap has collapsed low buckets *)
  let healthy = Obs.Sketch.create ~alpha:0.01 () in
  List.iter (Obs.Sketch.add healthy) [ 1e-3; 2e-3; 4e-3 ];
  let out =
    Obs.Export.prometheus_sketches ~counters:[]
      ~sketches:[ ("req", healthy) ] ()
  in
  check_contains "buckets gauge type" out
    "# TYPE barracuda_req_sketch_buckets gauge";
  check_contains "buckets gauge value" out
    (Printf.sprintf "barracuda_req_sketch_buckets %d"
       (Obs.Sketch.bucket_count healthy));
  check_contains "collapsed gauge" out "barracuda_req_sketch_collapsed 0";
  let capped = Obs.Sketch.create ~alpha:0.05 ~max_buckets:16 () in
  for i = -30 to 29 do
    Obs.Sketch.add capped (10.0 ** float_of_int i)
  done;
  let out =
    Obs.Export.prometheus_sketches ~counters:[]
      ~sketches:[ ("req", capped) ] ()
  in
  check_contains "collapse flagged" out "barracuda_req_sketch_collapsed 1"

(* ---------------- loadgen ---------------- *)

let mm_dsl = "C[i j] = Sum([k], A[i k] * B[k j])"
let tiny_dsl = "V[i j k] = Sum([l m n], A[l k] * B[m j] * C[n i] * U[l m n])"

let small_cfg =
  {
    Service.Loadgen.default_config with
    requests = 600;
    batch = 8;
    window_width = 50;
    window_buckets = 4;
    engine =
      {
        Service.Engine.default_config with
        max_evals = 8;
        batch_size = 4;
        reps = 1;
      };
  }

let small_mix =
  [
    { Service.Loadgen.mix_label = "mm"; mix_dsl = mm_dsl; weight = 3 };
    { Service.Loadgen.mix_label = "tiny"; mix_dsl = tiny_dsl; weight = 1 };
  ]

let test_artifact_deterministic () =
  let artifact cfg =
    let path = Filename.temp_file "replay" ".jsonl" in
    Out_channel.with_open_bin path (fun out ->
        ignore (Service.Loadgen.run ~out cfg small_mix));
    let bytes = In_channel.with_open_bin path In_channel.input_all in
    Sys.remove path;
    bytes
  in
  let a = artifact small_cfg in
  check_int "a header and one line per request" 601
    (List.length (String.split_on_char '\n' (String.trim a)));
  Alcotest.(check string) "bit-identical artifacts" a (artifact small_cfg);
  check_bool "seed changes the replay" true
    (a <> artifact { small_cfg with seed = small_cfg.seed + 1 })

let test_loadgen_result_shape () =
  let res = Service.Loadgen.run small_cfg small_mix in
  let r = res.summary in
  check_int "all requests replayed" 600 r.total;
  check_int "final tick" 599 r.ticks;
  check_int "every request served" 600
    (List.fold_left (fun acc (_, n) -> acc + n) 0 r.served);
  (* the two cold tunes hit the engine; the rest are hits or dedups *)
  check_bool "cold tunes happened" true (List.mem_assoc "tuned" r.served);
  check_bool "healthy defaults meet the SLO" true (Obs.Slo.ok r.verdict);
  (* bounded memory: the window is O(buckets) sketches and the engine's
     timers retain at most the raw-sample cap *)
  let snap = Obs.Window.snapshot r.window ~now:r.ticks in
  check_bool "sketch stays small" true (Obs.Sketch.bucket_count snap.sketch < 512);
  List.iter
    (fun (name, _) ->
      check_bool "timer storage capped" true
        (List.length (Service.Metrics.observations res.metrics name)
        <= Service.Metrics.raw_sample_cap))
    (Service.Metrics.summaries res.metrics)

let test_loadgen_violation_pages () =
  let cfg =
    {
      small_cfg with
      slo = { Obs.Slo.default_spec with latency_budget_s = 1e-9 };
    }
  in
  let r = Service.Loadgen.run cfg small_mix in
  check_bool "impossible budget pages" false (Obs.Slo.ok r.summary.verdict);
  let out = Service.Loadgen.render r in
  check_contains "render names the page" out "PAGE"

let test_loadgen_degrade_regression () =
  (* a 10^4x latency regression must breach the default 5ms p99 budget *)
  let r = Service.Loadgen.run { small_cfg with degrade = 1e4 } small_mix in
  check_bool "degraded replay pages" false (Obs.Slo.ok r.summary.verdict)

let test_loadgen_validation () =
  Alcotest.check_raises "empty mix"
    (Invalid_argument "Loadgen.run: empty request mix") (fun () ->
      ignore (Service.Loadgen.run small_cfg []));
  Alcotest.check_raises "bad request count"
    (Invalid_argument "Loadgen.run: requests must be >= 1") (fun () ->
      ignore (Service.Loadgen.run { small_cfg with requests = 0 } small_mix));
  (* a batch below 1 cannot drain the request count *)
  List.iter
    (fun batch ->
      Alcotest.check_raises
        (Printf.sprintf "batch %d" batch)
        (Invalid_argument "Loadgen.run: batch must be >= 1")
        (fun () -> ignore (Service.Loadgen.run { small_cfg with batch } small_mix)))
    [ 0; -3 ]

let test_loadgen_frames () =
  let frames = ref [] in
  let on_frame _w ~now = frames := now :: !frames in
  ignore
    (Service.Loadgen.run ~on_frame ~frame_every:200
       { small_cfg with requests = 600 }
       small_mix);
  Alcotest.(check (list int)) "frames at the configured cadence" [ 199; 399; 599 ]
    (List.rev !frames)

let test_mix_of_journal () =
  (* mix_of_journal reads only label/dsl, so synthesize entries from one
     real journaled tune *)
  let b = Benchsuite.Suite.eqn1 ~n:4 () in
  let cfg = { Surf.Search.default_config with max_evals = 8; batch_size = 4 } in
  let entry =
    match
      Obs.Journal.collect (fun () ->
          Autotune.Tuner.tune
            ~strategy:(Autotune.Tuner.Surf_search cfg)
            ~pool_per_variant:10 ~journal_seed:3 ~rng:(Util.Rng.create 3)
            ~arch:Gpusim.Arch.gtx980 b)
    with
    | _, [ e ] -> e
    | _ -> Alcotest.fail "expected one journal entry"
  in
  let e label dsl = { entry with Obs.Journal.label; dsl } in
  let mix =
    Service.Loadgen.mix_of_journal [ e "a" "X"; e "b" "Y"; e "c" "X" ]
  in
  check_int "distinct DSLs" 2 (List.length mix);
  (match mix with
  | [ first; second ] ->
    Alcotest.(check string) "first-appearance order" "a" first.mix_label;
    check_int "duplicate DSL merges weight" 2 first.weight;
    Alcotest.(check string) "second class" "b" second.mix_label;
    check_int "second weight" 1 second.weight
  | _ -> Alcotest.fail "expected two classes");
  check_int "empty journal" 0 (List.length (Service.Loadgen.mix_of_journal []))

let suite =
  [
    Alcotest.test_case "sketch: empty" `Quick test_sketch_empty;
    Alcotest.test_case "sketch: basic quantiles" `Quick test_sketch_basic;
    Alcotest.test_case "sketch: infinite values have an infinite mean" `Quick
      test_sketch_infinite_mean;
    Alcotest.test_case "sketch: zero and negative values" `Quick
      test_sketch_zero_and_negative;
    Alcotest.test_case "sketch: bucket cap collapses low buckets" `Quick
      test_sketch_collapse_cap;
    Alcotest.test_case "sketch: buckets cumulate to count" `Quick
      test_sketch_buckets_cumulate;
    Alcotest.test_case "sketch: merge rejects alpha mismatch" `Quick
      test_sketch_merge_alpha_mismatch;
    Alcotest.test_case "sketch: copy is independent" `Quick
      test_sketch_copy_independent;
    Alcotest.test_case "window: lazy eviction" `Quick test_window_eviction;
    Alcotest.test_case "window: short snapshots" `Quick test_window_snapshot_last;
    Alcotest.test_case "window: dashboard render" `Quick test_window_render;
    Alcotest.test_case "window: empty render" `Quick test_window_render_empty;
    Alcotest.test_case "window: single-epoch render" `Quick
      test_window_render_single_epoch;
    Alcotest.test_case "window: all-error epoch render" `Quick
      test_window_render_all_error_epoch;
    Alcotest.test_case "slo: healthy window" `Quick test_slo_healthy;
    Alcotest.test_case "slo: latency page" `Quick test_slo_latency_page;
    Alcotest.test_case "slo: latency ticket" `Quick test_slo_latency_ticket;
    Alcotest.test_case "slo: error-budget page" `Quick test_slo_error_page;
    Alcotest.test_case "slo: worst alert first" `Quick test_slo_alert_order;
    Alcotest.test_case "slo: infinite p99 pages" `Quick test_slo_infinite_p99;
    Alcotest.test_case "metrics: exact below the cap" `Quick
      test_metrics_exact_below_cap;
    Alcotest.test_case "metrics: bounded beyond the cap" `Quick
      test_metrics_bounded_beyond_cap;
    Alcotest.test_case "metrics: decade histogram streams" `Quick
      test_metrics_histogram_streams;
    Alcotest.test_case "metrics: streaming stddev survives cancellation" `Quick
      test_metrics_stddev_cancellation;
    Alcotest.test_case "metrics: quantile and sketch snapshots" `Quick
      test_metrics_quantile_and_sketches;
    Alcotest.test_case "export: native histograms" `Quick
      test_prometheus_native_histogram;
    Alcotest.test_case "export: metric-name escaping" `Quick
      test_metric_name_escaping;
    Alcotest.test_case "export: legacy summary keeps HELP" `Quick
      test_legacy_prometheus_help;
    Alcotest.test_case "export: sketch health gauges" `Quick
      test_prometheus_sketch_health_gauges;
    Alcotest.test_case "replay: artifact bytes are deterministic" `Quick
      test_artifact_deterministic;
    Alcotest.test_case "loadgen: result shape and bounded memory" `Quick
      test_loadgen_result_shape;
    Alcotest.test_case "loadgen: impossible budget pages" `Quick
      test_loadgen_violation_pages;
    Alcotest.test_case "loadgen: degraded latency pages" `Quick
      test_loadgen_degrade_regression;
    Alcotest.test_case "loadgen: input validation" `Quick test_loadgen_validation;
    Alcotest.test_case "loadgen: dashboard frames" `Quick test_loadgen_frames;
    Alcotest.test_case "loadgen: journal-derived mix" `Quick test_mix_of_journal;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        qcheck_sketch_error_bound;
        qcheck_sketch_merge_algebra;
        qcheck_sketch_moments;
        qcheck_sketch_merge_moments;
        qcheck_window_replay_deterministic;
      ]
