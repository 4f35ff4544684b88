(* Online change-point detection and the drift doctor: pinned alarm ticks
   for all three detectors, provable no-false-alarm and bounded-delay
   properties for Page-Hinkley, registry semantics, live wiring through
   Engine / Loadgen, and the cross-artifact correlator's DRxxx
   findings over synthesized journal entries. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let check_contains what haystack needle =
  check_bool (what ^ ": contains " ^ needle) true (contains haystack needle)

let feed_from m start values =
  List.concat
    (List.mapi
       (fun i v ->
         match Obs.Drift.observe m ~tick:(start + i) v with
         | Some a -> [ a ]
         | None -> [])
       values)

let feed_all m values = feed_from m 0 values

let constant n v = List.init n (fun _ -> v)

(* ---------------- Page-Hinkley ---------------- *)

(* 100 ticks at 1.0 then a +2.0 mean shift: with delta 0.05 and lambda 3
   the cumulative excess crosses 3 on the second shifted observation, so
   the alarm tick is exactly 101 - forever, on any machine. *)
let test_ph_up_pinned_tick () =
  let m = Obs.Drift.page_hinkley "lat" in
  check_bool "warming up at start" true (Obs.Drift.warming_up m);
  ignore (feed_all m (constant 100 1.0));
  check_bool "warmed up" false (Obs.Drift.warming_up m);
  let alarms = feed_from m 100 (constant 10 3.0) in
  (* the alarm resets the detector into a fresh warm-up *)
  check_bool "re-warming after alarm" true (Obs.Drift.warming_up m);
  match alarms with
  | [ a ] ->
    check_int "alarm tick" 101 a.Obs.Drift.at_tick;
    check_bool "direction up" true (a.direction = Obs.Drift.Up);
    Alcotest.(check (float 1e-9)) "observed" 3.0 a.observed;
    check_bool "stat above threshold" true (a.statistic > a.threshold);
    check_contains "detail" a.detail "up shift at tick 101"
  | l -> Alcotest.failf "expected exactly one alarm, got %d" (List.length l)

(* the mirror statistic: a drop from 1.0 to 0.2 crosses lambda on the
   fifth shifted observation *)
let test_ph_down_pinned_tick () =
  let m = Obs.Drift.page_hinkley "lat" in
  let alarms = feed_all m (constant 100 1.0 @ constant 10 0.2) in
  match alarms with
  | [ a ] ->
    check_int "alarm tick" 104 a.Obs.Drift.at_tick;
    check_bool "direction down" true (a.direction = Obs.Drift.Down)
  | l -> Alcotest.failf "expected exactly one alarm, got %d" (List.length l)

let test_ph_min_count_gates () =
  (* the same shift inside the warm-up window cannot fire *)
  let m = Obs.Drift.page_hinkley ~min_count:30 "lat" in
  let alarms = feed_all m (constant 5 1.0 @ constant 20 3.0) in
  check_int "no alarm during warm-up" 0 (List.length alarms)

let test_ph_resets_after_alarm () =
  let m = Obs.Drift.page_hinkley "lat" in
  (* shift up, let it re-calibrate at the new level, then shift again *)
  let stream =
    constant 100 1.0 @ constant 100 3.0 @ constant 100 9.0
  in
  let alarms = feed_all m stream in
  check_int "one alarm per shift" 2 (List.length alarms);
  let ticks = List.map (fun a -> a.Obs.Drift.at_tick) alarms in
  check_bool "second alarm in the second shift" true
    (List.nth ticks 1 >= 200)

let test_ph_alarm_cap_and_suppression () =
  (* delta 0, lambda 0.4, min_count 1: an alternating 0/1 stream alarms
     every second observation - 100 alarms in 200 ticks, 64 retained *)
  let m = Obs.Drift.page_hinkley ~delta:0.0 ~lambda:0.4 ~min_count:1 "flap" in
  let fired =
    feed_all m (List.init 200 (fun i -> float_of_int (i mod 2)))
  in
  check_int "observe returned every alarm" 100 (List.length fired);
  check_int "retained capped" Obs.Drift.max_alarms
    (List.length (Obs.Drift.alarms m));
  check_int "overflow counted" 36 (Obs.Drift.suppressed m)

(* ---------------- CUSUM ---------------- *)

let test_cusum_pinned_tick () =
  let m = Obs.Drift.cusum ~ref_count:50 "lat" in
  check_contains "kind" (Obs.Drift.kind m) "cusum";
  (* alternate 1.0/1.2 so the calibration has nonzero variance:
     mu0 = 1.1, sigma0 = 0.1 *)
  let calib = List.init 50 (fun i -> if i mod 2 = 0 then 1.0 else 1.2) in
  let none = feed_all m calib in
  check_int "silent while calibrating" 0 (List.length none);
  check_bool "calibrated" false (Obs.Drift.warming_up m);
  (* z = (5 - 1.1)/0.1 = 39 >> h on the very first shifted observation *)
  (match Obs.Drift.observe m ~tick:50 5.0 with
  | Some a ->
    check_int "alarm tick" 50 a.Obs.Drift.at_tick;
    check_bool "direction up" true (a.direction = Obs.Drift.Up);
    Alcotest.(check (float 1e-6)) "reference is mu0" 1.1 a.reference;
    Alcotest.(check (float 1e-6)) "statistic" 38.5 a.statistic
  | None -> Alcotest.fail "expected an alarm");
  (* full reset: back to a fresh calibration phase *)
  check_bool "re-calibrating after alarm" true (Obs.Drift.warming_up m)

let test_cusum_tolerates_reference_jitter () =
  let m = Obs.Drift.cusum ~ref_count:50 "lat" in
  let jitter i = if i mod 2 = 0 then 1.0 else 1.2 in
  let alarms = feed_all m (List.init 400 jitter) in
  check_int "no alarm on the calibration distribution" 0 (List.length alarms)

(* ---------------- quantile shift ---------------- *)

let test_quantile_shift_pinned_tick () =
  let m = Obs.Drift.quantile_shift ~window:50 ~ref_windows:2 "p99" in
  (* ticks 0..99 build the frozen reference; ticks 100..149 are a 10x
     shifted window, compared (and fired) when it completes at tick 149 *)
  let alarms = feed_all m (constant 100 1.0 @ constant 50 10.0) in
  (match alarms with
  | [ a ] ->
    check_int "alarm tick" 149 a.Obs.Drift.at_tick;
    check_bool "direction up" true (a.direction = Obs.Drift.Up);
    check_bool "ratio near 10" true
      (a.statistic > 8.0 && a.statistic < 12.0)
  | l -> Alcotest.failf "expected exactly one alarm, got %d" (List.length l));
  check_bool "reference rebuilt after alarm" true (Obs.Drift.warming_up m)

let test_quantile_shift_down () =
  let m = Obs.Drift.quantile_shift ~window:50 ~ref_windows:2 "p99" in
  let alarms = feed_all m (constant 100 1.0 @ constant 50 0.1) in
  match alarms with
  | [ a ] ->
    check_int "alarm tick" 149 a.Obs.Drift.at_tick;
    check_bool "direction down" true (a.direction = Obs.Drift.Down)
  | l -> Alcotest.failf "expected exactly one alarm, got %d" (List.length l)

let test_quantile_shift_absorbs_sketch_error () =
  (* a shift equal to the configured ratio but within gamma^2 must not
     fire: the threshold absorbs the sketch's own relative error, so a
     ratio alarm can never be a sketch artifact *)
  let m = Obs.Drift.quantile_shift ~ratio:2.0 ~window:50 ~ref_windows:2 "p99" in
  let alarms = feed_all m (constant 100 1.0 @ constant 100 2.0) in
  check_int "2x shift under a 2x-ratio threshold stays silent" 0
    (List.length alarms)

(* ---------------- registry ---------------- *)

let test_registry () =
  let r = Obs.Drift.create_registry () in
  Obs.Drift.register r (Obs.Drift.page_hinkley "b");
  Obs.Drift.register r (Obs.Drift.page_hinkley "a");
  check_int "both registered" 2 (List.length (Obs.Drift.monitors r));
  check_bool "duplicate name rejected" true
    (try
       Obs.Drift.register r (Obs.Drift.cusum "a");
       false
     with Invalid_argument _ -> true);
  check_bool "find hit" true (Obs.Drift.find r "a" <> None);
  check_bool "find miss" true (Obs.Drift.find r "zz" = None);
  check_bool "feed on absent monitor" true
    (Obs.Drift.feed r "zz" ~tick:0 1.0 = None);
  (* fire both monitors at the same tick: all_alarms breaks the tie by
     monitor name *)
  List.iter
    (fun name ->
      for t = 0 to 99 do
        ignore (Obs.Drift.feed r name ~tick:t 1.0)
      done;
      ignore (Obs.Drift.feed r name ~tick:100 3.0);
      ignore (Obs.Drift.feed r name ~tick:101 3.0))
    [ "b"; "a" ];
  (match Obs.Drift.all_alarms r with
  | [ x; y ] ->
    Alcotest.(check string) "name tie-break" "a" x.Obs.Drift.monitor;
    Alcotest.(check string) "second" "b" y.Obs.Drift.monitor;
    check_int "same tick" x.at_tick y.at_tick
  | l -> Alcotest.failf "expected two alarms, got %d" (List.length l));
  let out = Obs.Drift.render r in
  check_contains "render" out "drift monitors (2)";
  check_contains "render" out "page-hinkley";
  check_contains "render" out "up shift at tick 101";
  List.iter
    (fun name ->
      match Obs.Drift.find r name with
      | Some m -> check_int (name ^ ": nothing suppressed") 0 (Obs.Drift.suppressed m)
      | None -> assert false)
    [ "a"; "b" ];
  (* a registry fed the same stream twice alarms identically *)
  let replay () =
    let r = Obs.Drift.create_registry () in
    Obs.Drift.register r (Obs.Drift.cusum ~ref_count:50 "m");
    List.iteri
      (fun t v -> ignore (Obs.Drift.feed r "m" ~tick:t v))
      (List.init 50 (fun i -> if i mod 2 = 0 then 1.0 else 1.2)
      @ constant 10 5.0);
    (Obs.Drift.render r, Obs.Drift.all_alarms r)
  in
  let a = replay () in
  check_bool "the stream alarms" true (snd a <> []);
  check_bool "registry deterministic" true (a = replay ())

(* ---------------- QCheck properties ---------------- *)

(* Stationary stream with jitter bounded by half of delta: the
   Page-Hinkley increment is strictly negative on every observation, so
   the false-alarm count is exactly zero - not just rare. *)
let qcheck_ph_no_false_alarm =
  QCheck.Test.make ~name:"page-hinkley: zero false alarms under bounded jitter"
    ~count:100
    QCheck.(list_of_size Gen.(0 -- 500) (int_range 0 100))
    (fun jitters ->
      let m = Obs.Drift.page_hinkley ~delta:0.15 "stationary" in
      let alarms =
        feed_all m (List.map (fun j -> 0.95 +. (0.001 *. float_of_int j)) jitters)
      in
      alarms = [] && Obs.Drift.suppressed m = 0)

(* A 2x mean shift after any bounded-jitter prefix is caught within a
   bounded delay: the post-shift increment is at least ~0.4 per tick, so
   lambda = 3 is crossed in well under 20 observations. *)
let qcheck_ph_bounded_delay =
  QCheck.Test.make
    ~name:"page-hinkley: 2x shift detected within bounded delay" ~count:100
    QCheck.(
      pair
        (list_of_size Gen.(10 -- 200) (int_range 0 100))
        (list_of_size (Gen.return 100) (int_range 0 100)))
    (fun (stationary, shifted) ->
      let m = Obs.Drift.page_hinkley ~delta:0.15 ~min_count:10 "shift" in
      let prefix =
        List.map (fun j -> 0.95 +. (0.001 *. float_of_int j)) stationary
      in
      let tail =
        List.map (fun j -> 1.95 +. (0.001 *. float_of_int j)) shifted
      in
      let n = List.length prefix in
      match feed_all m (prefix @ tail) with
      | a :: _ ->
        a.Obs.Drift.direction = Obs.Drift.Up
        && a.at_tick >= n
        && a.at_tick < n + 20
      | [] -> false)

(* ---------------- live wiring: engine, loadgen ---------------- *)

let small_engine =
  {
    Service.Engine.default_config with
    max_evals = 8;
    batch_size = 4;
    reps = 1;
  }

let mm_dsl = "C[i j] = Sum([k], A[i k] * B[k j])"
let tiny_dsl = "V[i j k] = Sum([l m n], A[l k] * B[m j] * C[n i] * U[l m n])"

let test_engine_drift_monitors () =
  let svc = Service.Engine.create ~config:small_engine () in
  let reg = Service.Engine.drift svc in
  check_bool "hit-rate monitor registered" true
    (Obs.Drift.find reg "cache.hit_rate" <> None);
  check_bool "mispredict monitor registered" true
    (Obs.Drift.find reg "surrogate.mispredict" <> None);
  let req = { Service.Engine.label = "mm"; src = mm_dsl } in
  ignore (Service.Engine.batch svc [ req ]);
  ignore (Service.Engine.batch svc [ req ]);
  (match Obs.Drift.find reg "cache.hit_rate" with
  | Some m -> check_int "one 0/1 sample per response" 2 (Obs.Drift.count m)
  | None -> assert false);
  (match Obs.Drift.find reg "surrogate.mispredict" with
  | Some m ->
    check_bool "cold tune fed mispredict residuals" true
      (Obs.Drift.count m > 0)
  | None -> assert false);
  check_contains "stats report" (Service.Engine.stats_report svc)
    "drift monitors"

let monitored_cfg =
  {
    Service.Loadgen.default_config with
    requests = 1600;
    batch = 8;
    window_width = 50;
    window_buckets = 4;
    monitor = true;
    degrade = 10.0;
    degrade_at = 800;
    engine = small_engine;
  }

let mix =
  [
    { Service.Loadgen.mix_label = "mm"; mix_dsl = mm_dsl; weight = 3 };
    { Service.Loadgen.mix_label = "tiny"; mix_dsl = tiny_dsl; weight = 1 };
  ]

(* Run [cfg] recording its artifact: the result and the artifact's bytes. *)
let recorded_run cfg =
  let path = Filename.temp_file "replay" ".jsonl" in
  let r =
    Out_channel.with_open_bin path (fun out ->
        Service.Loadgen.run ~out cfg mix)
  in
  let bytes = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  (r, bytes)

(* One degraded monitored replay, shared across the tests below (a replay
   tunes both classes, so it is the expensive part). *)
let degraded = lazy (recorded_run monitored_cfg)

(* Fold an artifact's bytes back into a summary. *)
let refold bytes =
  let path = Filename.temp_file "replay" ".jsonl" in
  Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
  let s = Obs.Replay.summarize path in
  Sys.remove path;
  match s with Ok s -> s | Error e -> Alcotest.fail ("summarize: " ^ e)

let test_loadgen_monitor_pages_after_degrade () =
  let result, _ = Lazy.force degraded in
  let r = result.Service.Loadgen.summary in
  check_bool "monitors attached" true (r.drift <> None);
  check_bool "the injected regression alarms" true (r.alarms <> []);
  List.iter
    (fun (a : Obs.Drift.alarm) ->
      check_bool
        (Printf.sprintf "alarm at %d is after the degrade tick" a.at_tick)
        true
        (a.at_tick >= monitored_cfg.degrade_at))
    r.alarms;
  check_contains "render" (Service.Loadgen.render result) "drift monitors";
  (* nonzero exit contract for the CLI: alarms imply a failed replay even
     if the SLO window has not breached yet *)
  check_bool "alarms present regardless of SLO" true
    (r.alarms <> [] || not (Obs.Slo.ok r.verdict))

let test_loadgen_monitor_deterministic () =
  let r1, bytes1 = Lazy.force degraded in
  let r2, bytes2 = recorded_run monitored_cfg in
  Alcotest.(check string) "bit-identical monitored artifacts" bytes1 bytes2;
  let ticks (r : Service.Loadgen.result) =
    List.map (fun (a : Obs.Drift.alarm) -> a.at_tick) r.summary.alarms
  in
  check_bool "identical alarm ticks" true (ticks r1 = ticks r2)

(* Every report of the degraded replay, folded back from its artifact, is
   byte-identical to the one the replay made live. *)
let test_refold_equals_live () =
  let result, bytes = Lazy.force degraded in
  let live = result.Service.Loadgen.summary and back = refold bytes in
  let ledger (s : Obs.Replay.summary) =
    Obs.Json.to_string (Obs.Ledger.report_json (Obs.Ledger.report s.ledger))
  in
  Alcotest.(check string) "ledger report" (ledger live) (ledger back);
  Alcotest.(check string) "slo verdict"
    (Obs.Slo.render live.verdict)
    (Obs.Slo.render back.verdict);
  check_bool "slo report values" true (live.verdict = back.verdict);
  check_bool "the replay alarmed" true (live.alarms <> []);
  check_bool "drift alarms" true (live.alarms = back.alarms);
  check_bool "serve counts" true (live.served = back.served);
  check_int "errors" live.errors back.errors;
  check_int "final tick" live.ticks back.ticks

let test_loadgen_monitor_clean_run_silent () =
  let r =
    Service.Loadgen.run
      { monitored_cfg with degrade = 1.0; degrade_at = 0 }
      mix
  in
  check_int "no alarms on a clean replay" 0 (List.length r.summary.alarms)

(* ---------------- doctor ---------------- *)

(* One real journaled tune; every scenario below is a record-update clone
   of it (the doctor only reads labels, hashes and times). *)
let base_entry =
  lazy
    (let b = Benchsuite.Suite.eqn1 ~n:4 () in
     let cfg = { Surf.Search.default_config with max_evals = 8; batch_size = 4 } in
     match
       Obs.Journal.collect (fun () ->
           Autotune.Tuner.tune
             ~strategy:(Autotune.Tuner.Surf_search cfg)
             ~pool_per_variant:10 ~journal_seed:3 ~rng:(Util.Rng.create 3)
             ~arch:Gpusim.Arch.gtx980 b)
     with
     | _, [ e ] -> e
     | _ -> Alcotest.fail "expected one journal entry")

let find_code (r : Obs.Doctor.report) code =
  List.find_opt (fun (f : Obs.Doctor.finding) -> f.code = code) r.findings

let diagnose_journal ?replay entries =
  Obs.Doctor.diagnose
    { Obs.Doctor.no_inputs with journal = entries; replay }

(* A replay of [served] requests (serve name, count) over [classes]
   request classes: one cheap warm-sized cost each, so no ledger finding
   beyond the two infos fires. *)
let synthetic_summary ?(classes = 1) served =
  let header =
    {
      Obs.Replay.requests = 0;
      seed = 0;
      batch = 1;
      error_rate = 0.0;
      degrade = 1.0;
      degrade_at = 0;
      monitor = false;
      width = 10;
      buckets = 4;
      slo = Obs.Slo.default_spec;
      classes =
        Array.init classes (fun i ->
            {
              Obs.Replay.label = Printf.sprintf "c%d" i;
              dsl = "-";
              key = "k";
              run_id = None;
              weight = 1;
            });
    }
  in
  let names = List.concat_map (fun (name, n) -> List.init n (fun _ -> name)) served in
  Obs.Replay.fold header
    (List.mapi
       (fun t name ->
         {
           Obs.Replay.rq_tick = t;
           rq_class = t mod classes;
           rq_served = name;
           rq_ok = true;
           rq_mult = 1.0;
           rq_costs = [ (Obs.Ledger.Lookup, 1e-5); (Obs.Ledger.Measure, 1e-4) ];
         })
       names)

(* A quiet replay summary carrying [alarms]. *)
let with_alarms alarms =
  { (synthetic_summary [ ("hit:memory", 20) ]) with Obs.Replay.alarms }

let test_doctor_healthy () =
  let r = Obs.Doctor.diagnose Obs.Doctor.no_inputs in
  check_int "no findings" 0 (List.length r.findings);
  check_bool "not critical" false (Obs.Doctor.has_critical r);
  check_contains "render" (Obs.Doctor.render r) "healthy: no findings";
  (* a single self-consistent run is also healthy *)
  let r = diagnose_journal [ Lazy.force base_entry ] in
  check_int "single run: no findings" 0 (List.length r.findings);
  check_int "runs" 1 r.runs;
  check_int "keys" 1 r.keys;
  check_int "archs" 1 r.archs

let test_doctor_arch_change () =
  let e = Lazy.force base_entry in
  let r =
    diagnose_journal [ e; { e with Obs.Journal.arch = "sim://other@1.0" } ]
  in
  check_int "archs counted" 2 r.archs;
  match find_code r "DR010" with
  | Some f ->
    check_bool "warning" true (f.severity = Obs.Doctor.Warning);
    check_bool "suspect named" true
      (List.mem_assoc "arch-change" f.suspects);
    check_contains "detail" f.detail "2 arch fingerprints"
  | None -> Alcotest.fail "expected DR010"

let slow_kernel_clone (e : Obs.Journal.entry) =
  let w = e.winner in
  {
    e with
    Obs.Journal.winner =
      {
        w with
        Obs.Journal.lineage =
          { w.lineage with Obs.Journal.kernel_hash = "feedface" };
        measured = w.measured *. 2.0;
      };
  }

let test_doctor_kernel_drift () =
  let e = Lazy.force base_entry in
  let r = diagnose_journal [ e; slow_kernel_clone e ] in
  (match find_code r "DR011" with
  | Some f ->
    check_bool "critical: 2x slower is beyond tolerance" true
      (f.severity = Obs.Doctor.Critical);
    check_bool "earliest diverging stage" true (f.stage = Some "kernel");
    check_bool "suspect scored" true
      (List.assoc_opt "kernel-regression" f.suspects = Some 1.0)
  | None -> Alcotest.fail "expected DR011");
  (* same divergence, equal time: only a warning *)
  let same_speed =
    let c = slow_kernel_clone e in
    { c with Obs.Journal.winner = { c.winner with measured = e.winner.measured } }
  in
  match find_code (diagnose_journal [ e; same_speed ]) "DR011" with
  | Some f -> check_bool "warning band" true (f.severity = Obs.Doctor.Warning)
  | None -> Alcotest.fail "expected DR011 warning"

let test_doctor_surrogate_drift () =
  let e = Lazy.force base_entry in
  let bad =
    {
      e with
      Obs.Journal.variants =
        List.map
          (fun (v : Obs.Journal.variant) ->
            { v with Obs.Journal.predicted = Some (v.measured *. 3.0) })
          e.variants;
    }
  in
  (match find_code (diagnose_journal [ bad ]) "DR012" with
  | Some f ->
    check_bool "suspect saturates" true
      (List.assoc_opt "surrogate-drift" f.suspects = Some 1.0);
    check_contains "detail" f.detail "mispredict"
  | None -> Alcotest.fail "expected DR012");
  (* accurate predictions stay silent *)
  let good =
    {
      e with
      Obs.Journal.variants =
        List.map
          (fun (v : Obs.Journal.variant) ->
            { v with Obs.Journal.predicted = Some v.measured })
          e.variants;
    }
  in
  check_bool "no DR012 when the model predicts" true
    (find_code (diagnose_journal [ good ]) "DR012" = None)

let test_doctor_cache_eviction () =
  let replay =
    synthetic_summary ~classes:2 [ ("tuned", 5); ("hit:memory", 40) ]
  in
  (match find_code (diagnose_journal ~replay []) "DR013" with
  | Some f ->
    check_bool "suspect" true (List.mem_assoc "cache-eviction" f.suspects);
    check_contains "detail" f.detail "5 cold tunes for 2 request classes"
  | None -> Alcotest.fail "expected DR013");
  let replay = synthetic_summary ~classes:2 [ ("tuned", 2) ] in
  check_bool "tunes within class count stay silent" true
    (find_code (diagnose_journal ~replay []) "DR013" = None)

let test_doctor_discarded_lines () =
  let r =
    Obs.Doctor.diagnose { Obs.Doctor.no_inputs with discarded = 2 }
  in
  match find_code r "DR030" with
  | Some f ->
    check_bool "info" true (f.severity = Obs.Doctor.Info);
    check_contains "detail" f.detail "2 journal lines discarded"
  | None -> Alcotest.fail "expected DR030"

let fire_alarm () =
  let m = Obs.Drift.page_hinkley "latency.p99" in
  match feed_all m (constant 100 1.0 @ constant 10 3.0) with
  | a :: _ -> a
  | [] -> Alcotest.fail "no alarm"

let test_doctor_alarm_attribution () =
  let a = fire_alarm () in
  (* no journal-side cause: the critical finding falls back to a generic
     serving-regression suspect *)
  let r =
    Obs.Doctor.diagnose
      { Obs.Doctor.no_inputs with replay = Some (with_alarms [ a ]) }
  in
  check_bool "critical" true (Obs.Doctor.has_critical r);
  (match find_code r "DR002" with
  | Some f ->
    check_bool "fallback suspect" true
      (f.suspects = [ ("serving-regression", 0.25) ])
  | None -> Alcotest.fail "expected DR002");
  (* with a corroborating kernel regression in the journal, the same alarm
     is attributed to it, and the finding names the diverging stage *)
  let e = Lazy.force base_entry in
  let r =
    Obs.Doctor.diagnose
      {
        Obs.Doctor.no_inputs with
        journal = [ e; slow_kernel_clone e ];
        replay = Some (with_alarms [ a ]);
      }
  in
  match find_code r "DR002" with
  | Some f ->
    (match f.suspects with
    | (top, score) :: _ ->
      Alcotest.(check string) "top suspect" "kernel-regression" top;
      check_bool "top score" true (score = 1.0)
    | [] -> Alcotest.fail "no suspects");
    check_bool "stage carried onto the symptom" true (f.stage = Some "kernel")
  | None -> Alcotest.fail "expected DR002"

(* The degraded replay's artifact, read back, drives the doctor. *)
let test_doctor_load_end_to_end () =
  let live, bytes = Lazy.force degraded in
  let replay = refold bytes in
  check_int "alarms read back" (List.length live.Service.Loadgen.summary.alarms)
    (List.length replay.alarms);
  check_int "classes counted" 2 (Array.length replay.header.classes);
  check_bool "served read back" true (List.mem_assoc "tuned" replay.served);
  let report = diagnose_journal ~replay [] in
  check_bool "replay alarms surface as critical findings" true
    (Obs.Doctor.has_critical report);
  check_bool "DR002 present" true (find_code report "DR002" <> None)

let test_doctor_json_deterministic () =
  let e = Lazy.force base_entry in
  let inputs =
    {
      Obs.Doctor.no_inputs with
      journal = [ e; slow_kernel_clone e ];
      discarded = 1;
      replay = Some (with_alarms [ fire_alarm () ]);
    }
  in
  let dump () =
    Obs.Json.to_string (Obs.Doctor.to_json (Obs.Doctor.diagnose inputs))
  in
  Alcotest.(check string) "bit-identical doctor json" (dump ()) (dump ());
  let out = dump () in
  check_contains "schema" out "\"schema_version\":1";
  check_contains "counts" out "\"critical\":2";
  (* severity-sorted: the critical findings precede the info one *)
  let r = Obs.Doctor.diagnose inputs in
  (match r.findings with
  | first :: _ ->
    check_bool "most severe first" true (first.severity = Obs.Doctor.Critical)
  | [] -> Alcotest.fail "expected findings");
  check_bool "render lists codes" true
    (contains (Obs.Doctor.render r) "DR011")

(* ---------------- journal helpers ---------------- *)

let test_first_divergence () =
  let e = Lazy.force base_entry in
  let lin = e.winner.lineage in
  check_bool "identical chains" true
    (Obs.Journal.first_divergence lin lin = None);
  check_bool "kernel stage" true
    (Obs.Journal.first_divergence lin
       { lin with Obs.Journal.kernel_hash = "x" }
    = Some "kernel");
  check_bool "earliest stage wins" true
    (Obs.Journal.first_divergence lin
       { lin with Obs.Journal.tcr_hash = "x"; kernel_hash = "y" }
    = Some "tcr");
  check_bool "dsl first" true
    (Obs.Journal.first_divergence lin
       { lin with Obs.Journal.dsl_hash = "x" }
    = Some "dsl");
  check_bool "variant stage" true
    (Obs.Journal.first_divergence lin
       { lin with Obs.Journal.variant_hash = "x" }
    = Some "variant")

let test_history_json () =
  let e = Lazy.force base_entry in
  match Obs.Journal.history_json [ e; slow_kernel_clone e ] with
  | Obs.Json.Arr [ a; _ ] ->
    let str k = Option.bind (Obs.Json.member k a) Obs.Json.get_str in
    check_bool "label" true (str "label" = Some e.label);
    check_bool "winner label" true
      (str "winner_label" = Some e.winner.label);
    check_bool "arch fingerprint" true (str "arch" = Some e.arch);
    check_bool "best time present" true
      (Option.bind (Obs.Json.member "best_s" a) Obs.Json.get_num
      = Some e.winner.measured)
  | _ -> Alcotest.fail "expected a two-element array"

let suite =
  [
    Alcotest.test_case "ph: pinned up-shift tick" `Quick test_ph_up_pinned_tick;
    Alcotest.test_case "ph: pinned down-shift tick" `Quick
      test_ph_down_pinned_tick;
    Alcotest.test_case "ph: min_count gates alarms" `Quick
      test_ph_min_count_gates;
    Alcotest.test_case "ph: resets after alarm" `Quick test_ph_resets_after_alarm;
    Alcotest.test_case "ph: alarm cap and suppression" `Quick
      test_ph_alarm_cap_and_suppression;
    Alcotest.test_case "cusum: pinned alarm tick" `Quick test_cusum_pinned_tick;
    Alcotest.test_case "cusum: tolerates reference jitter" `Quick
      test_cusum_tolerates_reference_jitter;
    Alcotest.test_case "quantile-shift: pinned alarm tick" `Quick
      test_quantile_shift_pinned_tick;
    Alcotest.test_case "quantile-shift: down direction" `Quick
      test_quantile_shift_down;
    Alcotest.test_case "quantile-shift: absorbs sketch error" `Quick
      test_quantile_shift_absorbs_sketch_error;
    Alcotest.test_case "registry semantics" `Quick test_registry;
    Alcotest.test_case "engine: self-watching monitors" `Quick
      test_engine_drift_monitors;
    Alcotest.test_case "loadgen: monitors page after mid-replay degrade"
      `Quick test_loadgen_monitor_pages_after_degrade;
    Alcotest.test_case "loadgen: monitored replay is deterministic" `Quick
      test_loadgen_monitor_deterministic;
    Alcotest.test_case "replay: refold equals live" `Quick
      test_refold_equals_live;
    Alcotest.test_case "loadgen: clean replay stays silent" `Quick
      test_loadgen_monitor_clean_run_silent;
    Alcotest.test_case "doctor: healthy inputs" `Quick test_doctor_healthy;
    Alcotest.test_case "doctor: DR010 arch change" `Quick
      test_doctor_arch_change;
    Alcotest.test_case "doctor: DR011 kernel drift" `Quick
      test_doctor_kernel_drift;
    Alcotest.test_case "doctor: DR012 surrogate drift" `Quick
      test_doctor_surrogate_drift;
    Alcotest.test_case "doctor: DR013 cache eviction" `Quick
      test_doctor_cache_eviction;
    Alcotest.test_case "doctor: DR030 discarded lines" `Quick
      test_doctor_discarded_lines;
    Alcotest.test_case "doctor: alarm attribution" `Quick
      test_doctor_alarm_attribution;
    Alcotest.test_case "doctor: loadgen report end-to-end" `Quick
      test_doctor_load_end_to_end;
    Alcotest.test_case "doctor: bit-identical json" `Quick
      test_doctor_json_deterministic;
    Alcotest.test_case "journal: first_divergence stages" `Quick
      test_first_divergence;
    Alcotest.test_case "journal: history json" `Quick test_history_json;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ qcheck_ph_no_false_alarm; qcheck_ph_bounded_delay ]
