(* Causal cost ledger and exact what-if profiling: the QCheck-pinned
   reconciliation invariant (per-class phase costs sum to end-to-end
   latency), the span self-time telescoping property and a pinned
   two-domain accounts fixture (Obs.Trace.accounts), exemplar ring
   semantics, bit-identical what-if rankings over a recorded replay, the
   per-domain trace buffer cap, and the ledger-aware doctor findings
   (DR040-DR043). *)

module L = Obs.Ledger
module R = Obs.Replay

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let check_contains what haystack needle =
  check_bool (what ^ ": contains " ^ needle) true (contains haystack needle)

let feq ?(eps = 1e-9) what expect got =
  check_bool
    (Printf.sprintf "%s: %.12g ~ %.12g" what expect got)
    true
    (abs_float (expect -. got) <= eps)

(* ---------------- span accounting fixtures ---------------- *)

let ev ?parent ?(domain = 0) ?(cat = "t") ~id ~t0 ~t1 name =
  { Obs.Trace.id; parent; name; cat; domain; t0; t1; attrs = [] }

(* One batch serve recorded across two domains:

     domain 0: batch [0,10]
                 canonicalize [0,1]  lookup [1,2]  tune [2,9]
                                                     measure_a [2,8]
     domain 1: measure_b [3,9]   (worker root, no parent link) *)
let two_domain_events =
  [
    ev ~id:1 ~t0:0.0 ~t1:10.0 "batch";
    ev ~id:2 ~parent:1 ~t0:0.0 ~t1:1.0 "canonicalize";
    ev ~id:3 ~parent:1 ~t0:1.0 ~t1:2.0 "lookup";
    ev ~id:4 ~parent:1 ~t0:2.0 ~t1:9.0 "tune";
    ev ~id:5 ~parent:4 ~t0:2.0 ~t1:8.0 "measure_a";
    ev ~id:6 ~domain:1 ~t0:3.0 ~t1:9.0 "measure_b";
  ]

let test_accounts_pinned () =
  let accts = Obs.Trace.accounts two_domain_events in
  let find name =
    match List.find_opt (fun a -> a.Obs.Trace.acct_name = name) accts with
    | Some a -> a
    | None -> Alcotest.fail ("missing account " ^ name)
  in
  (* parent links are same-domain only, so measure_b is its own root *)
  feq "batch self" 1.0 (find "batch").Obs.Trace.acct_self_s;
  feq "tune self (same-domain child only)" 1.0 (find "tune").Obs.Trace.acct_self_s;
  feq "tune child" 6.0 (find "tune").Obs.Trace.acct_child_s;
  feq "worker root self" 6.0 (find "measure_b").Obs.Trace.acct_self_s;
  check_bool "sorted by self descending" true
    (match accts with
    | a :: b :: _ -> a.Obs.Trace.acct_self_s >= b.Obs.Trace.acct_self_s
    | _ -> false)

(* ---------------- QCheck properties ---------------- *)

(* Random same-domain span forest with properly nested, disjoint children:
   node i>0 parents onto pick_i mod i and receives an equal slice of the
   middle 80% of its parent. Summed self times then telescope exactly to
   the root duration (each node contributes dur - sum of child durs). *)
let forest_of_picks picks =
  let n = List.length picks in
  let parent = Array.make (n + 1) None in
  List.iteri (fun i p -> parent.(i + 1) <- Some (p mod (i + 1))) picks;
  let children = Array.make (n + 1) [] in
  Array.iteri
    (fun i p ->
      match p with Some p -> children.(p) <- i :: children.(p) | None -> ())
    parent;
  Array.iteri (fun i l -> children.(i) <- List.rev l) children;
  let spans = Array.make (n + 1) (0.0, 1.0) in
  let rec place i =
    let t0, t1 = spans.(i) in
    let kids = children.(i) in
    let k = List.length kids in
    if k > 0 then begin
      let d = t1 -. t0 in
      let s = t0 +. (0.1 *. d) and w = 0.8 *. d /. float_of_int k in
      List.iteri
        (fun j c ->
          spans.(c) <- (s +. (float_of_int j *. w), s +. (float_of_int (j + 1) *. w));
          place c)
        kids
    end
  in
  place 0;
  List.init (n + 1) (fun i ->
      let t0, t1 = spans.(i) in
      ev ~id:(i + 1)
        ?parent:(Option.map (fun p -> p + 1) parent.(i))
        ~t0 ~t1 "span")

let qcheck_accounts_telescope =
  QCheck.Test.make ~count:200
    ~name:"ledger: span self-times telescope to the root duration"
    QCheck.(list_of_size Gen.(0 -- 30) (int_range 0 1000))
    (fun picks ->
      let events = forest_of_picks picks in
      let self =
        List.fold_left (fun acc a -> acc +. a.Obs.Trace.acct_self_s) 0.0
          (Obs.Trace.accounts events)
      in
      abs_float (self -. 1.0) <= 1e-9)

(* Per serve class, phase costs fed to observe must reconcile with the
   recorded end-to-end latencies: the ledger tracks both sums and the
   loadgen model guarantees they agree. Costs here are arbitrary
   non-negative vectors scaled by an arbitrary multiplier, with latency
   defined as their exact sum - the invariant the replay maintains. *)
let qcheck_reconcile =
  QCheck.Test.make ~count:200
    ~name:"ledger: per-class phase costs reconcile to latency"
    QCheck.(
      list_of_size
        Gen.(1 -- 60)
        (triple (int_range 0 2)
           (list_of_size Gen.(1 -- 5) (pair (int_range 0 9) (int_range 0 1000)))
           (int_range 1 300)))
    (fun reqs ->
      let l = L.create () in
      List.iteri
        (fun tick (ci, costs, m) ->
          let cls = List.nth L.all_classes ci in
          let mult = float_of_int m /. 100.0 in
          let costs =
            List.map
              (fun (pi, v) ->
                (List.nth L.all_phases pi, mult *. float_of_int v *. 1e-5))
              costs
          in
          let latency_s =
            List.fold_left (fun acc (_, v) -> acc +. v) 0.0 costs
          in
          L.observe l ~tick ~cls ~ok:true ~latency_s costs)
        reqs;
      let rec_ok (_, n, costs, lat) =
        n > 0 && abs_float (costs -. lat) <= 1e-9 *. Float.max 1.0 lat
      in
      let r = L.reconcile l in
      r <> [] && List.for_all rec_ok r)

(* ---------------- streaming ledger ---------------- *)

let test_ledger_validation () =
  Alcotest.check_raises "slot_width"
    (Invalid_argument "Ledger.create: slot_width must be >= 1") (fun () ->
      ignore (L.create ~slot_width:0 ()));
  Alcotest.check_raises "slots"
    (Invalid_argument "Ledger.create: slots must be >= 1") (fun () ->
      ignore (L.create ~slots:0 ()));
  Alcotest.check_raises "negative tick"
    (Invalid_argument "Ledger.observe: negative tick") (fun () ->
      L.observe (L.create ()) ~tick:(-1) ~cls:L.Warm ~ok:true ~latency_s:1.0 [])

let observe_simple ?label ?run_id l ~tick ~cls lat =
  (* measure dominates, lookup second: exercises the dominant tie order *)
  L.observe ?label ?run_id l ~tick ~cls ~ok:true ~latency_s:lat
    [ (L.Lookup, 0.3 *. lat); (L.Measure, 0.7 *. lat) ]

let test_exemplar_ring () =
  let l = L.create ~slot_width:10 ~slots:4 () in
  for t = 0 to 39 do
    let lat = if t = 7 then 5.0 else 0.1 +. (0.001 *. float_of_int t) in
    let run_id = if t = 7 then Some "r7" else None in
    observe_simple ?run_id ~label:"mm" l ~tick:t ~cls:L.Warm lat
  done;
  let rep = L.report l in
  check_int "requests" 40 rep.lr_requests;
  (match rep.lr_worst with
  | Some e ->
    check_int "worst tick" 7 e.ex_tick;
    check_bool "worst run id" true (e.ex_run_id = Some "r7");
    check_bool "worst label" true (e.ex_label = Some "mm");
    check_bool "dominant phase of the worst" true (e.ex_phase = L.Measure)
  | None -> Alcotest.fail "expected a worst exemplar");
  check_int "one live exemplar per slot" 4 (List.length rep.lr_exemplars);
  check_str "slots in epoch order" "0,1,2,3"
    (String.concat ","
       (List.map (fun e -> string_of_int e.L.ex_slot) rep.lr_exemplars));
  (* epoch 4 reuses slot 0 lazily: the epoch-0 exemplar (the tick-7 spike)
     is evicted, the overall worst survives *)
  observe_simple l ~tick:45 ~cls:L.Cold 0.2;
  let rep = L.report l in
  check_str "epoch 0 evicted" "1,2,3,4"
    (String.concat ","
       (List.map (fun e -> string_of_int e.L.ex_slot) rep.lr_exemplars));
  check_bool "worst survives eviction" true
    (match rep.lr_worst with Some e -> e.ex_tick = 7 | None -> false)

let test_report_shares_and_dominant () =
  let l = L.create () in
  for t = 0 to 9 do
    observe_simple l ~tick:t ~cls:(if t < 3 then L.Cold else L.Warm) 1.0
  done;
  let rep = L.report l in
  (* shares are over observed phases only, descending, and sum to 1 *)
  check_int "observed phases" 2 (List.length rep.lr_phase_share);
  (match rep.lr_phase_share with
  | (p1, s1) :: (p2, s2) :: [] ->
    check_bool "measure first" true (p1 = L.Measure);
    check_bool "lookup second" true (p2 = L.Lookup);
    feq "shares sum to 1" 1.0 (s1 +. s2);
    feq "measure share" 0.7 s1
  | _ -> Alcotest.fail "expected two shares");
  check_bool "dominant" true (L.dominant rep = Some L.Measure);
  check_int "cold + warm classes" 2 (List.length rep.lr_classes);
  check_int "2 classes x 2 phases" 4 (List.length rep.lr_cells);
  let rendered = L.render rep in
  check_contains "render shares" rendered "measure";
  check_contains "render worst" rendered "worst:"

(* ---------------- what-if ---------------- *)

(* A one-class replay header over a [width]-tick window. *)
let header ?(slo = Obs.Slo.default_spec) ?(label = "mm") ?run_id ~width () =
  {
    R.requests = 0;
    seed = 0;
    batch = 1;
    error_rate = 0.0;
    degrade = 1.0;
    degrade_at = 0;
    monitor = false;
    width;
    buckets = 4;
    slo;
    classes = [| { R.label; dsl = "-"; key = "k"; run_id; weight = 1 } |];
  }

let synthetic_records n =
  List.init n (fun i ->
      {
        R.rq_tick = i;
        rq_class = 0;
        rq_served = "hit:memory";
        rq_ok = true;
        rq_mult = 1.0 +. (0.1 *. float_of_int (i mod 3));
        rq_costs = [ (L.Lookup, 1e-4); (L.Measure, 9e-4) ];
      })

let test_whatif_synthetic () =
  let h = header ~width:10 () in
  let r = R.whatif h (synthetic_records 50) in
  check_int "requests" 50 r.wr_requests;
  check_int "observed phases only" 2 (List.length r.wr_ranking);
  check_bool "top is the dominant cost" true (R.top r = Some L.Measure);
  (match r.wr_ranking with
  | m :: l :: [] ->
    check_bool "ranking order" true
      (m.R.en_phase = L.Measure && l.R.en_phase = L.Lookup);
    check_bool "impacts ordered" true
      (m.R.en_impact_p99_s >= l.R.en_impact_p99_s);
    check_bool "speedups never hurt" true
      (List.for_all
         (fun e ->
           List.for_all (fun s -> s.R.sc_delta_p99_s >= 0.0) e.R.en_scenarios)
         r.wr_ranking);
    check_int "three factors per phase" 3 (List.length m.R.en_scenarios);
    check_str "verdict under the default spec" "ok" r.wr_baseline_verdict
  | _ -> Alcotest.fail "expected a two-entry ranking");
  Alcotest.check_raises "empty records"
    (Invalid_argument "Replay.whatif: no records") (fun () ->
      ignore (R.whatif h []));
  List.iter
    (fun f ->
      Alcotest.check_raises
        (Printf.sprintf "bad factor %g" f)
        (Invalid_argument "Replay.whatif: factors must be finite and > 0")
        (fun () -> ignore (R.whatif ~factors:[ f ] h (synthetic_records 5))))
    [ 0.0; -1.0; nan; infinity ]

(* ---------------- recorded replay end-to-end ---------------- *)

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
      { Service.Engine.default_config with max_evals = 8; batch_size = 4; reps = 1 };
  }

let small_mix =
  [
    { Service.Loadgen.mix_label = "mm"; mix_dsl = mm_dsl; weight = 3 };
    { Service.Loadgen.mix_label = "tiny"; mix_dsl = tiny_dsl; weight = 1 };
  ]

(* The small-mix replay, recorded through its artifact and read back. *)
let recorded =
  lazy
    (let path = Filename.temp_file "replay" ".jsonl" in
     let r =
       Out_channel.with_open_bin path (fun out ->
           Service.Loadgen.run ~out small_cfg small_mix)
     in
     let loaded = R.load path in
     Sys.remove path;
     match loaded with
     | Ok (h, records) -> (r, h, records)
     | Error e -> Alcotest.fail ("load: " ^ e))

let test_replay_reconciles () =
  let r, _, records = Lazy.force recorded in
  check_int "one record per request" r.summary.total (List.length records);
  List.iter
    (fun (cls, n, costs, lat) ->
      check_bool
        (Printf.sprintf "%s reconciles over %d requests" (L.class_name cls) n)
        true
        (abs_float (costs -. lat) <= 1e-9 *. Float.max 1.0 lat))
    (L.reconcile r.summary.ledger);
  List.iter
    (fun rq -> check_bool "record invariant" true (R.latency rq > 0.0))
    records

let test_whatif_bit_identical () =
  let _, h, records = Lazy.force recorded in
  let report () = Obs.Json.to_string (R.whatif_json (R.whatif h records)) in
  let a = report () in
  check_str "two runs, one report" a (report ());
  (* the pinned decision: measurement dominates the serve path *)
  check_bool "top phase pinned to measure" true
    (R.top (R.whatif h records) = Some L.Measure)

(* The ranking is the one the separate what-if replay loop gave before the
   fold took its place, over the same small-mix replay. *)
let test_whatif_ranking_pinned () =
  let _, h, records = Lazy.force recorded in
  check_str "what-if json digest" "03fc7ffc9ac8475e869c9f6320398689"
    (Digest.to_hex
       (Digest.string (Obs.Json.to_string (R.whatif_json (R.whatif h records)))))

(* ---------------- trace buffer cap ---------------- *)

let test_trace_capacity () =
  let saved = Obs.Trace.capacity () in
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.set_capacity saved;
      Obs.Trace.stop ();
      Obs.Trace.clear ())
    (fun () ->
      Alcotest.check_raises "bad capacity"
        (Invalid_argument "Trace.set_capacity: capacity must be >= 1")
        (fun () ->
          Obs.Trace.set_capacity 0);
      Obs.Trace.set_capacity 4;
      check_int "capacity readback" 4 (Obs.Trace.capacity ());
      Obs.Trace.start ();
      for i = 0 to 9 do
        Obs.Trace.with_span ~cat:"t" (string_of_int i) (fun _ -> ())
      done;
      check_int "buffer capped" 4 (List.length (Obs.Trace.events ()));
      check_int "overflow counted" 6 (Obs.Trace.dropped ());
      (* the chrome exporter surfaces the drop count *)
      let json =
        Obs.Export.chrome_trace ~dropped:(Obs.Trace.dropped ())
          (Obs.Trace.events ())
      in
      check_contains "chrome otherData" json "\"dropped_spans\":6";
      Obs.Trace.clear ();
      check_int "clear resets the counter" 0 (Obs.Trace.dropped ()))

(* ---------------- doctor findings ---------------- *)

let find_code (r : Obs.Doctor.report) code =
  List.find_opt (fun (f : Obs.Doctor.finding) -> f.code = code) r.findings

(* Twenty cold requests of one class whose journal run is "run13"; tick
   13 is a 4x spike. *)
let summary_for_doctor ?(queue_share = 0.1) () =
  let slo = { Obs.Slo.default_spec with latency_budget_s = 10.0 } in
  R.fold
    (header ~slo ~run_id:"run13" ~width:10 ())
    (List.init 20 (fun t ->
         let lat = if t = 13 then 4.0 else 1.0 in
         {
           R.rq_tick = t;
           rq_class = 0;
           rq_served = "tuned";
           rq_ok = true;
           rq_mult = 1.0;
           rq_costs =
             [ (L.Queue, queue_share *. lat); (L.Measure, (1.0 -. queue_share) *. lat) ];
         }))

let test_doctor_ledger_findings () =
  let r =
    Obs.Doctor.diagnose
      { Obs.Doctor.no_inputs with replay = Some (summary_for_doctor ()) }
  in
  (match find_code r "DR040" with
  | Some f ->
    check_bool "info" true (f.severity = Obs.Doctor.Info);
    check_contains "names the phase" f.detail "measure"
  | None -> Alcotest.fail "expected DR040");
  (match find_code r "DR043" with
  | Some f ->
    check_contains "exemplar jump" f.detail "explain ";
    check_contains "names the run" f.detail "run13"
  | None -> Alcotest.fail "expected DR043");
  (* two classes under one label: the finding tells them apart by the
     slower class's key prefix *)
  let h = header ~label:"tc" ~width:10 () in
  let cls key = { (h.classes.(0)) with R.key } in
  let h = { h with classes = [| cls "aaaaaaaaaaaaaaaa"; cls "bbbbbbbbbbbbbbbb" |] } in
  let shared =
    R.fold h
      (List.init 20 (fun t ->
           {
             R.rq_tick = t;
             rq_class = t mod 2;
             rq_served = "tuned";
             rq_ok = true;
             rq_mult = 1.0;
             rq_costs = [ (L.Measure, if t = 13 then 4.0 else 1.0) ];
           }))
  in
  (match
     find_code (Obs.Doctor.diagnose { Obs.Doctor.no_inputs with replay = Some shared }) "DR043"
   with
  | Some f -> check_contains "slower class's key" f.detail "(tc, key bbbbbbbbbbbb)"
  | None -> Alcotest.fail "expected DR043 for the shared label");
  check_bool "healthy queue share stays silent" true
    (find_code r "DR041" = None);
  (* queue wait above 25% of modeled time pages as a capacity problem *)
  let hot = summary_for_doctor ~queue_share:0.4 () in
  let r = Obs.Doctor.diagnose { Obs.Doctor.no_inputs with replay = Some hot } in
  match find_code r "DR041" with
  | Some f ->
    check_bool "warning" true (f.severity = Obs.Doctor.Warning);
    check_bool "queue-wait suspect" true
      (List.mem_assoc "queue-wait" f.suspects)
  | None -> Alcotest.fail "expected DR041"

let test_doctor_ledger_bench_regression () =
  let replay = summary_for_doctor () in
  (* the fixture's cold measure p99 is ~0.9 s (the single 3.6 s spike sits
     above the 99th percentile of 20 observations) *)
  let with_baseline q99 =
    let q = { Obs.Bench_log.q50 = q99; q90 = q99; q99 } in
    let bench =
      Obs.Bench_log.make
        [
          {
            Obs.Bench_log.name = "ledger";
            wall_s = 1.0;
            samples_s = [];
            ols_s = None;
            quantiles = [ ("phase:measure", q) ];
            spans = [];
          };
        ]
    in
    Obs.Doctor.diagnose
      { Obs.Doctor.no_inputs with replay = Some replay; bench = Some bench }
  in
  (match find_code (with_baseline 0.1) "DR042" with
  | Some f ->
    check_bool "warning" true (f.severity = Obs.Doctor.Warning);
    check_str "subject" "phase/measure" f.subject;
    check_bool "phase-regression suspect" true
      (List.mem_assoc "phase-regression" f.suspects)
  | None -> Alcotest.fail "expected DR042");
  check_bool "within 2x of the baseline stays silent" true
    (find_code (with_baseline 1.0) "DR042" = None)

let suite =
  [
    Alcotest.test_case "accounts: pinned fixture" `Quick test_accounts_pinned;
    Alcotest.test_case "ledger: validation" `Quick test_ledger_validation;
    Alcotest.test_case "ledger: exemplar ring eviction" `Quick
      test_exemplar_ring;
    Alcotest.test_case "ledger: shares and dominant" `Quick
      test_report_shares_and_dominant;
    Alcotest.test_case "whatif: synthetic ranking" `Quick test_whatif_synthetic;
    Alcotest.test_case "replay: ledger reconciles" `Quick test_replay_reconciles;
    Alcotest.test_case "replay: what-if bit-identical, top pinned" `Quick
      test_whatif_bit_identical;
    Alcotest.test_case "replay: what-if ranking pinned" `Quick
      test_whatif_ranking_pinned;
    Alcotest.test_case "trace: buffer cap counts drops" `Quick
      test_trace_capacity;
    Alcotest.test_case "doctor: DR040/DR041/DR043 ledger findings" `Quick
      test_doctor_ledger_findings;
    Alcotest.test_case "doctor: DR042 phase regression vs bench" `Quick
      test_doctor_ledger_bench_regression;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ qcheck_accounts_telescope; qcheck_reconcile ]
