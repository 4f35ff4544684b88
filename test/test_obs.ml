(* Tests for the observability layer: span recording and parent linkage,
   disabled-mode behaviour, Chrome trace-event export (structural JSON
   validity, balanced begin/end pairs, resolvable parents), structural
   determinism across domain counts, and the SURF search log. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let count_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i acc =
    if i + m > n then acc
    else go (i + 1) (if String.sub s i m = sub then acc + 1 else acc)
  in
  if m = 0 then 0 else go 0 0

(* ---------------- span recording ---------------- *)

let test_disabled_is_noop () =
  Obs.Trace.stop ();
  Obs.Trace.clear ();
  let r = Obs.Trace.with_span "ghost" (fun _ -> 41 + 1) in
  check_int "value passes through" 42 r;
  check_int "nothing recorded" 0 (List.length (Obs.Trace.events ()));
  (* timed still measures wall time when tracing is off *)
  let v, wall = Obs.Trace.timed "ghost" (fun _ -> 7) in
  check_int "timed value" 7 v;
  check_bool "timed duration non-negative" true (wall >= 0.0);
  check_int "timed recorded nothing" 0 (List.length (Obs.Trace.events ()))

let test_nesting_and_parents () =
  let (), events =
    Obs.Trace.collect (fun () ->
        Obs.Trace.with_span ~cat:"t" "outer" (fun _ ->
            Obs.Trace.with_span ~cat:"t" "inner" (fun _ -> ());
            Obs.Trace.with_span ~cat:"t" "inner2" (fun _ -> ())))
  in
  check_int "three spans" 3 (List.length events);
  let find name = List.find (fun (e : Obs.Trace.event) -> e.name = name) events in
  let outer = find "outer" and inner = find "inner" and inner2 = find "inner2" in
  check_bool "outer is a root" true (outer.parent = None);
  check_bool "inner's parent is outer" true (inner.parent = Some outer.id);
  check_bool "inner2's parent is outer" true (inner2.parent = Some outer.id);
  List.iter
    (fun (e : Obs.Trace.event) ->
      check_bool (e.name ^ " span well-ordered") true (e.t1 >= e.t0))
    events;
  check_bool "outer encloses inner" true
    (outer.t0 <= inner.t0 && inner.t1 <= outer.t1)

let test_attrs_and_exception_safety () =
  let (), events =
    Obs.Trace.collect (fun () ->
        (try
           Obs.Trace.with_span
             ~attrs:(fun () -> [ ("thunk", "yes") ])
             "raiser"
             (fun span ->
               Obs.Trace.add_attrs span [ ("live", "1") ];
               failwith "boom")
         with Failure _ -> ()))
  in
  check_int "span recorded despite raise" 1 (List.length events);
  let raiser = List.find (fun (e : Obs.Trace.event) -> e.name = "raiser") events in
  check_str "live attr kept" "1" (List.assoc "live" raiser.attrs);
  check_str "attrs thunk evaluated at end" "yes" (List.assoc "thunk" raiser.attrs)

let test_collect_restores_state () =
  Obs.Trace.stop ();
  let (), _ = Obs.Trace.collect (fun () -> ()) in
  check_bool "disabled stays disabled" false (Obs.Trace.enabled ());
  Obs.Trace.start ();
  let (), _ = Obs.Trace.collect (fun () -> ()) in
  check_bool "enabled stays enabled" true (Obs.Trace.enabled ());
  Obs.Trace.stop ();
  Obs.Trace.clear ()

(* ---------------- Chrome trace export ---------------- *)

(* Structural JSON check: balanced braces/brackets outside string
   literals, string escapes honoured, non-empty top-level object. *)
let json_structurally_valid s =
  let depth = ref 0 and in_str = ref false and esc = ref false and ok = ref true in
  String.iter
    (fun c ->
      if !esc then esc := false
      else if !in_str then begin
        if c = '\\' then esc := true else if c = '"' then in_str := false
      end
      else
        match c with
        | '"' -> in_str := true
        | '{' | '[' -> incr depth
        | '}' | ']' ->
          decr depth;
          if !depth < 0 then ok := false
        | _ -> ())
    s;
  !ok && !depth = 0 && (not !in_str) && String.length s > 0 && s.[0] = '{'

let traced_workload () =
  Obs.Trace.with_span ~cat:"a" "root" (fun _ ->
      Obs.Trace.with_span ~cat:"a" "child" (fun span ->
          Obs.Trace.add_attrs span [ ("k", "v\"quoted\"") ]);
      Obs.Trace.with_span ~cat:"b" "sibling" (fun _ -> ()))

let test_chrome_trace_export () =
  let (), events = Obs.Trace.collect traced_workload in
  let json = Obs.Export.chrome_trace events in
  check_bool "structurally valid JSON" true (json_structurally_valid json);
  check_bool "has traceEvents" true (contains_sub json "\"traceEvents\"");
  let b = count_sub json "\"ph\":\"B\"" and e = count_sub json "\"ph\":\"E\"" in
  check_int "one B per span" (List.length events) b;
  check_int "begin/end balanced" b e;
  (* every parent id in the event list resolves to a recorded span *)
  let ids = List.map (fun (ev : Obs.Trace.event) -> ev.id) events in
  List.iter
    (fun (ev : Obs.Trace.event) ->
      match ev.parent with
      | None -> ()
      | Some p ->
        check_bool (Printf.sprintf "parent %d of %s resolves" p ev.name) true
          (List.mem p ids))
    events;
  check_bool "attr value escaped" true (contains_sub json "v\\\"quoted\\\"");
  check_bool "category metadata present" true (contains_sub json "process_name")

let test_chrome_trace_file_roundtrip () =
  let (), events = Obs.Trace.collect traced_workload in
  let path = Filename.temp_file "barracuda_trace" ".json" in
  Obs.Export.write_chrome_trace path events;
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  Sys.remove path;
  check_str "file matches renderer" (Obs.Export.chrome_trace events) s

(* ---------------- determinism across domains ---------------- *)

(* The same parallel workload traced under 1, 2 and 4 domains must record
   the same multiset of (name, cat, attrs) - only domain ids and timings
   may differ. clamp_to_cores:false exercises true multi-domain execution
   on any machine (cf. the service determinism tests). *)
let span_shape (e : Obs.Trace.event) =
  (e.name, e.cat, List.sort compare e.attrs)

let traced_parallel_map domains =
  let sched = Service.Scheduler.create ~clamp_to_cores:false ~domains () in
  let r, events =
    Obs.Trace.collect (fun () ->
        Service.Scheduler.map sched
          (fun i ->
            Obs.Trace.with_span ~cat:"work"
              ~attrs:(fun () -> [ ("item", string_of_int i) ])
              "work.item"
              (fun _ -> i * i))
          [ 1; 2; 3; 4; 5; 6; 7; 8 ])
  in
  check_bool "map result order preserved" true
    (r = [ 1; 4; 9; 16; 25; 36; 49; 64 ]);
  List.sort compare (List.map span_shape events)

let test_trace_deterministic_across_domains () =
  let one = traced_parallel_map 1 in
  check_int "eight spans" 8 (List.length one);
  List.iter
    (fun d ->
      check_bool
        (Printf.sprintf "same span multiset with %d domains" d)
        true
        (traced_parallel_map d = one))
    [ 2; 4 ]

let test_chrome_trace_multidomain_balanced () =
  let sched = Service.Scheduler.create ~clamp_to_cores:false ~domains:4 () in
  let _, events =
    Obs.Trace.collect (fun () ->
        Service.Scheduler.map sched
          (fun i ->
            Obs.Trace.with_span ~cat:"w" "outer" (fun _ ->
                Obs.Trace.with_span ~cat:"w" "inner" (fun _ -> i)))
          [ 1; 2; 3; 4; 5; 6 ])
  in
  check_int "two spans per item" 12 (List.length events);
  let json = Obs.Export.chrome_trace events in
  check_bool "valid JSON across domains" true (json_structurally_valid json);
  check_int "balanced across domains" (count_sub json "\"ph\":\"B\"")
    (count_sub json "\"ph\":\"E\"")

(* ---------------- Prometheus export ---------------- *)

let test_prometheus_export () =
  let s =
    Obs.Export.prometheus_sketches ~prefix:"test"
      ~counters:[ ("hits", 3); ("weird name!", 1) ]
      ~sketches:[] ()
  in
  check_bool "counter line" true (contains_sub s "test_hits_total 3");
  check_bool "name sanitized" true (contains_sub s "test_weird_name__total 1")

(* ---------------- search log ---------------- *)

let iter0 =
  {
    Obs.Search_log.iter = 0;
    batch = 10;
    evaluations = 10;
    pool_size = 100;
    best_so_far = 5.0;
    batch_best = 5.0;
    batch_mean = 7.5;
    r2 = None;
    pred_std = None;
  }

let iter1 =
  { iter0 with Obs.Search_log.iter = 1; evaluations = 20; best_so_far = 3.0; r2 = Some 0.8; pred_std = Some 0.4 }

let test_search_log () =
  check_bool "coverage" true
    (abs_float (Obs.Search_log.coverage iter1 -. 0.2) < 1e-9);
  check_bool "monotone curve accepted" true (Obs.Search_log.monotone [ iter0; iter1 ]);
  check_bool "regression rejected" false
    (Obs.Search_log.monotone [ iter1; { iter0 with best_so_far = 9.0 } ]);
  let report = Obs.Search_log.render ~label:"toy" [ iter0; iter1 ] in
  check_bool "report names the search" true (contains_sub report "toy");
  check_bool "report carries the final best" true (contains_sub report "3");
  let attrs = Obs.Search_log.span_attrs iter1 in
  check_str "best attr" "3" (String.sub (List.assoc "best_so_far" attrs) 0 1);
  check_bool "r2 attr present" true (List.mem_assoc "r2" attrs)

let suite =
  [
    ("disabled tracing is a no-op", `Quick, test_disabled_is_noop);
    ("nesting and parent linkage", `Quick, test_nesting_and_parents);
    ("attrs + exception safety", `Quick, test_attrs_and_exception_safety);
    ("collect restores state", `Quick, test_collect_restores_state);
    ("chrome trace export", `Quick, test_chrome_trace_export);
    ("chrome trace file roundtrip", `Quick, test_chrome_trace_file_roundtrip);
    ("deterministic across 1/2/4 domains", `Quick, test_trace_deterministic_across_domains);
    ("multi-domain export balanced", `Quick, test_chrome_trace_multidomain_balanced);
    ("prometheus export", `Quick, test_prometheus_export);
    ("search log", `Quick, test_search_log);
  ]
