(* Exporters for the observability layer:

   - Chrome trace-event JSON (the format chrome://tracing and Perfetto
     load): one "B"/"E" duration-event pair per span. Events are emitted
     depth-first per domain, so begin/end pairs are balanced and correctly
     nested in file order even for zero-duration spans.
   - Prometheus-style text exposition of counters and of sketches as
     native histograms. *)

let quote s = "\"" ^ Json.escape s ^ "\""

(* ---------------- Chrome trace events ---------------- *)

(* Timestamps are microseconds relative to the earliest span, so traces are
   small and stable to diff. pid is the stage category (Perfetto groups
   tracks by pid/tid); tid is the recording domain. *)

let chrome_pid_names events =
  let cats = List.sort_uniq compare (List.map (fun (e : Trace.event) -> e.cat) events) in
  List.mapi (fun i c -> (c, i + 1)) cats

let chrome_trace ?(dropped = 0) (events : Trace.event list) =
  let t_min =
    List.fold_left (fun acc (e : Trace.event) -> min acc e.t0) infinity events
  in
  let ts t = if events = [] then 0.0 else (t -. t_min) *. 1e6 in
  let pids = chrome_pid_names events in
  let pid_of cat = try List.assoc cat pids with Not_found -> 0 in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let emit_obj fields =
    if not !first then Buffer.add_char buf ',';
    first := false;
    Buffer.add_char buf '{';
    Buffer.add_string buf (String.concat "," fields);
    Buffer.add_char buf '}'
  in
  (* process/thread name metadata so viewers label the tracks *)
  List.iter
    (fun (cat, pid) ->
      emit_obj
        [
          "\"name\":\"process_name\""; "\"ph\":\"M\"";
          Printf.sprintf "\"pid\":%d" pid; "\"tid\":0";
          Printf.sprintf "\"args\":{\"name\":%s}" (quote cat);
        ])
    pids;
  let emit_span (e : Trace.event) =
    let args =
      Printf.sprintf "\"id\":%d" e.id
      :: (match e.parent with None -> [] | Some p -> [ Printf.sprintf "\"parent\":%d" p ])
      @ List.map (fun (k, v) -> Printf.sprintf "%s:%s" (quote k) (quote v)) e.attrs
    in
    emit_obj
      [
        Printf.sprintf "\"name\":%s" (quote e.name);
        Printf.sprintf "\"cat\":%s" (quote (if e.cat = "" then "default" else e.cat));
        "\"ph\":\"B\"";
        Printf.sprintf "\"ts\":%.3f" (ts e.t0);
        Printf.sprintf "\"pid\":%d" (pid_of e.cat);
        Printf.sprintf "\"tid\":%d" e.domain;
        Printf.sprintf "\"args\":{%s}" (String.concat "," args);
      ];
    fun () ->
      emit_obj
        [
          Printf.sprintf "\"name\":%s" (quote e.name);
          Printf.sprintf "\"cat\":%s" (quote (if e.cat = "" then "default" else e.cat));
          "\"ph\":\"E\"";
          Printf.sprintf "\"ts\":%.3f" (ts e.t1);
          Printf.sprintf "\"pid\":%d" (pid_of e.cat);
          Printf.sprintf "\"tid\":%d" e.domain;
        ]
  in
  (* depth-first per domain: spans on one domain nest by construction *)
  let domains =
    List.sort_uniq compare (List.map (fun (e : Trace.event) -> e.domain) events)
  in
  List.iter
    (fun domain ->
      let mine =
        List.filter (fun (e : Trace.event) -> e.domain = domain) events
        |> List.sort (fun (a : Trace.event) b -> compare (a.t0, a.id) (b.t0, b.id))
      in
      let children = Hashtbl.create 64 in
      List.iter
        (fun (e : Trace.event) ->
          match e.parent with
          | Some p -> Hashtbl.replace children p (e :: (Option.value ~default:[] (Hashtbl.find_opt children p)))
          | None -> ())
        (List.rev mine);
      let rec emit (e : Trace.event) =
        let close = emit_span e in
        List.iter emit (Option.value ~default:[] (Hashtbl.find_opt children e.id));
        close ()
      in
      List.iter
        (fun (e : Trace.event) -> if e.parent = None then emit e)
        mine)
    domains;
  Buffer.add_string buf "]";
  (* drops at the Trace buffer cap would otherwise vanish silently; viewers
     ignore otherData, tooling can alert on it *)
  if dropped > 0 then
    Buffer.add_string buf
      (Printf.sprintf ",\"otherData\":{\"dropped_spans\":%d}" dropped);
  Buffer.add_string buf "}";
  Buffer.contents buf

let write_chrome_trace ?dropped path events =
  let oc = open_out path in
  output_string oc (chrome_trace ?dropped events);
  close_out oc

(* ---------------- Prometheus text exposition ---------------- *)

(* Names derived from user strings (timer labels, cache keys) must match
   the exposition grammar [a-zA-Z_][a-zA-Z0-9_]*: illegal characters map
   to '_', and a leading digit (possible when [prefix] is empty) gains a
   '_' prefix. *)
let metric_name prefix name =
  let b = Buffer.create (String.length name + String.length prefix + 1) in
  if prefix <> "" then begin
    Buffer.add_string b prefix;
    Buffer.add_char b '_'
  end
  else (match name with "" -> () | s -> (match s.[0] with '0' .. '9' -> Buffer.add_char b '_' | _ -> ()));
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

(* HELP text escaping per the exposition format: only backslash and
   newline are special. *)
let help_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let header b ~metric ~help ~kind =
  Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" metric (help_escape help));
  Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" metric kind)

let counter_lines b prefix counters =
  List.iter
    (fun (name, v) ->
      let m = metric_name prefix name ^ "_total" in
      header b ~metric:m ~help:(Printf.sprintf "Occurrences of %s." name) ~kind:"counter";
      Buffer.add_string b (Printf.sprintf "%s %d\n" m v))
    counters

(* Native histograms from sketches: the log-bucket upper bounds become the
   cumulative le="..." series. O(buckets) regardless of traffic. *)
let prometheus_sketches ?(prefix = "barracuda") ~counters ~sketches () =
  let b = Buffer.create 1024 in
  counter_lines b prefix counters;
  List.iter
    (fun (name, sketch) ->
      let m = metric_name prefix (name ^ "_seconds") in
      header b ~metric:m
        ~help:
          (Printf.sprintf
             "Latency of %s in seconds (log-bucket sketch, relative error %g)."
             name (Sketch.alpha sketch))
        ~kind:"histogram";
      let cum = ref 0 in
      List.iter
        (fun (upper, count) ->
          cum := !cum + count;
          Buffer.add_string b
            (Printf.sprintf "%s_bucket{le=\"%.9g\"} %d\n" m upper !cum))
        (Sketch.buckets sketch);
      Buffer.add_string b (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" m (Sketch.count sketch));
      Buffer.add_string b (Printf.sprintf "%s_sum %.9g\n" m (Sketch.total sketch));
      Buffer.add_string b (Printf.sprintf "%s_count %d\n" m (Sketch.count sketch));
      (* sketch health: occupied buckets and whether the max_buckets cap
         has forced low-bucket collapse (quantiles near 0 then exceed the
         error bound) - without these gauges, accuracy loss is silent *)
      let g = metric_name prefix (name ^ "_sketch_buckets") in
      header b ~metric:g
        ~help:(Printf.sprintf "Occupied sketch buckets of %s." name)
        ~kind:"gauge";
      Buffer.add_string b
        (Printf.sprintf "%s %d\n" g (Sketch.bucket_count sketch));
      let c = metric_name prefix (name ^ "_sketch_collapsed") in
      header b ~metric:c
        ~help:
          (Printf.sprintf
             "1 once the bucket cap has collapsed low buckets of %s (low \
              quantiles may exceed the error bound)."
             name)
        ~kind:"gauge";
      Buffer.add_string b
        (Printf.sprintf "%s %d\n" c (if Sketch.collapsed sketch then 1 else 0)))
    sketches;
  Buffer.contents b
