(* The load replay's artifact and its fold. See replay.mli: the stream is
   recorded once, and every report - live, read back, or a what-if
   scenario - is the same fold over it. *)

let spf = Printf.sprintf

type request_class = {
  label : string;
  dsl : string;
  key : string;
  run_id : string option;
  weight : int;
}

type header = {
  requests : int;
  seed : int;
  batch : int;
  error_rate : float;
  degrade : float;
  degrade_at : int;
  monitor : bool;
  width : int;
  buckets : int;
  slo : Slo.spec;
  classes : request_class array;
}

type record = {
  rq_tick : int;
  rq_class : int;
  rq_served : string;
  rq_ok : bool;
  rq_mult : float;
  rq_costs : (Ledger.phase * float) list;
}

let scaled scale (p, v) =
  match scale with Some (q, f) when q = p -> v *. f | _ -> v

let latency ?scale r =
  List.fold_left (fun acc c -> acc +. scaled scale c) 0.0 r.rq_costs
  *. r.rq_mult

let serve_class = function
  | "tuned" -> Some Ledger.Cold
  | "hit:memory" | "hit:disk" -> Some Ledger.Warm
  | "deduplicated" -> Some Ledger.Dedup
  | _ -> None

(* ---------------- the artifact ---------------- *)

let schema_version = 2

(* Json writes non-finite numbers as null; a replay degraded by +inf must
   read back to the same verdict, so such a number is written as a
   string. *)
let float_json x =
  if Float.is_finite x then Json.Num x else Json.Str (Float.to_string x)

let float_field name j =
  match Json.field name j with
  | Json.Num x -> x
  | Json.Str "inf" -> infinity
  | _ -> Json.fail "missing or invalid field %S" name

let class_json c =
  Json.Obj
    ([
       ("label", Json.Str c.label);
       ("dsl", Json.Str c.dsl);
       ("key", Json.Str c.key);
     ]
    @ (match c.run_id with None -> [] | Some r -> [ ("run_id", Json.Str r) ])
    @ [ ("weight", Json.of_int c.weight) ])

let header_line h =
  Json.to_string
    (Json.Obj
       [
         ("schema_version", Json.of_int schema_version);
         ("requests", Json.of_int h.requests);
         ("seed", Json.of_int h.seed);
         ("batch", Json.of_int h.batch);
         ("error_rate", Json.Num h.error_rate);
         ("degrade", float_json h.degrade);
         ("degrade_at", Json.of_int h.degrade_at);
         ("monitor", Json.Bool h.monitor);
         ("width", Json.of_int h.width);
         ("buckets", Json.of_int h.buckets);
         ("slo", Slo.spec_to_json h.slo);
         ("classes", Json.Arr (Array.to_list (Array.map class_json h.classes)));
       ])
  ^ "\n"

let record_line r =
  Json.to_string
    (Json.Obj
       [
         ("tick", Json.of_int r.rq_tick);
         ("class", Json.of_int r.rq_class);
         ("served", Json.Str r.rq_served);
         ("ok", Json.Bool r.rq_ok);
         ("mult", float_json r.rq_mult);
         ( "costs",
           Json.Arr
             (List.map
                (fun (p, v) ->
                  Json.Arr [ Json.Str (Ledger.phase_name p); Json.Num v ])
                r.rq_costs) );
       ])
  ^ "\n"

let bool name j =
  match Json.field name j with
  | Json.Bool b -> b
  | _ -> Json.fail "missing or invalid field %S" name

let header_of_json j =
  let v = Json.int "schema_version" j in
  if v <> schema_version then
    Json.fail "schema_version %d is not a replay artifact (expected %d)" v
      schema_version;
  let cls c =
    {
      label = Json.str "label" c;
      dsl = Json.str "dsl" c;
      key = Json.str "key" c;
      run_id = Json.opt Json.str "run_id" c;
      weight = Json.int "weight" c;
    }
  in
  let h =
    {
      requests = Json.int "requests" j;
      seed = Json.int "seed" j;
      batch = Json.int "batch" j;
      error_rate = Json.num "error_rate" j;
      degrade = float_field "degrade" j;
      degrade_at = Json.int "degrade_at" j;
      monitor = bool "monitor" j;
      width = Json.int "width" j;
      buckets = Json.int "buckets" j;
      slo = Json.ok (Slo.spec_of_json (Json.field "slo" j));
      classes = Array.of_list (List.map cls (Json.arr "classes" j));
    }
  in
  if h.width < 1 || h.buckets < 1 then Json.fail "width and buckets must be >= 1";
  h

let record_of_json h j =
  let cost = function
    | Json.Arr [ Json.Str name; Json.Num v ] ->
      (Json.enum "phase" Ledger.phase_of_name name, v)
    | _ -> Json.fail "invalid cost entry"
  in
  let tick = Json.int "tick" j in
  if tick < 0 then Json.fail "negative tick %d" tick;
  let cls = Json.int "class" j in
  if cls < 0 || cls >= Array.length h.classes then
    Json.fail "class %d is not in the header's class table" cls;
  let served = Json.str "served" j in
  ignore (Json.enum "serve name" serve_class served);
  {
    rq_tick = tick;
    rq_class = cls;
    rq_served = served;
    rq_ok = bool "ok" j;
    rq_mult = float_field "mult" j;
    rq_costs = List.map cost (Json.arr "costs" j);
  }

(* Fold [step] over an artifact's records, one line at a time. *)
let read path ~init ~step =
  try
    In_channel.with_open_bin path (fun ic ->
        let line = ref 0 in
        let next decode =
          Option.map
            (fun text ->
              incr line;
              match Result.bind (Json.parse text) (Json.decode decode) with
              | Ok v -> v
              | Error msg -> Json.fail "line %d: %s" !line msg)
            (In_channel.input_line ic)
        in
        match next header_of_json with
        | None -> Error "empty replay artifact"
        | Some h ->
          let rec go acc =
            match next (record_of_json h) with
            | None -> acc
            | Some r -> go (step acc r)
          in
          let acc = go (init h) in
          if !line - 1 <> h.requests then
            Error
              (spf "%d request records, but the header says %d" (!line - 1)
                 h.requests)
          else Ok (h, acc))
  with Json.Decode_error msg -> Error msg

let load path =
  Result.map
    (fun (h, rs) -> (h, List.rev rs))
    (read path ~init:(fun _ -> []) ~step:(fun acc r -> r :: acc))

(* ---------------- the fold ---------------- *)

type summary = {
  header : header;
  total : int;
  errors : int;
  served : (string * int) list;
  ticks : int;
  window : Window.t;
  verdict : Slo.report;
  ledger : Ledger.t;
  drift : Drift.registry option;
  alarms : Drift.alarm list;
}

type t = {
  st_header : header;
  st_scale : (Ledger.phase * float) option;
  st_window : Window.t;
  st_ledger : Ledger.t;
  st_drift : Drift.registry option;
  st_served : (string, int ref) Hashtbl.t;
  mutable st_total : int;
  mutable st_errors : int;
  mutable st_tick : int;
}

(* The latency monitors, calibrated from the replay's own early windows:
   one window of CUSUM reference is two epochs, and quantile-shift merges
   its first two windows. *)
let monitors h =
  let r = Drift.create_registry () in
  Drift.register r
    (Drift.quantile_shift ~p:99.0 ~ratio:2.0 ~window:h.width ~ref_windows:2
       "latency.p99");
  Drift.register r
    (Drift.cusum ~ref_count:(2 * h.width) ~k:0.5 ~h:15.0 "latency.mean");
  r

let start ?scale h =
  {
    st_header = h;
    st_scale = scale;
    st_window = Window.create ~width:h.width ~buckets:h.buckets ();
    st_ledger = Ledger.create ~slot_width:h.width ();
    st_drift = (if h.monitor then Some (monitors h) else None);
    st_served = Hashtbl.create 8;
    st_total = 0;
    st_errors = 0;
    st_tick = 0;
  }

let window t = t.st_window

let step t r =
  let h = t.st_header in
  let c = h.classes.(r.rq_class) in
  let cls =
    match serve_class r.rq_served with
    | Some cls -> cls
    | None -> invalid_arg ("Replay.step: unknown serve name " ^ r.rq_served)
  in
  let l = latency ?scale:t.st_scale r in
  t.st_total <- t.st_total + 1;
  if not r.rq_ok then t.st_errors <- t.st_errors + 1;
  (match t.st_drift with
  | Some reg when r.rq_tick >= h.width ->
    List.iter
      (fun m -> ignore (Drift.observe m ~tick:r.rq_tick l))
      (Drift.monitors reg)
  | _ -> ());
  (match Hashtbl.find_opt t.st_served r.rq_served with
  | Some n -> incr n
  | None -> Hashtbl.add t.st_served r.rq_served (ref 1));
  Window.observe t.st_window ~now:r.rq_tick ~ok:r.rq_ok l;
  (* one multiplier for the whole request, so the scaled phase costs sum
     exactly to the latency: the ledger's reconciliation invariant *)
  Ledger.observe t.st_ledger ~label:c.label ~key:c.key ?run_id:c.run_id
    ~tick:r.rq_tick ~cls ~ok:r.rq_ok ~latency_s:l
    (List.map
       (fun ((p, _) as pv) -> (p, scaled t.st_scale pv *. r.rq_mult))
       r.rq_costs);
  t.st_tick <- r.rq_tick

let finish t =
  {
    header = t.st_header;
    total = t.st_total;
    errors = t.st_errors;
    served =
      Hashtbl.fold (fun name n acc -> (name, !n) :: acc) t.st_served []
      |> List.sort compare;
    ticks = t.st_tick;
    window = t.st_window;
    verdict = Slo.evaluate t.st_header.slo t.st_window ~now:t.st_tick;
    ledger = t.st_ledger;
    drift = t.st_drift;
    alarms =
      (match t.st_drift with None -> [] | Some r -> Drift.all_alarms r);
  }

let fold ?scale h records =
  let t = start ?scale h in
  List.iter (step t) records;
  finish t

let summarize path =
  Result.map
    (fun (_, t) -> finish t)
    (read path ~init:start ~step:(fun t r ->
         step t r;
         t))

(* ---------------- what-if ---------------- *)

type scenario = {
  sc_phase : Ledger.phase;
  sc_factor : float;
  sc_p50_s : float;
  sc_p99_s : float;
  sc_delta_p50_s : float;
  sc_delta_p99_s : float;
  sc_verdict : string;
}

type entry = {
  en_phase : Ledger.phase;
  en_impact_p50_s : float;
  en_impact_p99_s : float;
  en_scenarios : scenario list;
}

type ranking = {
  wr_requests : int;
  wr_factors : float list;
  wr_baseline_p50_s : float;
  wr_baseline_p99_s : float;
  wr_baseline_verdict : string;
  wr_ranking : entry list;
}

(* Full-stream p50/p99 (the ledger's all-class cell) and the final
   verdict's worst severity. Window eviction depends only on the tick
   sequence, which scaling never changes, so scenarios stay directly
   comparable. *)
let outcome ?scale h records =
  let s = fold ?scale h records in
  let all = (Ledger.report s.ledger).Ledger.lr_overall in
  ( all.Sketch.p50,
    all.Sketch.p99,
    match s.verdict.Slo.alerts with
    | [] -> "ok"
    | a :: _ -> Slo.severity_name a.Slo.severity )

let whatif ?(factors = [ 0.5; 0.25; 0.1 ]) h records =
  if records = [] then invalid_arg "Replay.whatif: no records";
  if factors = [] then invalid_arg "Replay.whatif: no factors";
  List.iter
    (fun f ->
      if not (Float.is_finite f && f > 0.0) then
        invalid_arg "Replay.whatif: factors must be finite and > 0")
    factors;
  let base_p50, base_p99, base_verdict = outcome h records in
  let observed =
    List.filter
      (fun p ->
        List.exists
          (fun r -> List.exists (fun (q, v) -> q = p && v > 0.0) r.rq_costs)
          records)
      Ledger.all_phases
  in
  let ranking =
    List.map
      (fun p ->
        let scenarios =
          List.map
            (fun f ->
              let p50, p99, verdict = outcome ~scale:(p, f) h records in
              {
                sc_phase = p;
                sc_factor = f;
                sc_p50_s = p50;
                sc_p99_s = p99;
                sc_delta_p50_s = base_p50 -. p50;
                sc_delta_p99_s = base_p99 -. p99;
                sc_verdict = verdict;
              })
            factors
        in
        (* impact = improvement at the most aggressive factor *)
        let best =
          List.fold_left
            (fun b s -> if s.sc_factor < b.sc_factor then s else b)
            (List.hd scenarios) scenarios
        in
        {
          en_phase = p;
          en_impact_p50_s = best.sc_delta_p50_s;
          en_impact_p99_s = best.sc_delta_p99_s;
          en_scenarios = scenarios;
        })
      observed
    |> List.stable_sort (fun a b ->
           (* phases compare in declaration = pipeline order *)
           match compare (b.en_impact_p99_s : float) a.en_impact_p99_s with
           | 0 -> compare a.en_phase b.en_phase
           | c -> c)
  in
  {
    wr_requests = List.length records;
    wr_factors = factors;
    wr_baseline_p50_s = base_p50;
    wr_baseline_p99_s = base_p99;
    wr_baseline_verdict = base_verdict;
    wr_ranking = ranking;
  }

let top r = match r.wr_ranking with [] -> None | e :: _ -> Some e.en_phase

let scenario_json s =
  Json.Obj
    [
      ("factor", Json.Num s.sc_factor);
      ("p50_s", Json.Num s.sc_p50_s);
      ("p99_s", Json.Num s.sc_p99_s);
      ("delta_p50_s", Json.Num s.sc_delta_p50_s);
      ("delta_p99_s", Json.Num s.sc_delta_p99_s);
      ("verdict", Json.Str s.sc_verdict);
    ]

let whatif_json r =
  Json.Obj
    [
      ("schema_version", Json.of_int 1);
      ("requests", Json.of_int r.wr_requests);
      ("factors", Json.Arr (List.map (fun f -> Json.Num f) r.wr_factors));
      ("baseline_p50_s", Json.Num r.wr_baseline_p50_s);
      ("baseline_p99_s", Json.Num r.wr_baseline_p99_s);
      ("baseline_verdict", Json.Str r.wr_baseline_verdict);
      ( "ranking",
        Json.Arr
          (List.map
             (fun e ->
               Json.Obj
                 [
                   ("phase", Json.Str (Ledger.phase_name e.en_phase));
                   ("impact_p50_s", Json.Num e.en_impact_p50_s);
                   ("impact_p99_s", Json.Num e.en_impact_p99_s);
                   ( "scenarios",
                     Json.Arr (List.map scenario_json e.en_scenarios) );
                 ])
             r.wr_ranking) );
    ]

let us v = spf "%.1f" (v *. 1e6)

let render_whatif r =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (spf
       "what-if over %d recorded requests (baseline p50 %s us, p99 %s us, \
        slo %s)\n"
       r.wr_requests (us r.wr_baseline_p50_s) (us r.wr_baseline_p99_s)
       r.wr_baseline_verdict);
  Buffer.add_string b
    (spf "  %-12s %12s %12s  %s\n" "phase" "dp99 us" "dp50 us"
       "scenarios (factor: p99 us / verdict)");
  List.iter
    (fun e ->
      let cells =
        e.en_scenarios
        |> List.map (fun s ->
               spf "x%.2f: %s/%s" s.sc_factor (us s.sc_p99_s) s.sc_verdict)
        |> String.concat "  "
      in
      Buffer.add_string b
        (spf "  %-12s %12s %12s  %s\n"
           (Ledger.phase_name e.en_phase)
           (us e.en_impact_p99_s) (us e.en_impact_p50_s) cells))
    r.wr_ranking;
  (match r.wr_ranking with
  | e :: _ ->
    Buffer.add_string b
      (spf "  => speeding up %s moves p99 most (-%s us at x%.2f)\n"
         (Ledger.phase_name e.en_phase)
         (us e.en_impact_p99_s)
         (List.fold_left Float.min infinity r.wr_factors))
  | [] -> ());
  Buffer.contents b
