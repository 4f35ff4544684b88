(* Exact causal what-if profiling. See whatif.mli for the model; the key
   property exploited here is that a record's observed latency factors as
   (sum of base phase costs) * multiplier, so scaling one phase's base
   cost reconstructs the exact counterfactual latency. *)

let spf = Printf.sprintf

type record = {
  rq_tick : int;
  rq_class : Ledger.serve_class;
  rq_ok : bool;
  rq_mult : float;
  rq_costs : (Ledger.phase * float) list;
}

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

type report = {
  wr_requests : int;
  wr_factors : float list;
  wr_baseline_p50_s : float;
  wr_baseline_p99_s : float;
  wr_baseline_verdict : string;
  wr_ranking : entry list;
}

let latency ?phase ?(factor = 1.0) r =
  let base =
    List.fold_left
      (fun acc (p, v) ->
        acc +. (if phase = Some p then v *. factor else v))
      0.0 r.rq_costs
  in
  base *. r.rq_mult

(* One pass over the stream: full-stream sketch for p50/p99 plus a
   windowed SLO evaluation at the final tick. Window eviction depends
   only on the tick sequence, which scaling never changes, so scenario
   runs stay directly comparable. *)
let replay ?phase ?factor ?slo ~width ~buckets records =
  let sk = Sketch.create () in
  let w = Window.create ~width ~buckets () in
  let last = ref 0 in
  List.iter
    (fun r ->
      let l = latency ?phase ?factor r in
      Sketch.add sk l;
      Window.observe w ~now:r.rq_tick ~ok:r.rq_ok l;
      if r.rq_tick > !last then last := r.rq_tick)
    records;
  let verdict =
    match slo with
    | None -> "-"
    | Some spec ->
      let rep = Slo.evaluate spec w ~now:!last in
      (match rep.Slo.alerts with
      | [] -> "ok"
      | a :: _ -> Slo.severity_name a.Slo.severity)
  in
  (Sketch.quantile sk 50.0, Sketch.quantile sk 99.0, verdict)

let run ?(factors = [ 0.5; 0.25; 0.1 ]) ?slo ~width ~buckets records =
  if records = [] then invalid_arg "Whatif.run: no records";
  if factors = [] then invalid_arg "Whatif.run: no factors";
  List.iter
    (fun f ->
      if not (f > 0.0) then invalid_arg "Whatif.run: factors must be > 0")
    factors;
  let base_p50, base_p99, base_verdict =
    replay ?slo ~width ~buckets records
  in
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
              let p50, p99, verdict =
                replay ~phase:p ~factor:f ?slo ~width ~buckets records
              in
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
            (fun acc s ->
              match acc with
              | None -> Some s
              | Some b -> if s.sc_factor < b.sc_factor then Some s else acc)
            None scenarios
        in
        match best with
        | None -> assert false
        | Some b ->
          {
            en_phase = p;
            en_impact_p50_s = b.sc_delta_p50_s;
            en_impact_p99_s = b.sc_delta_p99_s;
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

(* ---------------- JSON ---------------- *)

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

let report_json r =
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

(* ---------------- render ---------------- *)

let us v = spf "%.1f" (v *. 1e6)

let render r =
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

(* ---------------- replay file ---------------- *)

type file = {
  f_requests : int;
  f_seed : int;
  f_width : int;
  f_buckets : int;
  f_slo : Slo.spec option;
  f_ledger : Ledger.report;
  f_records : record list;
}

let record_json r =
  Json.Obj
    [
      ("tick", Json.of_int r.rq_tick);
      ("class", Json.Str (Ledger.class_name r.rq_class));
      ("ok", Json.Bool r.rq_ok);
      ("mult", Json.Num r.rq_mult);
      ( "costs",
        Json.Arr
          (List.map
             (fun (p, v) ->
               Json.Arr [ Json.Str (Ledger.phase_name p); Json.Num v ])
             r.rq_costs) );
    ]

let record_of_json j =
  let cost = function
    | Json.Arr [ Json.Str name; Json.Num v ] ->
      (Json.enum "phase" Ledger.phase_of_name name, v)
    | _ -> Json.fail "invalid cost entry"
  in
  {
    rq_tick = Json.int "tick" j;
    rq_class = Json.enum "serve class" Ledger.class_of_name (Json.str "class" j);
    rq_ok =
      (match Json.field "ok" j with
      | Json.Bool v -> v
      | _ -> Json.fail "missing or invalid field \"ok\"");
    rq_mult = Json.num "mult" j;
    rq_costs = List.map cost (Json.arr "costs" j);
  }

let file_json f =
  Json.Obj
    [
      ("schema_version", Json.of_int 1);
      ("requests", Json.of_int f.f_requests);
      ("seed", Json.of_int f.f_seed);
      ("width", Json.of_int f.f_width);
      ("buckets", Json.of_int f.f_buckets);
      ( "slo",
        match f.f_slo with None -> Json.Null | Some s -> Slo.spec_to_json s );
      ("ledger", Ledger.report_json f.f_ledger);
      ("records", Json.Arr (List.map record_json f.f_records));
    ]

let file_of_json =
  Json.decode (fun j ->
      {
        f_requests = Json.int "requests" j;
        f_seed = Json.int "seed" j;
        f_width = Json.int "width" j;
        f_buckets = Json.int "buckets" j;
        f_slo =
          (match Json.member "slo" j with
          | None | Some Json.Null -> None
          | Some s -> Some (Json.ok (Slo.spec_of_json s)));
        f_ledger = Json.ok (Ledger.report_of_json (Json.field "ledger" j));
        f_records = List.map record_of_json (Json.arr "records" j);
      })
