(* Journal-replay load harness. See the interface for the determinism and
   bounded-memory contracts; the short version is that every stochastic
   choice (class sampling, jitter, error injection) draws from one
   fixed-seed Util.Rng in request order, the logical clock is the request
   index, and the latency fed to the telemetry windows is modeled - a
   deterministic function of how the engine served the request - rather
   than measured. *)

type mix = { mix_label : string; mix_dsl : string; weight : int }

let mix_of_journal entries =
  Obs.Journal.by_dsl entries
  |> List.map (fun (dsl, (es : Obs.Journal.entry list)) ->
         { mix_label = (List.hd es).label; mix_dsl = dsl; weight = List.length es })

(* Modeled service costs, in seconds: constants of the latency model, not
   measurements. A cache hit; the fixed cost of a cold tune; one SURF
   evaluation; queue wait per batch position; and the lognormal sigma of
   the per-request latency multiplier. *)
let hit_cost_s = 2e-4
let tune_base_s = 1e-3
let eval_cost_s = 2e-3
let queue_cost_s = 5e-6
let jitter = 0.25

type config = {
  requests : int;
  seed : int;
  batch : int;
  error_rate : float;
  degrade : float;
  degrade_at : int;
  monitor : bool;
  window_width : int;
  window_buckets : int;
  slo : Obs.Slo.spec;
  engine : Engine.config;
}

let default_config =
  {
    requests = 10_000;
    seed = 7;
    batch = 16;
    error_rate = 0.001;
    degrade = 1.0;
    degrade_at = 0;
    monitor = false;
    window_width = 250;
    window_buckets = 8;
    slo = Obs.Slo.default_spec;
    engine = { Engine.default_config with reps = 3 };
  }

type result = {
  cfg : config;
  classes : mix list;
  total : int;
  errors : int;
  served : (string * int) list;
  ticks : int;
  window : Obs.Window.t;
  verdict : Obs.Slo.report;
  metrics : Metrics.t;
  drift : Obs.Drift.registry option;
  alarms : Obs.Drift.alarm list;
  ledger : Obs.Ledger.t;
  records : Obs.Whatif.record list;
  wall_s : float;
}

let serve_class (r : Engine.response) =
  match r.served with
  | Engine.Tuned -> Obs.Ledger.Cold
  | Engine.Memory_hit | Engine.Disk_hit -> Obs.Ledger.Warm
  | Engine.Deduplicated -> Obs.Ledger.Dedup

(* Modeled service time of one response, decomposed by phase. Every class
   pays canonicalization + cache lookup plus a queue wait growing with its
   batch position; warm hits pay a restore measurement (0.75 hit), dedups
   ride a concurrent equivalent's work (0.25 hit), and cold tunes split
   the paper's pipeline - enumerate/prune/gate/surrogate/codegen/store
   shares of the base tune cost plus the per-evaluation measure cost.
   Per class the shares sum to the former scalar model (hit = 1.0 hit,
   dedup = 0.5 hit, cold = tune_base + evals * eval_cost) up to the new
   additive queue term, so existing SLO budgets stay calibrated. *)
let phase_costs (r : Engine.response) ~position =
  let h = hit_cost_s and t = tune_base_s in
  let common =
    [
      (Obs.Ledger.Canonicalize, 0.10 *. h);
      (Obs.Ledger.Lookup, 0.15 *. h);
      (Obs.Ledger.Queue, queue_cost_s *. float_of_int position);
    ]
  in
  match r.served with
  | Engine.Tuned ->
    common
    @ [
        (Obs.Ledger.Enumerate, 0.30 *. t);
        (Obs.Ledger.Prune, 0.10 *. t);
        (Obs.Ledger.Gate, 0.15 *. t);
        (Obs.Ledger.Surrogate, 0.25 *. t);
        (Obs.Ledger.Measure,
         eval_cost_s *. float_of_int r.result.Autotune.Tuner.evaluations);
        (Obs.Ledger.Codegen, 0.15 *. t);
        (Obs.Ledger.Store, 0.05 *. t);
      ]
  | Engine.Memory_hit | Engine.Disk_hit ->
    common @ [ (Obs.Ledger.Measure, 0.75 *. h) ]
  | Engine.Deduplicated -> common @ [ (Obs.Ledger.Measure, 0.25 *. h) ]

(* Latest journal run id per canonical DSL, so ledger exemplars can name
   the tuning run behind a slow request. *)
let run_ids_of_journal entries =
  Obs.Journal.by_dsl entries
  |> List.map (fun (dsl, es) ->
         (dsl, (List.nth es (List.length es - 1) : Obs.Journal.entry).run_id))

let run ?on_frame ?frame_every ?(record = false) ?(run_ids = []) cfg classes =
  if classes = [] then invalid_arg "Loadgen.run: empty request mix";
  if cfg.requests < 1 then invalid_arg "Loadgen.run: requests must be >= 1";
  if cfg.batch < 1 then invalid_arg "Loadgen.run: batch must be >= 1";
  let t0 = Unix.gettimeofday () in
  let rng = Util.Rng.create cfg.seed in
  let svc = Engine.create ~config:cfg.engine () in
  let window =
    Obs.Window.create ~width:cfg.window_width ~buckets:cfg.window_buckets ()
  in
  let ledger = Obs.Ledger.create ~slot_width:cfg.window_width () in
  let records = ref [] in
  let total_weight = List.fold_left (fun acc m -> acc + m.weight) 0 classes in
  let pick () =
    let w = Util.Rng.int rng total_weight in
    let rec go acc = function
      | [ m ] -> m
      | m :: rest -> if w < acc + m.weight then m else go (acc + m.weight) rest
      | [] -> assert false
    in
    go 0 classes
  in
  let errors = ref 0 in
  let served = Hashtbl.create 8 in
  let tick = ref (-1) in
  (* Change-point monitors over the modeled latency stream, calibrated
     from the replay's own early windows (one window of CUSUM reference =
     two epochs; quantile-shift merges its first two windows). Feeding
     starts after the first epoch so cold-tune outliers - every class is
     tuned within the first few batches - stay out of the reference. *)
  let drift =
    if not cfg.monitor then None
    else begin
      let r = Obs.Drift.create_registry () in
      Obs.Drift.register r
        (Obs.Drift.quantile_shift ~p:99.0 ~ratio:2.0 ~window:cfg.window_width
           ~ref_windows:2 "latency.p99");
      Obs.Drift.register r
        (Obs.Drift.cusum ~ref_count:(2 * cfg.window_width) ~k:0.5 ~h:15.0
           "latency.mean");
      Some r
    end
  in
  let next_frame = ref (match frame_every with Some k -> k | None -> max_int) in
  let remaining = ref cfg.requests in
  while !remaining > 0 do
    let n = min cfg.batch !remaining in
    remaining := !remaining - n;
    let reqs =
      List.init n (fun _ ->
          let m = pick () in
          { Engine.label = m.mix_label; src = m.mix_dsl })
    in
    let responses = Engine.batch svc reqs in
    let position = ref (-1) in
    List.iter2
      (fun (req : Engine.request) (r : Engine.response) ->
        Stdlib.incr tick;
        Stdlib.incr position;
        let degrade = if !tick >= cfg.degrade_at then cfg.degrade else 1.0 in
        (* one multiplier for the whole request, so the scaled per-phase
           costs sum exactly to the latency (the ledger reconciliation
           invariant, and what lets Whatif scale one phase exactly) *)
        let mult = degrade *. exp (jitter *. Util.Rng.gaussian rng) in
        let costs = phase_costs r ~position:!position in
        let base = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 costs in
        let latency = base *. mult in
        let ok = not (Util.Rng.float rng 1.0 < cfg.error_rate) in
        if not ok then Stdlib.incr errors;
        (match drift with
        | Some reg when !tick >= cfg.window_width ->
          List.iter
            (fun m -> ignore (Obs.Drift.observe m ~tick:!tick latency))
            (Obs.Drift.monitors reg)
        | _ -> ());
        let name = Engine.served_name r.served in
        (match Hashtbl.find_opt served name with
        | Some c -> Stdlib.incr c
        | None -> Hashtbl.add served name (ref 1));
        Obs.Window.observe window ~now:!tick ~ok latency;
        let cls = serve_class r in
        Obs.Ledger.observe ledger ~label:r.label ~key:r.key
          ?run_id:(List.assoc_opt req.src run_ids)
          ~tick:!tick ~cls ~ok ~latency_s:latency
          (List.map (fun (p, v) -> (p, v *. mult)) costs);
        if record then
          records :=
            {
              Obs.Whatif.rq_tick = !tick;
              rq_class = cls;
              rq_ok = ok;
              rq_mult = mult;
              rq_costs = costs;
            }
            :: !records;
        if !tick + 1 >= !next_frame then begin
          (match on_frame with Some f -> f window ~now:!tick | None -> ());
          next_frame :=
            !next_frame + (match frame_every with Some k -> k | None -> max_int)
        end)
      reqs responses
  done;
  let verdict = Obs.Slo.evaluate cfg.slo window ~now:!tick in
  {
    cfg;
    classes;
    total = cfg.requests;
    errors = !errors;
    served =
      Hashtbl.fold (fun name c acc -> (name, !c) :: acc) served []
      |> List.sort compare;
    ticks = !tick;
    window;
    verdict;
    metrics = Engine.metrics svc;
    drift;
    alarms =
      (match drift with None -> [] | Some r -> Obs.Drift.all_alarms r);
    ledger;
    records = List.rev !records;
    wall_s = Unix.gettimeofday () -. t0;
  }

(* Everything the ledger/whatif CLI subcommands need to re-derive the
   replay offline: the ledger report plus (when [run ~record:true]) the
   raw per-request cost records. *)
let ledger_file r =
  {
    Obs.Whatif.f_requests = r.total;
    f_seed = r.cfg.seed;
    f_width = r.cfg.window_width;
    f_buckets = r.cfg.window_buckets;
    f_slo = Some r.cfg.slo;
    f_ledger = Obs.Ledger.report r.ledger;
    f_records = r.records;
  }

let render r =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "replayed %d requests (%d classes, seed %d) in %.2fs (%.0f req/s)\n"
       r.total (List.length r.classes) r.cfg.seed r.wall_s
       (float_of_int r.total /. Float.max 1e-9 r.wall_s));
  List.iter
    (fun m ->
      Buffer.add_string b
        (Printf.sprintf "  class %-16s weight %d\n" m.mix_label m.weight))
    r.classes;
  List.iter
    (fun (name, n) -> Buffer.add_string b (Printf.sprintf "  served %-14s %d\n" name n))
    r.served;
  Buffer.add_string b
    (Printf.sprintf "  injected errors: %d (%.3f%%)\n" r.errors
       (100.0 *. float_of_int r.errors /. float_of_int r.total));
  Buffer.add_string b (Obs.Window.render r.window ~now:r.ticks);
  Buffer.add_string b (Obs.Slo.render r.verdict);
  Buffer.add_string b (Obs.Ledger.render (Obs.Ledger.report r.ledger));
  (match r.drift with
  | Some reg -> Buffer.add_string b (Obs.Drift.render reg)
  | None -> ());
  Buffer.contents b

let report_json r =
  let snap = Obs.Window.snapshot r.window ~now:r.ticks in
  Obs.Json.Obj
    ([
      ("schema_version", Obs.Json.of_int 1);
      ("requests", Obs.Json.of_int r.total);
      ("seed", Obs.Json.of_int r.cfg.seed);
      ("batch", Obs.Json.of_int r.cfg.batch);
      ("errors", Obs.Json.of_int r.errors);
      ( "classes",
        Obs.Json.Arr
          (List.map
             (fun m ->
               Obs.Json.Obj
                 [
                   ("label", Obs.Json.Str m.mix_label);
                   ("weight", Obs.Json.of_int m.weight);
                 ])
             r.classes) );
      ( "served",
        Obs.Json.Obj (List.map (fun (name, n) -> (name, Obs.Json.of_int n)) r.served) );
      ( "window",
        Obs.Json.Obj
          [
            ("ticks", Obs.Json.of_int snap.ticks);
            ("requests", Obs.Json.of_int snap.requests);
            ("error_ratio", Obs.Json.Num snap.error_ratio);
            ("rate_per_tick", Obs.Json.Num snap.rate);
            ("p50_s", Obs.Json.Num (Obs.Window.quantile snap 50.0));
            ("p90_s", Obs.Json.Num (Obs.Window.quantile snap 90.0));
            ("p99_s", Obs.Json.Num (Obs.Window.quantile snap 99.0));
            ("sketch_buckets", Obs.Json.of_int (Obs.Sketch.bucket_count snap.sketch));
          ] );
      ("slo", Obs.Slo.to_json r.verdict);
      ("ledger", Obs.Ledger.report_json (Obs.Ledger.report r.ledger));
    ]
    @
    match r.drift with
    | None -> []
    | Some reg -> [ ("drift", Obs.Drift.registry_json reg) ])
