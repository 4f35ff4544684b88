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
  summary : Obs.Replay.summary;
  wall_s : float;
}

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

(* The artifact header of a replay: the configuration, and the class
   table with each DSL's canonical key and latest journal run. *)
let header ~run_ids cfg classes =
  {
    Obs.Replay.requests = cfg.requests;
    seed = cfg.seed;
    batch = cfg.batch;
    error_rate = cfg.error_rate;
    degrade = cfg.degrade;
    degrade_at = cfg.degrade_at;
    monitor = cfg.monitor;
    width = cfg.window_width;
    buckets = cfg.window_buckets;
    slo = cfg.slo;
    classes =
      Array.of_list
        (List.map
           (fun m ->
             {
               Obs.Replay.label = m.mix_label;
               dsl = m.mix_dsl;
               key = (Canonical.of_dsl ~arch:cfg.engine.arch m.mix_dsl).key;
               run_id = List.assoc_opt m.mix_dsl run_ids;
               weight = m.weight;
             })
           classes);
  }

let run ?on_frame ?frame_every ?out ?(run_ids = []) cfg classes =
  if classes = [] then invalid_arg "Loadgen.run: empty request mix";
  if cfg.requests < 1 then invalid_arg "Loadgen.run: requests must be >= 1";
  if cfg.batch < 1 then invalid_arg "Loadgen.run: batch must be >= 1";
  let t0 = Unix.gettimeofday () in
  let rng = Util.Rng.create cfg.seed in
  let svc = Engine.create ~config:cfg.engine () in
  let header = header ~run_ids cfg classes in
  let fold = Obs.Replay.start header in
  let write line x = Option.iter (fun oc -> output_string oc (line x)) out in
  write Obs.Replay.header_line header;
  let table = header.classes in
  let total_weight =
    Array.fold_left (fun acc (c : Obs.Replay.request_class) -> acc + c.weight) 0 table
  in
  (* a class index, drawn by weight *)
  let pick () =
    let w = Util.Rng.int rng total_weight in
    let rec go i acc =
      let acc = acc + table.(i).weight in
      if i = Array.length table - 1 || w < acc then i else go (i + 1) acc
    in
    go 0 0
  in
  let tick = ref (-1) in
  let next_frame = ref (match frame_every with Some k -> k | None -> max_int) in
  let remaining = ref cfg.requests in
  while !remaining > 0 do
    let n = min cfg.batch !remaining in
    remaining := !remaining - n;
    let picks = List.init n (fun _ -> pick ()) in
    let responses =
      Engine.batch svc
        (List.map (fun i -> { Engine.label = table.(i).label; src = table.(i).dsl }) picks)
    in
    List.iteri
      (fun position (cls, (r : Engine.response)) ->
        Stdlib.incr tick;
        let degrade = if !tick >= cfg.degrade_at then cfg.degrade else 1.0 in
        let mult = degrade *. exp (jitter *. Util.Rng.gaussian rng) in
        let ok = not (Util.Rng.float rng 1.0 < cfg.error_rate) in
        let record =
          {
            Obs.Replay.rq_tick = !tick;
            rq_class = cls;
            rq_served = Engine.served_name r.served;
            rq_ok = ok;
            rq_mult = mult;
            rq_costs = phase_costs r ~position;
          }
        in
        Obs.Replay.step fold record;
        write Obs.Replay.record_line record;
        if !tick + 1 >= !next_frame then begin
          (match on_frame with
          | Some f -> f (Obs.Replay.window fold) ~now:!tick
          | None -> ());
          next_frame :=
            !next_frame + (match frame_every with Some k -> k | None -> max_int)
        end)
      (List.combine picks responses)
  done;
  {
    summary = Obs.Replay.finish fold;
    wall_s = Unix.gettimeofday () -. t0;
  }

let render r =
  let s = r.summary in
  let h = s.header in
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "replayed %d requests (%d classes, seed %d) in %.2fs (%.0f req/s)\n"
       s.total (Array.length h.classes) h.seed r.wall_s
       (float_of_int s.total /. Float.max 1e-9 r.wall_s));
  Array.iter
    (fun (c : Obs.Replay.request_class) ->
      Buffer.add_string b
        (Printf.sprintf "  class %-16s weight %d\n" c.label c.weight))
    h.classes;
  List.iter
    (fun (name, n) -> Buffer.add_string b (Printf.sprintf "  served %-14s %d\n" name n))
    s.served;
  Buffer.add_string b
    (Printf.sprintf "  injected errors: %d (%.3f%%)\n" s.errors
       (100.0 *. float_of_int s.errors /. float_of_int s.total));
  Buffer.add_string b (Obs.Window.render s.window ~now:s.ticks);
  Buffer.add_string b (Obs.Slo.render s.verdict);
  Buffer.add_string b (Obs.Ledger.render (Obs.Ledger.report s.ledger));
  (match s.drift with
  | Some reg -> Buffer.add_string b (Obs.Drift.render reg)
  | None -> ());
  Buffer.contents b
