(* The tuning service: a long-lived front end over the one-shot
   Barracuda pipeline.

   A request (label + DSL text) is canonicalized (Canonical), looked up in
   the persistent cache (Tuning_cache), and only tuned when genuinely new.
   Batches are deduplicated by canonical key first - equivalent requests
   share one tune - then the unique cold keys are scheduled over OCaml 5
   domains (Scheduler): across requests when a batch has several cold
   keys, inside SURF's per-iteration evaluation batch (the paper's "up to
   ten evaluations concurrently") when it has one. Every stage reports to
   a Metrics registry.

   Determinism: a response depends only on (canonical key, service
   config). Cold tunes seed their own RNG from the config seed, pure
   evaluation batches are merged back in input order, and request-level
   parallelism only changes which domain runs a tune, so batch
   composition, domain count and cache state never change a tuned
   configuration. *)

type request = { label : string; src : string }

type served = Tuned | Memory_hit | Disk_hit | Deduplicated

let served_name = function
  | Tuned -> "tuned"
  | Memory_hit -> "hit:memory"
  | Disk_hit -> "hit:disk"
  | Deduplicated -> "deduplicated"

type response = {
  label : string;
  key : string;
  served : served;
  result : Autotune.Tuner.result;
  renaming : Canonical.renaming;
  wall_s : float;
}

type config = {
  arch : Gpusim.Arch.t;
  domains : int;
  clamp_domains : bool;  (* cap at the hardware's recommended count *)
  max_evals : int;
  batch_size : int;
  pool_per_variant : int;
  reps : int;
  seed : int;
  cache_dir : string option;
  cache_capacity : int;
}

let default_config =
  {
    arch = Gpusim.Arch.gtx980;
    domains = 1;
    clamp_domains = true;
    max_evals = Surf.Search.default_config.max_evals;
    batch_size = Surf.Search.default_config.batch_size;
    pool_per_variant = 600;
    reps = 100;
    seed = 42;
    cache_dir = None;
    cache_capacity = 128;
  }

type t = {
  cfg : config;
  cache : Tuning_cache.t;
  sched : Scheduler.t;
  metrics : Metrics.t;
  drift : Obs.Drift.registry;
  mutable drift_tick : int;  (* responses served; the monitors' clock *)
}

(* Self-watching monitors. Both streams have a known absolute scale, so
   Page-Hinkley applies directly: the hit-rate stream is 0/1 per response
   (a cache in steady state serves ~1), the mispredict stream is
   |predicted/measured - 1| per model-guided evaluation of a cold tune
   (a healthy surrogate sits well under 1). *)
let make_drift () =
  let r = Obs.Drift.create_registry () in
  Obs.Drift.register r
    (Obs.Drift.page_hinkley ~delta:0.2 ~lambda:3.0 ~min_count:20
       "cache.hit_rate");
  Obs.Drift.register r
    (Obs.Drift.page_hinkley ~delta:0.1 ~lambda:2.0 ~min_count:10
       "surrogate.mispredict");
  r

let create ?(config = default_config) () =
  {
    cfg = config;
    cache = Tuning_cache.create ?dir:config.cache_dir ~capacity:config.cache_capacity ();
    sched =
      Scheduler.create ~clamp_to_cores:config.clamp_domains ~domains:config.domains ();
    metrics = Metrics.create ();
    drift = make_drift ();
    drift_tick = 0;
  }

let metrics t = t.metrics
let drift t = t.drift
let cache_stats t = Tuning_cache.stats t.cache
let effective_domains t = Scheduler.domains t.sched

(* One cold tune of a canonical program. [inner_parallel] plugs the domain
   scheduler into SURF's evaluation batches; it is off when the tune itself
   already runs inside a worker domain (no nested parallelism). *)
let tune_canonical t ~inner_parallel (canon : Canonical.t) =
  let cfg =
    {
      Surf.Search.default_config with
      max_evals = t.cfg.max_evals;
      batch_size = t.cfg.batch_size;
    }
  in
  let batch_map =
    if inner_parallel && Scheduler.domains t.sched > 1 then
      Some (Scheduler.run_thunks t.sched)
    else None
  in
  (* journal_key/journal_seed annotate the flight-recorder entry when
     journaling is on, so every cold tune the service performs - single
     request, deduplicated batch, or scheduler-parallel - is journaled
     under its canonical key *)
  let r =
    Autotune.Tuner.tune
      ~strategy:(Autotune.Tuner.Surf_search cfg)
      ~reps:t.cfg.reps ~pool_per_variant:t.cfg.pool_per_variant ?batch_map
      ~journal_key:canon.Canonical.key ~journal_seed:t.cfg.seed
      ~rng:(Util.Rng.create t.cfg.seed) ~arch:t.cfg.arch (Canonical.benchmark canon)
  in
  (* static-gate counters: how many candidate points the verifier screened
     before measurement, and how many it kept out of the pool *)
  Metrics.incr ~by:r.gate.checked t.metrics "check.points";
  Metrics.incr ~by:r.gate.rejected t.metrics "check.rejected";
  r

(* Rebuild a result from a cached artifact: parse the canonical program and
   re-measure only the winning candidate. *)
let restore_hit t (canon : Canonical.t) (entry : Tuning_cache.entry) =
  Autotune.Store.restore_result ~reps:t.cfg.reps ~arch:t.cfg.arch
    (Canonical.benchmark canon) entry.saved

(* ------------------------------------------------------------------ *)

(* One wall-clock measurement per phase, recorded once and fed to both the
   trace sink (a span, when tracing is on) and the Metrics timer - the
   replacement for the hand-rolled gettimeofday pairs this path used to
   duplicate per call site. *)
let phase t name f =
  let r, wall = Obs.Trace.timed ~cat:"service" name (fun _ -> f ()) in
  Metrics.observe t.metrics name wall;
  r

(* Per-request serve-path timing: the span carries the canonical key, the
   returned wall time is what the response reports and what the
   "request.wall" timer observes (once, in the response loop). *)
let serve_timed name ~key f = Obs.Trace.timed ~cat:"service" ~attrs:(fun () -> [ ("key", key) ]) name (fun _ -> f ())

(* The batch protocol: canonicalize -> dedup -> serve hits -> tune unique
   cold keys (in parallel when there are several) -> store -> respond in
   request order. *)
let batch t (requests : request list) =
  Obs.Trace.with_span ~cat:"service"
    ~attrs:(fun () -> [ ("requests", string_of_int (List.length requests)) ])
    "service.batch"
  @@ fun batch_span ->
  Metrics.incr ~by:(List.length requests) t.metrics "requests";
  let canons =
    phase t "phase.canonicalize" (fun () ->
        List.map (fun r -> (r, Canonical.of_dsl ~arch:t.cfg.arch r.src)) requests)
  in
  (* one representative per canonical key, in first-appearance order *)
  let unique_keys =
    let seen = Hashtbl.create 16 in
    List.filter_map
      (fun ((_, canon) : request * Canonical.t) ->
        if Hashtbl.mem seen canon.Canonical.key then None
        else begin
          Hashtbl.add seen canon.key ();
          Some canon
        end)
      canons
  in
  (* probe the cache for every unique key *)
  let probed =
    phase t "phase.lookup" (fun () ->
        List.map
          (fun (canon : Canonical.t) -> (canon, Tuning_cache.find t.cache canon.key))
          unique_keys)
  in
  let hits = List.filter_map (fun (c, e) -> Option.map (fun e -> (c, e)) e) probed in
  let cold = List.filter_map (fun (c, e) -> if e = None then Some c else None) probed in
  Metrics.incr ~by:(List.length cold) t.metrics "tune.cold";
  Obs.Trace.add_attrs batch_span
    [
      ("unique", string_of_int (List.length unique_keys));
      ("cold", string_of_int (List.length cold));
    ];
  (* serve hits: restore is ~one measurement, done sequentially *)
  let hit_results =
    List.map
      (fun ((canon : Canonical.t), ((entry : Tuning_cache.entry), source)) ->
        let result, wall =
          serve_timed "phase.restore" ~key:canon.key (fun () ->
              restore_hit t canon entry)
        in
        Metrics.observe t.metrics "phase.restore" wall;
        let served = match source with Tuning_cache.Memory -> Memory_hit | Disk -> Disk_hit in
        (canon.key, (served, result, wall)))
      hits
  in
  (* tune the cold keys: across domains when several, inside SURF when one *)
  let cold_results =
    phase t "phase.tune" (fun () ->
        match cold with
        | [] -> []
        | [ canon ] ->
          let r, wall =
            serve_timed "service.tune" ~key:canon.key (fun () ->
                tune_canonical t ~inner_parallel:true canon)
          in
          [ (canon.key, (Tuned, r, wall)) ]
        | _ ->
          Scheduler.map t.sched
            (fun (canon : Canonical.t) ->
              let r, wall =
                serve_timed "service.tune" ~key:canon.key (fun () ->
                    tune_canonical t ~inner_parallel:false canon)
              in
              (canon.key, (Tuned, r, wall)))
            cold)
  in
  (* store fresh artifacts (main domain: the cache mutex is cheap, but
     write-through happens once per key, in batch order). A winner that
     FAILED translation validation is served (the caller sees the verdict
     on the result) but never cached: a poisoned artifact would replay the
     miscompiled kernel on every future hit. *)
  phase t "phase.store" (fun () ->
      List.iter
        (fun (key, ((_, result, _) : served * Autotune.Tuner.result * float)) ->
          match result.Autotune.Tuner.semantic with
          | Some v when not v.Check.Semantic.equivalent ->
            Metrics.incr t.metrics "check.semantic_failed"
          | _ -> Tuning_cache.store t.cache ~key (Autotune.Store.of_result result))
        cold_results);
  let by_key = Hashtbl.create 16 in
  List.iter (fun (k, v) -> Hashtbl.replace by_key k v) (hit_results @ cold_results);
  (* respond in request order; later requests of a group are Deduplicated *)
  let first_seen = Hashtbl.create 16 in
  List.map
    (fun ((req, canon) : request * Canonical.t) ->
      let served, result, wall_s = Hashtbl.find by_key canon.key in
      let served, wall_s =
        if Hashtbl.mem first_seen canon.key then (Deduplicated, 0.0)
        else begin
          Hashtbl.add first_seen canon.key ();
          (served, wall_s)
        end
      in
      (match served with
      | Deduplicated -> Metrics.incr t.metrics "serve.deduplicated"
      | Tuned -> Metrics.incr t.metrics "serve.tuned"
      | Memory_hit -> Metrics.incr t.metrics "serve.hit.memory"
      | Disk_hit -> Metrics.incr t.metrics "serve.hit.disk");
      Metrics.observe t.metrics "request.wall" wall_s;
      (* drift monitors, fed on the caller's domain only (the registry is
         not domain-safe): cache efficacy as a 0/1 hit stream, surrogate
         health as the cold tune's own prediction track record. Feeding
         draws no RNG and never feeds back into tuning. *)
      t.drift_tick <- t.drift_tick + 1;
      let tick = t.drift_tick in
      ignore
        (Obs.Drift.feed t.drift "cache.hit_rate" ~tick
           (match served with Tuned -> 0.0 | _ -> 1.0));
      (match (served, result.Autotune.Tuner.explain) with
      | Tuned, Some ex ->
        List.iter
          (fun (_, predicted, measured) ->
            if measured > 0.0 then
              ignore
                (Obs.Drift.feed t.drift "surrogate.mispredict" ~tick
                   (Float.abs ((predicted /. measured) -. 1.0))))
          ex.Surf.Search.residuals
      | _ -> ());
      {
        label = req.label;
        key = canon.key;
        served;
        result;
        renaming = canon.renaming;
        wall_s;
      })
    canons

let tune t (req : request) =
  match batch t [ req ] with
  | [ r ] -> r
  | rs ->
    invalid_arg
      (Printf.sprintf
         "Engine.tune: batch answered a single request with %d responses; the \
          batch protocol must respond to each request exactly once, in order"
         (List.length rs))

let tune_dsl ?(label = "tc") t src = tune t { label; src }

(* Prometheus text exposition of the service metrics plus cache gauges. *)
let prometheus_report t =
  let s = cache_stats t in
  Metrics.prometheus t.metrics
  ^ Obs.Export.prometheus_sketches ~prefix:"barracuda_cache"
      ~counters:
        [
          ("hits", s.hits); ("disk_loads", s.disk_loads); ("misses", s.misses);
          ("corrupt", s.corrupt); ("stores", s.stores); ("evictions", s.evictions);
          ("front", Tuning_cache.size t.cache);
        ]
      ~sketches:[] ()
  ^ Obs.Export.prometheus_sketches ~prefix:"barracuda_trace"
      ~counters:[ ("dropped_spans", Obs.Trace.dropped ()) ]
      ~sketches:[] ()

(* Human-readable SURF convergence report for one response (empty history
   for cache hits: no search ran). *)
let convergence_report (r : response) =
  Obs.Search_log.render ~label:(r.label ^ " [" ^ served_name r.served ^ "]")
    r.result.Autotune.Tuner.iterations

(* Render the service-side view: metrics plus cache counters plus the
   self-watching drift monitors. *)
let stats_report t =
  let s = cache_stats t in
  let drops =
    match Obs.Trace.dropped () with
    | 0 -> ""
    | n ->
      Printf.sprintf
        "trace:\n  dropped %d span%s at the %d-span buffer cap\n" n
        (if n = 1 then "" else "s")
        (Obs.Trace.capacity ())
  in
  Printf.sprintf
    "%scache:\n  hits %d (disk %d)  misses %d  corrupt %d  stores %d  evictions %d  front %d\n%s%s"
    (Metrics.render t.metrics) s.hits s.disk_loads s.misses s.corrupt s.stores s.evictions
    (Tuning_cache.size t.cache) drops (Obs.Drift.render t.drift)
