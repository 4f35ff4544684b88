(** Journal-replay load harness: drive {!Engine} with a realistic request
    mix recorded by the tuning flight recorder, and fold the resulting
    request stream ({!Obs.Replay}) into a telemetry window, a final
    {!Obs.Slo} verdict, a causal {!Obs.Ledger} and (when monitoring)
    {!Obs.Drift} alarms.

    Arrival mix: each journal entry contributes one request class (its
    label and recorded canonical DSL); duplicate DSLs merge, weights count
    occurrences. The replay samples classes by weight from a fixed-seed
    {!Util.Rng} and serves them through a real {!Engine} in batches, so
    the stream exercises the actual serve path - cold tunes, cache hits,
    in-batch deduplication (single-flight coalescing).

    Determinism: the logical clock is the request index (one tick per
    request, no wall-clock reads on the hot path), and the latency fed to
    the windows is a documented deterministic model of service time - a
    per-phase cost decomposition (see below) summed and multiplied by
    fixed-seed lognormal jitter - not a wall-clock measurement. Engine
    results are themselves deterministic for a fixed seed, so a replay is
    bit-identical across runs, and so is its artifact, which records no
    wall time. Errors are injected with probability
    [error_rate] from the same RNG so the error-budget side of the SLO is
    exercised.

    Latency model: each request's base cost is a sum of {e modeled}
    per-phase costs ({!Obs.Ledger.phase}), built from the constants
    below. Every class pays canonicalize (0.10 hit) + lookup (0.15 hit) +
    queue (5e-6 s x batch position); warm hits add a 0.75-hit restore
    measure, dedups a 0.25-hit share, and cold tunes split a 1e-3 s base
    across enumerate/prune/gate/surrogate/codegen/store
    (0.30/0.10/0.15/0.25/0.15/0.05) plus 2e-3 s x evaluations of measure,
    where a hit is 2e-4 s. These constants are modeled, not measured. The
    whole vector is scaled by one multiplier - lognormal (sigma 0.25) x
    [degrade] - so the scaled phase costs sum {e exactly} to
    the end-to-end latency - the {!Obs.Ledger} reconciliation invariant,
    and the property that lets {!Obs.Replay.whatif} compute causal phase
    impacts exactly.

    Memory is bounded: window state is O(buckets) sketches, the ledger is
    O(classes x phases) sketch cells plus a fixed exemplar ring, and each
    engine metrics timer is one sketch, so replaying 10^4-10^6 requests
    does not grow storage with the request count. The replay keeps no per-request list: with [out],
    each record is written as soon as it is made. *)

type mix = { mix_label : string; mix_dsl : string; weight : int }

(** One class per distinct recorded DSL, weighted by occurrence count,
    in first-appearance order. Empty journals yield []. *)
val mix_of_journal : Obs.Journal.entry list -> mix list

type config = {
  requests : int;  (** total requests to replay *)
  seed : int;  (** arrival sampling, jitter and error injection *)
  batch : int;  (** requests per {!Engine.batch} call *)
  error_rate : float;  (** injected failure probability per request *)
  degrade : float;  (** latency multiplier; >1 simulates a regression *)
  degrade_at : int;
      (** first tick the degrade multiplier applies to; 0 degrades the
          whole run, [requests/2] injects a mid-replay regression *)
  monitor : bool;
      (** attach online change-point monitors ({!Obs.Drift}) to the
          latency stream: a [latency.p99] quantile-shift monitor and a
          [latency.mean] CUSUM, both calibrated from the replay's own
          early windows. Monitors skip the first [window_width] ticks so
          cold-tune warmup cannot pollute the reference. *)
  window_width : int;  (** logical ticks per window epoch *)
  window_buckets : int;  (** epochs in the window ring *)
  slo : Obs.Slo.spec;
  engine : Engine.config;
}

(** 10^4 requests, seed 7, batches of 16, 0.1% injected errors, 250-tick
    epochs in an 8-slot ring, {!Obs.Slo.default_spec}, and a default
    engine with [reps = 3] (restores are re-measured cheaply). *)
val default_config : config

type result = {
  summary : Obs.Replay.summary;  (** the fold of the replayed stream *)
  wall_s : float;  (** real wall time of the replay (not in the artifact) *)
}

(** Latest journal run id per canonical DSL, in first-appearance order:
    passed to {!run} as [run_ids] so ledger exemplars can name the tuning
    run behind a slow request. *)
val run_ids_of_journal : Obs.Journal.entry list -> (string * string) list

(** Run the replay. [on_frame] (with [frame_every] ticks, default none)
    is called during the replay for live dashboards. [out] receives the
    {!Obs.Replay} artifact: its header line first, then each request's
    record line as the request is served. [run_ids] maps canonical DSL to
    journal run id for exemplars (see {!run_ids_of_journal}). Raises
    [Invalid_argument] on an empty mix or a non-positive request count or
    batch size; a class whose DSL the front end rejects raises its error
    before the first request, as serving it would. *)
val run :
  ?on_frame:(Obs.Window.t -> now:int -> unit) ->
  ?frame_every:int ->
  ?out:out_channel ->
  ?run_ids:(string * string) list ->
  config ->
  mix list ->
  result

(** Human-readable summary: mix, serve counts, window dashboard, SLO
    verdict, ledger and (when monitoring) the drift monitors. *)
val render : result -> string
