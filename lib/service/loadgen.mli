(** Journal-replay load harness: drive {!Engine} with a realistic request
    mix recorded by the tuning flight recorder, feed the resulting stream
    through {!Obs.Window}, and emit a final {!Obs.Slo} verdict.

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
    bit-identical across runs: {!report_json} excludes wall time for
    exactly this reason. Errors are injected with probability
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
    and the property that lets {!Obs.Whatif} compute causal phase impacts
    exactly.

    Memory is bounded: window state is O(buckets) sketches, the ledger is
    O(classes x phases) sketch cells plus a fixed exemplar ring, and the
    engine metrics retain at most {!Metrics.raw_sample_cap} raw samples
    per timer, so replaying 10^4-10^6 requests does not grow storage with
    the request count ([record] opts into O(requests) what-if records). *)

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
  cfg : config;
  classes : mix list;
  total : int;  (** requests actually replayed *)
  errors : int;  (** injected failures *)
  served : (string * int) list;  (** serve-class name -> count, sorted *)
  ticks : int;  (** final logical tick (= total - 1) *)
  window : Obs.Window.t;
  verdict : Obs.Slo.report;  (** evaluated at the final tick *)
  metrics : Metrics.t;  (** the engine's metrics registry *)
  drift : Obs.Drift.registry option;  (** the monitors, when [monitor] *)
  alarms : Obs.Drift.alarm list;
      (** change-point alarms fired during the replay, tick order; [[]]
          when [monitor] is off. Deterministic: two identical replays
          alarm at identical ticks. *)
  ledger : Obs.Ledger.t;  (** per-phase cost accounting of the replay *)
  records : Obs.Whatif.record list;
      (** per-request what-if records in tick order; [[]] unless the
          replay ran with [record] *)
  wall_s : float;  (** real wall time of the replay (not in the JSON) *)
}

(** Latest journal run id per canonical DSL, in first-appearance order:
    passed to {!run} as [run_ids] so ledger exemplars can name the tuning
    run behind a slow request. *)
val run_ids_of_journal : Obs.Journal.entry list -> (string * string) list

(** Run the replay. [on_frame] (with [frame_every] ticks, default none)
    is called during the replay for live dashboards. [record] (default
    false) keeps per-request {!Obs.Whatif} records for causal what-if
    profiling - the one opt-in that grows with the request count.
    [run_ids] maps canonical DSL to journal run id for exemplars (see
    {!run_ids_of_journal}). Raises [Invalid_argument] on an empty mix or
    a non-positive request count or batch size. *)
val run :
  ?on_frame:(Obs.Window.t -> now:int -> unit) ->
  ?frame_every:int ->
  ?record:bool ->
  ?run_ids:(string * string) list ->
  config ->
  mix list ->
  result

(** Package a result as the {!Obs.Whatif.file} that [loadgen
    --ledger-out] writes and the [ledger]/[whatif] subcommands read. *)
val ledger_file : result -> Obs.Whatif.file

(** Human-readable summary: mix, serve counts, window dashboard, SLO
    verdict, throughput. *)
val render : result -> string

(** Machine-readable report for CI: config echo, class mix, serve counts,
    window-tail quantiles, the SLO verdict, the ledger report and (when
    monitoring) the drift-monitor summary with its alarms. Deterministic
    for a fixed seed (no wall times, no timestamps). *)
val report_json : result -> Obs.Json.t
