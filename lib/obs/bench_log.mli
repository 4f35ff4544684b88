(** Benchmark artifacts: the machine-readable output of [bench/main.exe].

    One {!artifact} holds one harness run: per-experiment wall time, raw
    per-run samples and OLS estimates (Bechamel micro-suite), service
    latency quantiles, and pipeline span timings aggregated from the
    {!Trace} events of the run. Artifacts serialize to JSON
    ([BENCH_<name>.json]), parse back losslessly ({!parse} of {!render} is
    the identity), and compare against a committed baseline through the
    statistical gate of {!Util.Stats.compare_samples} - Mann-Whitney over
    raw samples plus a bootstrap CI on the ratio of medians. *)

val schema_version : int

type quantiles = { q50 : float; q90 : float; q99 : float }

type span_agg = {
  cat : string;  (** trace category, e.g. "surf" *)
  span : string;  (** span name, e.g. "surf.iteration" *)
  count : int;
  total_s : float;
}

type experiment = {
  name : string;
  wall_s : float;
  samples_s : float list;  (** raw per-run samples; [[]] when unavailable *)
  ols_s : float option;  (** Bechamel OLS estimate of one run, in seconds *)
  quantiles : (string * quantiles) list;  (** named latency quantiles *)
  spans : span_agg list;
}

type artifact = {
  version : int;
  suite : string;
  experiments : experiment list;
}

(** Count and summed duration per (category, name), sorted by category
    then name: a projection of {!Trace.accounts}. *)
val span_totals : Trace.event list -> span_agg list

val make : ?suite:string -> experiment list -> artifact

(** Pretty-printed JSON document (trailing newline included). *)
val render : artifact -> string

(** Inverse of {!render}; [Error] on invalid JSON or a missing field. *)
val parse : string -> (artifact, string) result

val write : string -> artifact -> unit
val read : string -> (artifact, string) result

type status = Regression | Improvement | Same | No_baseline

type delta = {
  exp : string;
  status : status;
  comparison : Util.Stats.comparison option;  (** [None] without a baseline entry *)
}

(** Compare each current experiment against the same-named baseline entry,
    on raw samples when present, else on the single wall time (where the
    comparator's small-n dominance rule applies). [min_ratio] defaults to
    a generous 1.5: a regression must be both statistically significant
    and at least that much slower. *)
val compare_artifacts :
  ?alpha:float ->
  ?min_ratio:float ->
  baseline:artifact ->
  current:artifact ->
  unit ->
  delta list

(** [true] iff no experiment regressed (missing baselines do not fail). *)
val gate : delta list -> bool

(** Delta table for humans, one row per experiment. *)
val render_deltas : delta list -> string
