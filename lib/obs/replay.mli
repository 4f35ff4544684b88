(** The load replay's one artifact and the one fold over it.

    A [loadgen] replay records its request stream once, as JSONL: a
    {!header} line (the replay configuration, the SLO spec and the class
    table), then one {!record} line per request, written as soon as the
    request is served. Every report - the telemetry window, the final SLO
    verdict, the causal {!Ledger}, the {!Drift} alarms, the error and
    serve counts - is a pure {!fold} over that stream. The live replay
    feeds the fold as it runs; [slo], [ledger], [whatif] and [doctor
    --load] feed it from the file; so a report read back is byte-identical
    to the one the replay printed.

    Exact causal what-if profiling is the same fold again. A request's
    latency is [(sum of its base phase costs) * multiplier], where the
    multiplier bundles its jitter and degrade draws; {!latency} is the one
    place that formula lives. Scaling one phase's base cost by [f] and
    refolding reproduces the precise latency every request would have
    had, and so the true p50/p99/SLO impact of speeding that phase up -
    no sampling error, bit-identical across runs. *)

(** {2 The artifact} *)

(** One request class of the replay mix. *)
type request_class = {
  label : string;
  dsl : string;
  key : string;  (** canonical cache key under the engine's arch *)
  run_id : string option;  (** latest journal run of this DSL, if known *)
  weight : int;
}

(** The artifact's first line: everything the fold needs besides the
    records. *)
type header = {
  requests : int;
  seed : int;
  batch : int;
  error_rate : float;
  degrade : float;
  degrade_at : int;
  monitor : bool;  (** attach the two latency change-point monitors *)
  width : int;  (** window epoch width, in ticks; also the ledger slot *)
  buckets : int;  (** epochs in the window ring *)
  slo : Slo.spec;
  classes : request_class array;
}

(** One served request. Invariant: {!latency} of a record is the latency
    the replay observed. *)
type record = {
  rq_tick : int;
  rq_class : int;  (** index into [header.classes] *)
  rq_served : string;
      (** how the engine served it: ["tuned"], ["hit:memory"],
          ["hit:disk"] or ["deduplicated"] *)
  rq_ok : bool;
  rq_mult : float;  (** jitter x degrade multiplier *)
  rq_costs : (Ledger.phase * float) list;  (** base (unscaled) costs *)
}

(** [(sum of base costs) * multiplier], with [scale]'s phase cost
    multiplied by its factor. *)
val latency : ?scale:Ledger.phase * float -> record -> float

(** The artifact's lines, each ending in a newline. *)
val header_line : header -> string

val record_line : record -> string

(** Read a whole artifact: its header and its records in file order.
    [Error] names the line of a malformed or torn record, and flags an
    artifact whose record count disagrees with its header. *)
val load : string -> (header * record list, string) result

(** {2 The fold} *)

(** What a replay reports. *)
type summary = {
  header : header;
  total : int;  (** records folded *)
  errors : int;
  served : (string * int) list;  (** serve name -> count, sorted *)
  ticks : int;  (** tick of the last record *)
  window : Window.t;
  verdict : Slo.report;  (** evaluated at the last tick *)
  ledger : Ledger.t;
  drift : Drift.registry option;  (** the monitors, when [monitor] *)
  alarms : Drift.alarm list;
      (** change-point alarms in tick order; [[]] without monitors *)
}

type t

(** A fresh fold. With [scale], every record's cost in that phase is
    multiplied by the factor (a what-if scenario). The monitors skip the
    first [width] ticks, so cold-tune warmup stays out of their
    reference. *)
val start : ?scale:Ledger.phase * float -> header -> t

val step : t -> record -> unit

(** The live window, for dashboards during a replay. *)
val window : t -> Window.t

val finish : t -> summary
val fold : ?scale:Ledger.phase * float -> header -> record list -> summary

(** Fold an artifact without holding its records; errors as {!load}. *)
val summarize : string -> (summary, string) result

(** {2 What-if} *)

(** Outcome of scaling one phase by one factor. Deltas are baseline minus
    scenario (positive = the speedup helped). *)
type scenario = {
  sc_phase : Ledger.phase;
  sc_factor : float;
  sc_p50_s : float;
  sc_p99_s : float;
  sc_delta_p50_s : float;
  sc_delta_p99_s : float;
  sc_verdict : string;  (** severity of the final SLO verdict's worst alert *)
}

(** All scenarios of one phase, plus its causal impact: the p50/p99
    improvement at the {e most aggressive} (smallest) factor. *)
type entry = {
  en_phase : Ledger.phase;
  en_impact_p50_s : float;
  en_impact_p99_s : float;
  en_scenarios : scenario list;  (** factor descending, as given *)
}

type ranking = {
  wr_requests : int;
  wr_factors : float list;
  wr_baseline_p50_s : float;
  wr_baseline_p99_s : float;
  wr_baseline_verdict : string;
  wr_ranking : entry list;
      (** impact on p99 descending; ties by pipeline order *)
}

(** Fold the records once per (observed phase, factor), plus once
    unscaled for the baseline. [factors] defaults to [[0.5; 0.25; 0.1]].
    Phases that never appear in any record are omitted from the ranking.
    Raises [Invalid_argument] on an empty record list, or on a factor
    that is not finite and positive. *)
val whatif : ?factors:float list -> header -> record list -> ranking

(** Top-ranked phase (largest p99 impact). *)
val top : ranking -> Ledger.phase option

val whatif_json : ranking -> Json.t
val render_whatif : ranking -> string
