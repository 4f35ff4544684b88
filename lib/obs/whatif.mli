(** Exact causal what-if profiling over a recorded loadgen replay.

    Coz-style causal profiling asks "what would end-to-end latency do if
    phase X were f times cheaper?" and answers it on real systems by
    statistical sampling. Our replays are deterministic with modeled
    latencies, so we can answer it {e exactly}: every request's latency is
    [(sum of per-phase base costs) * multiplier] where the multiplier
    bundles the request's jitter and degrade draws. Scaling one phase's
    base cost by [f] and re-summing reproduces the precise latency that
    request would have had, and replaying the whole stream through a fresh
    {!Sketch} + {!Window} + {!Slo} evaluation yields the true dp50 / dp99
    / SLO-verdict impact of speeding that phase up - no sampling error, no
    run-to-run noise, bit-identical across runs.

    The ranking this produces is the decision input for ROADMAP item 5:
    it names the phase whose speedup moves tail latency most. *)

(** One recorded request: the base (unscaled) per-phase costs, the
    combined jitter x degrade multiplier, and its replay position.
    Invariant: [(sum of rq_costs) *. rq_mult] is the latency the original
    replay observed. *)
type record = {
  rq_tick : int;
  rq_class : Ledger.serve_class;
  rq_ok : bool;
  rq_mult : float;
  rq_costs : (Ledger.phase * float) list;
}

(** Outcome of scaling one phase by one factor and replaying. Deltas are
    baseline minus scenario (positive = the speedup helped). *)
type scenario = {
  sc_phase : Ledger.phase;
  sc_factor : float;
  sc_p50_s : float;
  sc_p99_s : float;
  sc_delta_p50_s : float;
  sc_delta_p99_s : float;
  sc_verdict : string;  (** final-window SLO verdict, ["-"] without a spec *)
}

(** All scenarios of one phase, plus its causal impact: the p50/p99
    improvement at the {e most aggressive} (smallest) factor. *)
type entry = {
  en_phase : Ledger.phase;
  en_impact_p50_s : float;
  en_impact_p99_s : float;
  en_scenarios : scenario list;  (** factor descending, as given *)
}

type report = {
  wr_requests : int;
  wr_factors : float list;
  wr_baseline_p50_s : float;
  wr_baseline_p99_s : float;
  wr_baseline_verdict : string;
  wr_ranking : entry list;
      (** impact on p99 descending; ties by pipeline order *)
}

(** Replay the records once per (observed phase, factor), plus once
    unscaled for the baseline. [factors] defaults to [[0.5; 0.25; 0.1]]
    and must be positive; [width]/[buckets] shape the {!Window} the
    optional [slo] is evaluated against at the last record's tick.
    Phases that never appear in any record are omitted from the ranking.
    Raises [Invalid_argument] on an empty record list or bad factors. *)
val run :
  ?factors:float list ->
  ?slo:Slo.spec ->
  width:int ->
  buckets:int ->
  record list ->
  report

(** Top-ranked phase (largest p99 impact). *)
val top : report -> Ledger.phase option

val report_json : report -> Json.t
val render : report -> string

(* ------------------------------------------------------------------ *)
(* Replay file *)

(** What [loadgen --ledger-out] writes and the [whatif] / [ledger] CLI
    subcommands read back: enough to re-derive the ledger view and run
    what-if scenarios without re-running the engine. *)
type file = {
  f_requests : int;
  f_seed : int;
  f_width : int;  (** window width the replay used *)
  f_buckets : int;
  f_slo : Slo.spec option;
  f_ledger : Ledger.report;
  f_records : record list;
}

val file_json : file -> Json.t
val file_of_json : Json.t -> (file, string) result
