(** Cross-artifact root-cause correlator: the "drift doctor".

    {!diagnose} reads up to three artifact families - a tuning journal
    ({!Journal}), a benchmark artifact ({!Bench_log}) and a [loadgen]
    replay folded into its {!Replay.summary} (SLO verdict, {!Drift}
    alarms, serve counts, {!Ledger}) - aligns them by canonical key, arch
    fingerprint and lineage hashes, and emits a machine-readable health
    report.

    Findings carry stable [DRxxx] codes:

    - [DR001] (critical) - the SLO verdict pages.
    - [DR002] (critical) - a drift monitor alarmed ("p99 shifted at tick
      T").
    - [DR003] (warning) - the SLO verdict tickets.
    - [DR010] (warning) - a canonical key was tuned under two or more
      arch fingerprints (device identity changed under the cache).
    - [DR011] (critical/warning) - two runs of the same key on the same
      arch disagree on the winning lineage; the finding names the
      earliest diverging stage ({!Journal.first_divergence}) and is
      critical when the later winner is slower by more than 25%.
    - [DR012] (warning) - surrogate mispredict (mean
      [|predicted/measured - 1|] over a run's model-guided variants)
      above 0.5 on the latest run of a key.
    - [DR013] (warning) - cold tunes exceed the number of request
      classes: the canonical cache re-tuned something it had already
      seen (eviction / capacity loss).
    - [DR020] (warning) - a bench-artifact service quantile already
      exceeds the SLO latency budget (cross-artifact corroboration).
    - [DR030] (info) - the journal had undecodable (torn/corrupt) lines.
    - [DR040] (info) - the {!Ledger} report's dominant phase: the first
      candidate for the next perf PR.
    - [DR041] (warning) - scheduler queue wait owns more than 25% of
      modeled serve time (capacity, not phase work, is the bottleneck).
    - [DR042] (warning) - a cold-class phase p99 in the ledger is more
      than 2x the committed [ledger] bench experiment's
      ["phase:<name>"] quantile (the phase regressed vs the artifact).
    - [DR043] (info) - the exemplar jump: names the worst request's
      tick, serve class, dominant phase and journal run id, so one
      [explain]/[history --since] lands on the exact tuning run behind
      the slowest p99 bucket.
    - [DR050] (critical) - a journaled run's winner failed translation
      validation ([semantic_ok = Some false]): the tuned kernel does not
      compute its contraction, regardless of how fast it is.

    Critical findings carry ranked suspects - [semantic-failure],
    [arch-change], [kernel-regression], [surrogate-drift],
    [cache-eviction], [queue-wait], [phase-regression], falling back to
    [serving-regression] when no journal-side cause scores - with
    scores in [0, 1] derived from the corroborating findings.

    Everything here is pure over its inputs: no wall-clock reads, no RNG,
    so the same artifacts produce a bit-identical report. *)

type severity = Critical | Warning | Info

type finding = {
  code : string;  (** stable [DRxxx] id *)
  severity : severity;
  subject : string;  (** key label, monitor name, or experiment *)
  stage : string option;  (** earliest diverging lineage stage, if known *)
  suspects : (string * float) list;  (** ranked causes, score descending *)
  detail : string;
}

type inputs = {
  journal : Journal.entry list;
  discarded : int;  (** undecodable journal lines *)
  bench : Bench_log.artifact option;
  replay : Replay.summary option;
      (** a [loadgen] replay: its SLO verdict, drift alarms, serve counts
          and ledger *)
}

val no_inputs : inputs

type report = {
  runs : int;
  keys : int;  (** distinct canonical keys in the journal *)
  archs : int;  (** distinct arch fingerprints in the journal *)
  findings : finding list;  (** severity-sorted, stable order *)
}

val diagnose : inputs -> report

val has_critical : report -> bool
val to_json : report -> Json.t
val render : report -> string
