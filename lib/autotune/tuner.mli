(** The end-to-end Barracuda pipeline (Figure 1): OCTOPI variants -> merged
    TCR programs -> decision-algorithm search space -> SURF. A candidate
    fixes one OCTOPI variant per statement and one search-space point per
    generated kernel; the SURF pool is the full cross-product space when
    small enough, otherwise a uniform sample of it (Algorithm 2 takes an
    explicit configuration pool as input). *)

type benchmark = {
  label : string;
  statements : Octopi.Contraction.t list;
}

type candidate = {
  variant_ids : int list;  (** chosen OCTOPI variant per statement *)
  ir : Tcr.Ir.t;
  points : Tcr.Space.point list;
  features : Surf.Feature.features;
}

type result = {
  benchmark : benchmark;
  arch : Gpusim.Arch.t;
  best : candidate;
  best_report : Gpusim.Gpu.report;
  time_per_eval_s : float;  (** one evaluation, transfers amortized *)
  gflops : float;
  search_seconds : float;  (** modeled empirical search cost *)
  evaluations : int;
  pool_size : int;
  total_space : int;  (** exact size of the full cross-product space *)
  variant_count : int;
  convergence : float list;
  iterations : Obs.Search_log.iteration list;
      (** SURF per-iteration telemetry (see {!Obs.Search_log}); empty for
          the non-iterative strategies and for cache-restored results *)
  importances : (string * float) list;
      (** named-parameter split-gain importances of the final surrogate
          ({!Surf.Explain.named_importances}), descending; [[]] when no
          surrogate was fit *)
  explain : candidate Surf.Search.explain option;
      (** surrogate post-mortem: residuals and rejected rivals *)
  gate : Check.Verify.gate_stats;
      (** what the static pre-evaluation gate saw (points checked/rejected,
          error codes); {!Check.Verify.empty_stats} when the result was
          restored from an artifact *)
  semantic : Check.Semantic.verdict option;
      (** translation validation of the winner ({!Check.Semantic.validate});
          [None] when {!Check.Semantic.cost} exceeded
          {!Check.Semantic.gate_budget} or the result was restored from an
          artifact *)
}

val benchmark_of_dsl : label:string -> string -> benchmark

(** One merged IR plus its per-statement spaces per joint variant choice. *)
type variant_choice = {
  ids : int list;
  v_ir : Tcr.Ir.t;
  spaces : Tcr.Space.program_space;
}

val variant_choices : benchmark -> variant_choice list
val total_space : variant_choice list -> int
val candidate_of : variant_choice -> Tcr.Space.point list -> candidate

(** Build the SURF pool, optionally filtered by a pruning policy and a
    legality [gate] (run after the policy, so pruned points are never
    gate-checked). *)
val build_pool :
  ?pool_per_variant:int ->
  ?prune:Tcr.Prune.policy ->
  ?gate:(Tcr.Space.t -> Tcr.Space.point -> bool) ->
  Util.Rng.t ->
  variant_choice list ->
  candidate array

type strategy = Surf_search of Surf.Search.config | Random_search | Exhaustive

(** Ops of the given choices whose schedule space is empty, as
    ["op1(C)"], each named once in first-seen order. *)
val empty_ops : variant_choice list -> string list

(** Raised by {!tune} before any pool is built when no variant choice has
    a search point: each has an op whose schedule space is empty, as a
    rank-1 output's is (tx and bx need two distinct output indices). The
    message names each such op, as ["op1(C)"]. *)
exception Empty_space of string

(** [batch_map], when given, executes the pure measurement thunks of each
    SURF iteration batch (see {!Evaluator.objective_batch}) - the hook a
    multi-domain scheduler plugs into. Results are bit-identical to the
    sequential default for any order-preserving executor.

    Two gates always run. The static gate verifies every candidate point
    with {!Check.Verify.space_point} before it can enter the pool, so
    illegal recipes are never lowered or measured. The decision algorithm
    only proposes legal points, so on its own spaces the gate rejects
    nothing and draws nothing from [rng]; points from artifacts or
    hand-written recipes are where it bites. If the gate rejects every
    candidate, tuning falls back to the ungated pool (with a warning)
    rather than failing. A program without any search point raises
    {!Empty_space} instead.

    The semantic gate runs translation validation
    ({!Check.Semantic.validate}) on the winner after the search settles,
    with its own fixed seed - no draws from the tuner RNG. The verdict
    lands in the result and (as [semantic_ok]) in the journal entry;
    validation is skipped when {!Check.Semantic.cost} exceeds
    {!Check.Semantic.gate_budget}.

    [journal_key], [journal_seed] and [journal_net] annotate the
    {!Obs.Journal} entry (canonical problem key, RNG seed, contraction-order
    provenance for network-originated tunes) when the flight recorder is on;
    they never influence the tune itself. *)
val tune :
  ?strategy:strategy ->
  ?reps:int ->
  ?pool_per_variant:int ->
  ?prune:Tcr.Prune.policy ->
  ?batch_map:((unit -> Gpusim.Gpu.report) list -> Gpusim.Gpu.report list) ->
  ?journal_key:string ->
  ?journal_seed:int ->
  ?journal_net:Obs.Journal.network ->
  rng:Util.Rng.t ->
  arch:Gpusim.Arch.t ->
  benchmark ->
  result

(** The tuned CUDA translation unit. *)
val emit_cuda : result -> string

(** CPU baselines use the variant minimizing CPU time (strength reduction
    benefits the sequential code too). *)
val best_sequential_time : benchmark -> float

val best_openmp_time : ?cores:int -> benchmark -> float

(** Flops of the cheapest variant: what a CPU baseline performs. *)
val min_variant_flops : benchmark -> int
