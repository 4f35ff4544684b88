(** SURF - search using random forest (paper Algorithm 2) - and the
    baseline strategies it is compared against. The search minimizes an
    objective (simulated execution time) over a finite configuration pool:
    evaluate an initial random batch, fit the forest surrogate, then
    repeatedly evaluate the unevaluated pool positions the model predicts
    best and refit, until the evaluation budget is exhausted. *)

type 'a evaluation = { config : 'a; objective : float }

(** Surrogate explainability, built from the final refit: what the model
    learned, how well it predicted what it proposed, and what it pruned. *)
type 'a explain = {
  importance : float array;
      (** split-gain importance per encoded feature column, sums to 1 *)
  residuals : ('a * float * float) list;
      (** (config, predicted, measured) for every model-guided evaluation,
          in evaluation order - the surrogate's track record *)
  rivals : ('a * float * float) list;
      (** the unevaluated configurations the final model ranked best:
          (config, predicted objective, ensemble std) - what the search
          pruned, with the belief it pruned them on *)
}

type 'a result = {
  best : 'a evaluation;
  history : 'a evaluation list;  (** in evaluation order *)
  evaluations : int;
  pool_size : int;
  iterations : Obs.Search_log.iteration list;
      (** per-batch convergence telemetry (best-so-far, pool coverage,
          surrogate R-squared); empty for the non-iterative baselines *)
  explain : 'a explain option;
      (** [None] until a surrogate was ever fit (non-SURF strategies, or a
          budget exhausted by the initial random batch) *)
}

type config = {
  batch_size : int;  (** concurrent evaluations per iteration *)
  max_evals : int;  (** the n_max stopping criterion *)
  rivals : int;  (** rejected rivals kept on [explain] (default 10) *)
  forest : Forest.params;
}

(** Batch 10, 100 evaluations (the paper's budget), default forest. *)
val default_config : config

(** Evaluate the whole pool: the brute-force baseline of prior work. *)
val exhaustive : pool:'a array -> eval:('a -> float) -> 'a result

(** Uniform random search without replacement. *)
val random_search :
  Util.Rng.t -> pool:'a array -> eval:('a -> float) -> max_evals:int -> 'a result

(** Algorithm 2, over pool positions. [encode] maps a configuration to its
    binarized feature vector. It is called at most once per pool position:
    every position is encoded at the first refit, and none is when the
    initial random batch already spends the budget. Rows of unequal width
    raise [Invalid_argument].

    Raises on an empty pool; never evaluates more than [max_evals]
    configurations or the same pool position twice, even when [batch_size]
    exceeds the remaining budget. Positions, not values, are the unit: a
    pool that holds one configuration twice may see it evaluated twice.
    Each model-guided batch is the [batch_size] unevaluated positions with
    the lowest predictions, ties (and NaN, which sorts first) going to the
    lower position; the rivals are chosen the same way.

    [eval_batch], when given, evaluates each iteration's batch as a unit
    (the paper's "up to ten evaluations concurrently") and must return one
    objective per configuration, in input order; it defaults to the
    sequential [List.map eval]. Batch membership does not depend on the
    evaluator, so a pure parallel [eval_batch] yields a bit-identical
    result to the sequential default. *)
val surf :
  ?config:config ->
  ?eval_batch:('a list -> float list) ->
  Util.Rng.t ->
  pool:'a array ->
  encode:('a -> float array) ->
  eval:('a -> float) ->
  'a result

(** Best objective after each evaluation (non-increasing). *)
val convergence_curve : 'a result -> float list
