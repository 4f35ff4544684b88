(** Mapping surrogate internals back to the vocabulary of the search
    space: named feature importances and residual summaries for the
    {!Search.explain} payload. *)

(** Fold per-column split-gain importances ({!Forest.importance}) back
    through the schema onto named parameters, descending by weight (ties
    by name). Grouping preserves the sum: columns summing to 1 yield
    named importances summing to 1. Raises on a width mismatch. *)
val named_importances : Feature.schema -> float array -> (string * float) list

(** R-squared of predicted vs measured over a search's model-guided
    evaluations; [None] with fewer than two residuals. *)
val residual_r2 : ('a * float * float) list -> float option

(** The [n] evaluations the model was most optimistic about (largest
    measured - predicted). *)
val worst_overpredictions :
  n:int -> ('a * float * float) list -> ('a * float * float) list
