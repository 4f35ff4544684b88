(** Random-forest surrogate: an ensemble of extremely randomized trees (the
    "randomized trees" model of Section V). Prediction is the ensemble
    mean. *)

type t

type params = {
  n_trees : int;
  tree_params : Tree.params option;
}

(** 24 trees with default tree parameters. *)
val default_params : params

val fit : ?params:params -> Util.Rng.t -> float array array -> float array -> t
val predict : t -> float array -> float

(** [predict_below t x ~cutoff] is [predict t x], unless an exact lower
    bound on that reaches [cutoff] before every tree is summed: then it is
    the bound, at least [cutoff] and at most [predict t x]. So a value
    below [cutoff] is always the prediction. When some leaf is not finite
    there is no bound, and every tree is summed. *)
val predict_below : t -> float array -> cutoff:float -> float

(** Ensemble standard deviation: a crude uncertainty proxy. *)
val predict_std : t -> float array -> float

(** Split-gain importance per feature column, over every split of every
    tree, normalized to sum to 1 (all zeros when no tree ever split).
    [dims] is the feature-vector width the forest was trained on. *)
val importance : t -> dims:int -> float array
