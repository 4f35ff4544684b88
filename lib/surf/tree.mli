(** Extremely randomized regression tree (Geurts, Ernst & Wehenkel 2006),
    the base learner of SURF's surrogate: at each node, K candidate splits
    with uniformly random thresholds are drawn and the best variance
    reduction kept. Randomized thresholds let the ensemble handle the
    one-hot columns of binarized decomposition parameters without
    overfitting. *)

type node =
  | Leaf of float
  | Split of {
      feature : int;
      threshold : float;
      gain : float;  (** SSE reduction of this split, for importances *)
      left : node;
      right : node;
    }

type t = { root : node }

type params = {
  k_candidates : int;  (** splits drawn per node *)
  min_samples : int;  (** do not split smaller nodes *)
  max_depth : int;
}

(** Fit on rows [x] and targets [y]. Raises on an empty training set. *)
val fit : ?params:params -> Util.Rng.t -> float array array -> float array -> t

val predict : t -> float array -> float
val depth : t -> int
val num_leaves : t -> int

(** Add every split's variance-reduction gain onto [acc.(feature)] - the
    per-tree half of split-gain feature importance. *)
val add_importance : t -> float array -> unit
