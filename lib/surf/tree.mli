(** Extremely randomized regression tree (Geurts, Ernst & Wehenkel 2006),
    the base learner of SURF's surrogate: at each node, K candidate splits
    with uniformly random thresholds are drawn and the best variance
    reduction kept. Randomized thresholds let the ensemble handle the
    one-hot columns of binarized decomposition parameters without
    overfitting. The fit works in place and calls no libm function. *)

(** A fitted tree as flat node arrays, node [0] the root. Node [n] is a
    leaf predicting [value.(n)] when [feature.(n) < 0]. Otherwise a row
    goes to [left.(n)] when its [feature.(n)] entry is at most
    [threshold.(n)], and to [right.(n)] when it is not (NaN included);
    [gain.(n)] is the split's SSE reduction, for importances. *)
type t = private {
  feature : int array;
  threshold : float array;
  value : float array;
  gain : float array;
  left : int array;
  right : int array;
}

type params = {
  k_candidates : int;  (** splits drawn per node *)
  min_samples : int;  (** do not split smaller nodes *)
  max_depth : int;
}

(** Fit on rows [x] and targets [y]. Raises on an empty training set. *)
val fit : ?params:params -> Util.Rng.t -> float array array -> float array -> t

(** {!fit} on the training set held column by column: [cols.(j).(i)] is
    row [i]'s feature [j]. It draws from the generator exactly as {!fit}
    does on the same rows. *)
val fit_columns : ?params:params -> Util.Rng.t -> float array array -> float array -> t

(** Rows [x] column by column, as {!fit_columns} takes them. *)
val columns : float array array -> float array array

(** The leaf a feature vector reaches. *)
val leaf : t -> float array -> int

val predict : t -> float array -> float
val depth : t -> int
val num_leaves : t -> int

(** Add every split's variance-reduction gain onto [acc.(feature)], in
    preorder - the per-tree half of split-gain feature importance. *)
val add_importance : t -> float array -> unit
