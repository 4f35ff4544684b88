(** Summary statistics used by the autotuner reports and SURF tests. *)

(** Arithmetic mean; [nan] on the empty list. *)
val mean : float list -> float

(** Population variance; 0 for fewer than two samples. *)
val variance : float list -> float

val stddev : float list -> float

(** Raise [Invalid_argument] on the empty list. *)
val min_list : float list -> float

val max_list : float list -> float

(** [percentile p xs]: the [p]-th percentile (0 <= p <= 100) with linear
    interpolation between order statistics; [percentile 0.0] is the
    minimum, [50.0] the median, [100.0] the maximum. [nan] on the empty
    list; raises [Invalid_argument] when [p] is outside [0, 100]. *)
val percentile : float -> float list -> float

(** Standard normal CDF (Abramowitz-Stegun erf approximation, absolute
    error ~1.5e-7). *)
val normal_cdf : float -> float

type mann_whitney = {
  u : float;  (** U statistic of the second sample *)
  z : float;  (** normal approximation with tie correction *)
  p_greater : float;  (** one-sided: second sample stochastically greater *)
  p_less : float;
  p_two_sided : float;
}

(** [mann_whitney a b]: rank-sum test of the two samples with average ranks
    and tie-corrected variance. Raises [Invalid_argument] on an empty
    sample. All-tied inputs give [z = 0] and one-sided p-values of 0.5. *)
val mann_whitney : float list -> float list -> mann_whitney

(** [bootstrap_ratio_ci rng ~base ~cur]: percentile-bootstrap confidence
    interval (default 95%, 1000 resamples) on median([cur])/median([base]).
    Deterministic for a given [rng] seed. Raises on empty samples. *)
val bootstrap_ratio_ci :
  ?iters:int -> ?confidence:float -> Rng.t -> base:float list -> cur:float list ->
  float * float

type comparison = {
  n_base : int;
  n_cur : int;
  median_base : float;
  median_cur : float;
  ratio : float;  (** median_cur / median_base *)
  p_slower : float;  (** one-sided Mann-Whitney p: cur greater (slower) *)
  ci_low : float;  (** bootstrap CI on the ratio of medians *)
  ci_high : float;
  regression : bool;  (** significant slowdown beyond [min_ratio] *)
  improvement : bool;
}

(** [compare_samples ~base ~cur ()]: the regression-gate verdict. A
    regression requires the median ratio to exceed [min_ratio] (default
    1.10) {e and} statistical evidence: one-sided Mann-Whitney p below
    [alpha] (default 0.01) with the bootstrap CI of the ratio excluding
    1.0. When the sample sizes are too small for the U test to ever reach
    [alpha] (min attainable p = 1/C(n1+n2,n1)), a strict dominance rule is
    used instead (every [cur] sample above every [base] sample).
    Deterministic for a fixed [seed]. Raises on empty samples. *)
val compare_samples :
  ?alpha:float ->
  ?min_ratio:float ->
  ?iters:int ->
  ?seed:int ->
  base:float list ->
  cur:float list ->
  unit ->
  comparison

(** Coefficient of determination of [predicted] against [actual]; 1 for a
    perfect fit, 0 for the mean predictor. Raises on length mismatch. *)
val r_squared : actual:float list -> predicted:float list -> float
