(** Constant-memory streaming quantile sketch with a proven relative-error
    bound (the DDSketch log-bucket scheme).

    Values are assigned to geometric buckets [(gamma^(i-1), gamma^i]] with
    [gamma = (1+alpha)/(1-alpha)]; a bucket's midpoint estimate
    [2*gamma^i/(gamma+1)] is then within relative error [alpha] of every
    value the bucket can hold. Storage is one integer per occupied bucket -
    O(log(max/min)/alpha) regardless of how many values are added - with a
    hard [max_buckets] cap enforced by collapsing the lowest buckets.

    Error bound: for a sketch holding samples [x_0 <= ... <= x_(n-1)]
    (all above the zero-bucket floor, no collapse), [quantile t p] with rank
    [r = p/100*(n-1)] returns [q] with
    [(1-alpha) * x_(floor r) <= q <= (1+alpha) * x_(ceil r)].

    Each sketch also keeps exact streaming moments - count, total, min,
    max and a Welford mean/variance - so it is the one streaming cell the
    metrics, the ledger and the drift monitors build on.

    Sketches merge exactly: bucket counts are integers, so merging is
    associative and commutative up to the floating-point [total] and
    moments (combined with Chan et al.'s pairwise formula), and quantiles
    of a merged sketch are bit-identical regardless of merge order. No
    wall-clock reads, no RNG draws. Not domain-safe; callers serialize
    access (see {!Service.Metrics}). *)

type t

(** [create ()] with [alpha] relative accuracy (default 0.01) and at most
    [max_buckets] occupied buckets (default 2048). Raises
    [Invalid_argument] unless [0 < alpha < 1] and [max_buckets >= 2]. *)
val create : ?alpha:float -> ?max_buckets:int -> unit -> t

val alpha : t -> float

(** Independent deep copy. *)
val copy : t -> t

val add : t -> float -> unit

val count : t -> int

(** Sum of all added values. *)
val total : t -> float

(** Welford running mean; [nan] on an empty sketch and [total / count]
    once the total is not finite (inf when a value is inf), like
    {!Util.Stats.mean}. *)
val mean : t -> float

(** Population standard deviation from the Welford moments, like
    {!Util.Stats.stddev}; [nan] on an empty sketch. *)
val std : t -> float

val min_value : t -> float
val max_value : t -> float

(** Occupied buckets, including the zero bucket when populated. *)
val bucket_count : t -> int

(** True once the [max_buckets] cap has forced low buckets to collapse;
    quantiles near 0 may then exceed the error bound. *)
val collapsed : t -> bool

(** [merge a b] is a fresh sketch equivalent to adding both inputs'
    values (moments up to floating-point rounding). Raises
    [Invalid_argument] when the accuracies differ. *)
val merge : t -> t -> t

(** [quantile t p] for [p] in [0, 100] (the {!Util.Stats.percentile}
    convention), clamped into [[min_value, max_value]]. [nan] on an empty
    sketch; raises [Invalid_argument] outside [0, 100]. *)
val quantile : t -> float -> float

(** Occupied buckets as [(upper_bound, count)] in ascending bound order,
    zero bucket (bound: the floor) first. Cumulating the counts yields a
    Prometheus-style histogram exposition (see {!Export}). *)
val buckets : t -> (float * int) list
