(** Deterministic splitmix64 pseudo-random number generator.

    All stochastic components of Barracuda draw from an explicit generator so
    that end-to-end runs (tensor data, SURF sampling, tree randomization,
    simulated noise) are reproducible. *)

type t

(** [create seed] builds a generator from an integer seed. *)
val create : int -> t

(** [split t] derives a statistically independent stream, advancing [t]. *)
val split : t -> t

(** 62 pseudo-random non-negative bits. *)
val bits : t -> int

(** [int t bound] is uniform in [0, bound). Raises if [bound <= 0]. *)
val int : t -> int -> int

(** [float t bound] is uniform in [0, bound). *)
val float : t -> float -> float

(** [float_range t lo hi] is uniform in [lo, hi). *)
val float_range : t -> float -> float -> float

(** Standard normal deviate (Box-Muller). *)
val gaussian : t -> float

(** Fisher-Yates shuffle of a fresh list. *)
val shuffle : t -> 'a list -> 'a list

(** [sample_without_replacement t k arr]: [k] distinct elements of [arr].
    Raises if [k] exceeds the array length. *)
val sample_without_replacement : t -> int -> 'a array -> 'a array

(** Uniform choice. Raise on empty input. *)
val pick : t -> 'a array -> 'a

val pick_list : t -> 'a list -> 'a
