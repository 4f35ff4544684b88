(** TreeSA-style simulated annealing over contraction trees: start from
    {!Greedy.optimize}, random-walk through local rotations with
    Metropolis acceptance under a rising inverse temperature, return the
    best tree ever visited - so the result never scores worse than greedy
    at any seed. Deterministic for a fixed seed: all randomness flows
    through the caller's generator. *)

type config = {
  sa_iters : int;  (** total proposals *)
  beta0 : float;  (** initial inverse temperature *)
  beta1 : float;  (** final inverse temperature *)
}

(** [{sa_iters = 4000; beta0 = 0.1; beta1 = 10.0}]. *)
val default_config : config

val optimize :
  ?config:config -> ?score:Tree.score_fn -> rng:Util.Rng.t -> Network.t -> Tree.t
