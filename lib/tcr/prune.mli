(** Search-space pruning - the extension proposed in the paper's conclusion
    ("further prune the autotuning search space ... where pruning does not
    impact quality of results"). A policy is a set of static filters over
    search points derived from GPU heuristics; the ablation benchmark shows
    the default policy removing ~80% of the space at under 2% quality
    loss. *)

type policy = {
  min_threads_per_block : int;
  max_threads_per_block : int;
  min_blocks : int;
  require_coalesced_output : bool;
      (** ThreadX must be the innermost output dimension *)
  dividing_unrolls_only : bool;
      (** reject unroll factors that leave epilogues *)
}

(** 32..512 threads, >= 8 blocks, coalesced stores, dividing unrolls. *)
val default : policy

val threads_per_block : Space.t -> Space.decomposition -> int
val num_blocks : Space.t -> Space.decomposition -> int
val output_coalesced : Space.t -> Space.decomposition -> bool
val point_ok : policy -> Space.t -> Space.point -> bool

(** Pruned view of one statement's space. *)
val enumerate : policy -> Space.t -> Space.point list

val count : policy -> Space.t -> int

(** Fraction of the space the policy removes, in [0, 1]. *)
val pruned_fraction : policy -> Space.t -> float
