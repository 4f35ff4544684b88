(** Kernel roofline profiler: a global, disabled-by-default sink fed one
    {!sample} per kernel launch the autotuner evaluates (the adapter lives
    in [Autotune.Evaluator]), plus pure aggregations over samples.

    Recording is one atomic load when off, touches no RNG state, and never
    influences the evaluation itself, so tuning results are bit-identical
    with profiling on or off. Worker domains append under a mutex; every
    aggregation sorts, so reports are deterministic for a given sample
    multiset. *)

type sample = {
  arch : string;
  variant : string;  (** IR label of the evaluated program *)
  kernel : string;
  bound : string;  (** "dp", "issue", "memory" or "launch" *)
  t_dp : float;
  t_issue : float;
  t_mem : float;
  t_launch : float;
  model_s : float;  (** noise-free roofline time *)
  measured_s : float;  (** simulated measurement (model + codegen noise) *)
  dram_bytes : float;
  l2_bytes : float;
  occupancy : float;
}

val enabled : unit -> bool

val clear : unit -> unit

(** Append a sample (no-op when disabled). Domain-safe. *)
val record : sample -> unit

(** All samples in recording order. *)
val samples : unit -> sample list

(** [collect f]: run [f] with profiling enabled on a cleared sink; return
    its value with the samples. Restores the previous enabled state. *)
val collect : (unit -> 'a) -> 'a * sample list

(** The four roofline bounds, in reporting order. *)
val bounds : string list

type bucket = { bound : string; count : int; total_s : float }

(** Per-variant kernel-time buckets by roofline bound ("dp", "issue",
    "memory", "launch"); variants sorted, empty buckets omitted. *)
val variant_buckets : sample list -> (string * bucket list) list

type kernel_traffic = {
  k_kernel : string;
  k_variant : string;
  evals : int;
  total_dram_bytes : float;
  total_l2_bytes : float;
  mean_time_s : float;
}

(** Top [n] distinct (variant, kernel) pairs by summed DRAM traffic. *)
val top_dram : n:int -> sample list -> kernel_traffic list

(** Ten 0.1-wide occupancy bins over [0, 1] with counts. *)
val occupancy_histogram : sample list -> (string * int) list

type divergence = { n : int; mean_rel : float; max_rel : float }

(** Relative |measured/model - 1| statistics per architecture - how far
    the simulated measurement (including codegen noise) strays from the
    noise-free roofline prediction. *)
val divergence_by_arch : sample list -> (string * divergence) list

(** Human-readable report: per-variant bound buckets, top-[top] kernels by
    DRAM traffic, occupancy histogram, divergence per arch. *)
val render : ?top:int -> sample list -> string
