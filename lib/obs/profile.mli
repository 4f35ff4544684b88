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
  variant : string;
      (** the evaluated candidate's variant choice as the journal names it
          ("v3"), or the IR label when the evaluator was given no ids *)
  kernel : string;
  bound : string;  (** "dp", "issue", "memory" or "launch" *)
  t_dp : float;
  t_issue : float;
  t_mem : float;
  t_launch : float;
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

(** Human-readable report: per-variant bound buckets, the top ten kernels
    by DRAM traffic and the occupancy histogram. *)
val render : sample list -> string
