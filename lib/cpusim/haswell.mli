(** CPU performance model for the paper's host baseline (Intel Haswell).
    Sequential execution of the TCR loop nests is modeled per statement as
    a roofline: compute time from an achieved flops-per-cycle rate
    (degraded for non-contiguous references) versus memory time from the
    streamed bytes of cache-exceeding tensors. The OpenMP path adds
    outer-loop parallelization (bounded by the outermost parallel extent)
    and the vectorization bonus of hand-tuned kernels. *)

type t = {
  name : string;
  clock_ghz : float;
  cores : int;
  flops_per_cycle : float;  (** achieved by compiled scalar loop nests *)
  vector_bonus : float;  (** extra factor for hand-tuned/OpenMP code *)
  l1_bytes : int;
  l2_bytes : int;
  llc_bytes : int;
  mem_bw_gbs : float;  (** all cores *)
  single_core_bw_gbs : float;
  parallel_efficiency : float;
}

val haswell : t

(** Streamed DRAM bytes of one statement, including cache-aware re-read
    accounting for tensors larger than the last-level cache. *)
val op_bytes : t -> Tcr.Ir.t -> Tcr.Ir.op -> int

(** In [0.6, 1.0]: share of references contiguous under the loop order. *)
val locality_factor : Tcr.Ir.op -> float

(** One evaluation of the whole program, single core, scalar code. *)
val sequential_time : ?cpu:t -> Tcr.Ir.t -> float

(** Vectorized multicore evaluation (defaults to all 4 cores). *)
val openmp_time : ?cpu:t -> ?cores:int -> Tcr.Ir.t -> float

val gflops_of_time : Tcr.Ir.t -> float -> float
