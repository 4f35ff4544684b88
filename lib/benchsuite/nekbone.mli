(** Nekbone mini-app (Section VI): a conjugate-gradient solve over a
    spectral-element operator whose computational core is the pair of
    contractions local_grad3 (Lg3) and local_grad3t (Lg3t), at order
    12x12x12 batched over elements.

    The functional side runs an actual CG iteration over the kernel-IR
    executor, solving [A x = b] with [A = lg3t(G o lg3 x) + m x] (symmetric
    positive definite for positive geometry G and mass m). The performance
    side assembles per-iteration times from the tuned kernels plus
    bandwidth-bound auxiliary work. *)

type problem = { p : int; elems : int }

(** Order 12, 512 elements. *)
val default : problem

val field_shape : problem -> Tensor.Shape.t
val field_points : problem -> int
val lg3_benchmark : problem -> Autotune.Tuner.benchmark
val lg3t_benchmark : problem -> Autotune.Tuner.benchmark

(** Lg3 and Lg3t merged into one six-statement program - the joint tuning
    of the paper's Section VIII outlook. *)
val joint_benchmark : problem -> Autotune.Tuner.benchmark

type operator = {
  problem : problem;
  d : Tensor.Dense.t;  (** p x p differentiation matrix *)
  geometry : Tensor.Dense.t array;  (** positive per-direction diagonals *)
  mass : float;
  lg3_ir : Tcr.Ir.t;
  lg3_points : Tcr.Space.point list;
  lg3t_ir : Tcr.Ir.t;
  lg3t_points : Tcr.Space.point list;
}

(** Build the operator; kernels default to the first point of each space
    unless tuned points are supplied. *)
val make_operator :
  ?rng:Util.Rng.t ->
  ?lg3_points:Tcr.Space.point list ->
  ?lg3t_points:Tcr.Space.point list ->
  problem ->
  operator

(** [w = lg3t (G o lg3 u) + mass * u], executed through the kernel IR. *)
val apply : operator -> Tensor.Dense.t -> Tensor.Dense.t

type cg_stats = {
  iterations : int;
  residuals : float list;  (** ||r|| per iteration, oldest first *)
  converged : bool;
}

val cg_solve :
  ?tol:float -> ?max_iter:int -> operator -> Tensor.Dense.t -> Tensor.Dense.t * cg_stats

(** Per-iteration auxiliary streaming (geometry scaling + CG vector ops). *)
val aux_bytes : problem -> int

(** Share of sequential CPU time in the contractions (paper: ~60%). *)
val contraction_fraction_cpu : operator -> float

val gpu_iter_time :
  Gpusim.Arch.t -> lg3_kernel_time:float -> lg3t_kernel_time:float -> problem -> float

val cpu_iter_time : cores:int -> operator -> float
val gflops_of_iter_time : operator -> float -> float
