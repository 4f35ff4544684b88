(** OpenACC compilation model (Section VI-B). Three GPU code-generation
    strategies over the same TCR program:

    - {e naive}: directives with no decomposition guidance - the compiler
      gangs the outermost parallel loop and vectors the innermost, leaving
      a narrow 1-D block and everything else serial;
    - {e optimized}: Barracuda's tuned decomposition as gang/vector clauses
      plus scalar replacement, but no permutation or unroll tuning;
    - Barracuda itself additionally tunes unrolling (evaluated by
      {!Autotune}, not here).

    Both strategies carry a generated-code overhead relative to the
    specialized CUDA that CUDA-CHiLL emits. *)

type strategy = Naive | Optimized of Tcr.Space.point list

val naive_overhead : float
val optimized_overhead : float

(** True when the fallback single-parallel-loop mapping was used. *)
val degenerate : Tcr.Space.decomposition -> bool

(** Per-statement points the strategy induces (Optimized strips unrolls). *)
val points : Tcr.Ir.t -> strategy -> Tcr.Space.point list

(** Simulated time of one evaluation: kernels (with overhead) plus
    transfers amortized over [reps] (a data region encloses the measurement
    loop). Raises on degenerate decompositions. *)
val time : Gpusim.Arch.t -> Tcr.Ir.t -> reps:int -> strategy -> float

(** Kernel-only time, for application contexts that account transfers
    themselves (e.g. the Nekbone CG loop). *)
val kernel_time : Gpusim.Arch.t -> Tcr.Ir.t -> strategy -> float

val gflops : Gpusim.Arch.t -> Tcr.Ir.t -> reps:int -> strategy -> float
