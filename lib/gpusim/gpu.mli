(** Device-level simulation of a tuned TCR program: the analytic time
    estimate of its kernels (functional execution is {!Codegen.Exec}). A
    deterministic structural-hash noise of up to +/-3% models codegen and
    run-to-run variation, so equal-flop variants differ slightly, as the
    paper observes (Section II-B). *)

type report = {
  arch : Arch.t;
  kernels : Perf.kernel_report list;
  transfer : Transfer.t;
  kernel_time_s : float;  (** sum of kernel times, one evaluation *)
  flops : int;
}

(** Whole program under per-statement points. Deterministic. *)
val measure : ?scalar_replace:bool -> Arch.t -> Tcr.Ir.t -> Tcr.Space.point list -> report

(** Time of [reps] evaluations with device-resident data: transfers once,
    kernels every repetition (the paper's measurement loop). *)
val time_with_reps : report -> reps:int -> float

(** Average time of one evaluation under amortized transfers. *)
val amortized_time : report -> reps:int -> float

val gflops : report -> reps:int -> float

(** Concurrent-kernel (streams) variant of {!measure}: statements in the
    same dependence wave share one launch latency (bodies still add - work
    conservation). Extension experiment for Section VIII. *)
val measure_streams :
  ?scalar_replace:bool -> Arch.t -> Tcr.Ir.t -> Tcr.Space.point list -> report
