(** Performance model of a vendor DGEMM library (cuBLAS-class): high
    fractions of peak only when the output tile grid fills the SMs and K
    amortizes tile setup - the reason the paper's small-tensor workloads
    cannot be served by "mapping the problem to use highly-tuned linear
    algebra libraries" (Section I). *)

type analysis = {
  m : int;
  n : int;
  k : int;
  batch : int;
  flops : int;
  time_s : float;
  utilization : float;  (** output tile grid vs chip capacity *)
  k_efficiency : float;
}

(** Raises [Invalid_argument] on non-positive dimensions. *)
val analyze : Arch.t -> m:int -> n:int -> k:int -> batch:int -> analysis

val gflops : analysis -> float

(** An out-of-place library transpose/copy: two passes over the data. *)
val transpose_time : Arch.t -> bytes:int -> float
