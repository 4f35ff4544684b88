(** The TTGT (Transpose-Transpose-GEMM-Transpose) baseline: each binary
    contraction evaluated by reshaping the operands into matrices and
    calling a vendor GEMM - the large-tensor-framework strategy the paper
    contrasts itself with (Section VII). Indices partition into batch
    (output indices in both factors), M (output, first factor), N (output,
    second factor) and K (contracted); a tensor needs an explicit transpose
    when its layout does not already group that way. *)

type op_mapping = {
  op : Tcr.Ir.op;
  b_indices : string list;
  m_indices : string list;
  n_indices : string list;
  k_indices : string list;
  transposes : string list;  (** tensors needing an explicit copy *)
  gemm : Gpusim.Gemm.analysis;
  time_s : float;
}

type report = {
  ir : Tcr.Ir.t;
  mappings : op_mapping list;
  kernel_time_s : float;
  flops : int;  (** contraction flops, excluding transpose overhead *)
}

val analyze : Gpusim.Arch.t -> Tcr.Ir.t -> report

(** TTGT time of the cheapest strength-reduction variant. *)
val best_time : Gpusim.Arch.t -> Tuner.benchmark -> float
