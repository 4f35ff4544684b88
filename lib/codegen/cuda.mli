(** CUDA C emitter: prints the kernel IR in the style of Figure 2(d) - one
    [__global__] kernel per statement with thread/block index expressions,
    unrolled main loops plus epilogues and the scalar-replaced output - and
    a host wrapper that allocates device memory, copies inputs once, runs
    the kernel sequence with data resident on the GPU and copies outputs
    back. *)

val emit_kernel : Kernel.t -> string

(** Full translation unit for a tuned program. *)
val emit_program : ?scalar_replace:bool -> Tcr.Ir.t -> Tcr.Space.point list -> string
