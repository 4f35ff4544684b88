(** Symbolic access analysis: exact affine facts about a kernel's memory
    behaviour. Every address in the kernel IR is affine in the
    thread/block/serial indices, so the hardware quantities have closed
    forms instead of heuristics - notably the exact grid-average coalescing
    transactions of every global reference.

    Codes: BAR070 uncoalesced global loads (warning), BAR073 low occupancy
    (warning), BAR074 partial warp (warning), BAR075 idle SMs (warning),
    BAR076 coalescing model divergence (info). BAR071, BAR072 and BAR077
    are retired and reserved: they covered shared-memory tiles, which no
    lowering produces. *)

(** Warps at or beyond half the fully-diverged cost are uncoalesced. *)
val uncoalesced_threshold : float

val low_occupancy_threshold : float

(** Model-vs-exact gap (transactions/warp) worth a BAR076 info. *)
val model_divergence_threshold : float

(** BAR070/073/074/075/076 - exact-quantity warnings and infos. *)
val lints : Gpusim.Arch.t -> Codegen.Kernel.t -> Diag.t list
