(** Global-memory coalescing analysis. For every array reference of a
    kernel, the number of 128-byte transactions one warp's load generates
    is computed by evaluating the affine address function for each of the
    32 lanes and counting distinct segments - the rule the hardware's
    load-store unit applies. Lanes are x-fastest:
    [lane = ty * blockDim.x + tx]. *)

val segment_bytes : int

type ref_analysis = {
  name : string;
  dims : string list;
  transactions_per_warp : float;  (** averaged over the block's warps *)
  loads_per_thread : int;  (** executions of the load per thread *)
  footprint_per_block : int;  (** distinct bytes touched by one block *)
  tensor_bytes : int;  (** whole-array size *)
}

val transactions_per_warp : Codegen.Kernel.t -> string list -> float

(** Exact average transactions per warp-wide load over every warp of every
    block and every serial iteration: for affine addresses the count
    depends only on the base residue mod the segment size, so the grid
    average is a finite sum over the distribution of that residue. *)
val exact_transactions_per_warp : Codegen.Kernel.t -> string list -> float

val footprint_per_block : Codegen.Kernel.t -> string list -> int

(** One analysis per factor reference. *)
val analyze : Codegen.Kernel.t -> ref_analysis list

(** The output reference; without scalar replacement its loads count once
    per innermost iteration instead of once per element. *)
val analyze_output : Codegen.Kernel.t -> ref_analysis
