(** Global-memory coalescing analysis. For every array reference of a
    kernel, the number of 128-byte transactions one warp's load generates
    is computed by evaluating the affine address function for each of the
    32 lanes and counting distinct segments - the rule the hardware's
    load-store unit applies. Lanes are x-fastest:
    [lane = ty * blockDim.x + tx]. *)

val segment_bytes : int
val element_bytes : int

type ref_analysis = {
  name : string;
  dims : string list;
  transactions_per_warp : float;  (** averaged over the block's warps *)
  loads_per_thread : int;  (** executions of the load per thread *)
  footprint_per_block : int;  (** distinct bytes touched by one block *)
  tensor_bytes : int;  (** whole-array size *)
}

(** Element stride of a loop index within a reference (0 if absent). *)
val stride_of : Codegen.Kernel.t -> string list -> string -> int

val transactions_per_warp : Codegen.Kernel.t -> string list -> float

(** Elements per 128-byte segment (16 for 8-byte doubles). *)
val seg_elems : int

(** Element offsets of the (possibly partial) warp starting at [lane_base],
    relative to the warp's base address: only the thread-mapped indices
    vary across lanes. *)
val lane_deltas : Codegen.Kernel.t -> string list -> lane_base:int -> int list

(** Distribution over [Z_m] of a reference's warp-base offset: per-index
    residue distributions of the block and serial indices convolved in
    [Z_m] (they sweep their ranges independently). *)
val base_residue_dist : Codegen.Kernel.t -> string list -> m:int -> float array

(** Exact average transactions per warp-wide load over every warp of every
    block and every serial iteration: for affine addresses the count
    depends only on the base residue mod the segment size, so the grid
    average is a finite sum over {!base_residue_dist}. *)
val exact_transactions_per_warp : Codegen.Kernel.t -> string list -> float

(** A load executes once per iteration of every serial loop outside or at
    the innermost loop its address depends on (deeper independent loops
    hoist it). *)
val loads_per_thread : Codegen.Kernel.t -> string list -> int

val footprint_per_block : Codegen.Kernel.t -> string list -> int
val tensor_bytes : Codegen.Kernel.t -> string list -> int
val analyze_ref : Codegen.Kernel.t -> string * string list -> ref_analysis

(** One analysis per factor reference. *)
val analyze : Codegen.Kernel.t -> ref_analysis list

(** The output reference; without scalar replacement its loads count once
    per innermost iteration instead of once per element. *)
val analyze_output : Codegen.Kernel.t -> ref_analysis
