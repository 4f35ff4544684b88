(** Trace-driven cross-check of the analytic memory model: replay the exact
    address stream one thread block issues for a reference through an LRU
    cache of the architecture's L1 geometry, and compare the measured hit
    rate with {!Perf}'s classification. *)

(** Byte address of a reference of the kernel's access map
    ({!Codegen.Kernel.access}) under one value per slot. *)
val address : Codegen.Kernel.reference -> int array -> int

(** Measured L1 hit rate of one of the kernel's references, [(name, dims)],
    over a block's execution; the replay builds the kernel's access map
    once. Raises [Not_found] when the kernel has no such reference. *)
val block_hit_rate :
  ?ways:int -> Arch.t -> Codegen.Kernel.t -> string * string list -> float

(** Bytes one block actually moves past the L1 for this reference. *)
val block_miss_bytes :
  ?ways:int -> Arch.t -> Codegen.Kernel.t -> string * string list -> int
