(** Trace-driven cross-check of the analytic memory model: replay the exact
    address stream one thread block issues for a reference through an LRU
    cache of the architecture's L1 geometry, and compare the measured hit
    rate with {!Perf}'s classification. *)

(** Byte address of a reference for given lane and serial-loop values
    (block indices fixed at 0). *)
val address :
  Codegen.Kernel.t ->
  string list ->
  tx:int ->
  ty:int ->
  serial_vals:(string * int) list ->
  int

(** Measured L1 hit rate of one reference over a block's execution. *)
val block_hit_rate :
  ?ways:int -> Arch.t -> Codegen.Kernel.t -> string * string list -> float

(** Bytes one block actually moves past the L1 for this reference. *)
val block_miss_bytes :
  ?ways:int -> Arch.t -> Codegen.Kernel.t -> string * string list -> int
