(** GPU kernel intermediate form: one TCR statement lowered under a search
    point (decomposition + unroll factors) - the common output of the
    CUDA-CHiLL-style transformations; {!lower} builds every kernel the
    pipeline runs. The CUDA printer, the simulator's timing model, the
    bounds proof and {!Exec}'s interpreter (behind both float execution
    and translation validation) consume this exact structure and read its
    addresses from one {!access} map, so the code that is timed and proved
    is the code that is emitted. *)

type loop = {
  index : string;
  extent : int;
  unroll : int;  (** 1 = no unrolling *)
  parallel : bool;  (** output (parallel) index, vs. reduction *)
}

type t = {
  name : string;
  op : Tcr.Ir.op;
  extents : (string * int) list;
  decomp : Tcr.Space.decomposition;
  grid : int * int;  (** blocks in x, y *)
  block : int * int;  (** threads in x, y *)
  thread_loops : loop list;  (** serial loops inside a thread, outer first *)
  scalar_replaced : bool;  (** output accumulated in a register *)
  arrays : (string * string list) list;  (** referenced arrays with dims *)
}

val extent : t -> string -> int

val reduction_loops : t -> loop list

(** Iterations of the serial loop nest per thread. *)
val serial_iterations : t -> int

val threads_per_block : t -> int
val num_blocks : t -> int
val total_threads : t -> int

(** Flops: one multiply per extra factor plus one accumulate add, per
    innermost point. *)
val flops : t -> int

(** {1 The access map}

    The one definition of a kernel's addresses, read by {!Exec.walk},
    {!Cuda}, gpusim's coalescing and trace models and the bounds proof.
    Derived from the kernel's fields on every call, never stored. *)

(** The largest extent any level (block, grid or loop) drives index [i]
    through, and at least 1. Allocates nothing. *)
val range : t -> string -> int

(** One distinct index the kernel binds. Every level that binds it writes
    its slot, so where two levels bind one index (tx = bx) the last write
    wins. [var] is the printed name, from the first binding in the order
    tx, ty, bx, by, then the loop's own index; [range] is {!range}. *)
type slot = { index : string; var : string; range : int }

(** One [(slot, stride)] term per dimension, in dimension order, row-major
    over the kernel's extents table, and the element count it gives. *)
type reference = { name : string; dims : string list; terms : (int * int) list; elements : int }

type access = { slots : slot array; out : reference; factors : reference list }

(** Raises [Invalid_argument] on an ill-formed kernel, output first, then
    each factor, a reference's extents before its bindings: ["kernel K has
    no extent for index I"] or ["kernel K: index I has no slot"]. So the
    walker raises on both; the bounds proof ({!bound}) reports a missing
    extent as one BAR030 per dimension. *)
val access : t -> access

(** The slot of an index; [Not_found] when no level binds it. *)
val slot : access -> string -> int

(** The bounds proof of a reference to [dims], without building the map:
    its largest offset (each dimension's stride times its {!range} minus
    1) against its element count, or the dimensions that have no extent.
    Allocates nothing when [Within]. *)
type bound = Within | Past of int * int  (** offset, elements *) | No_extent of string list

val bound : t -> string list -> bound

(** Lower one statement. Serial loops keep the op's order with unmapped
    parallel loops outermost and reductions innermost. Raises if the
    decomposition maps a reduction index. [scalar_replace] defaults to
    [true] (Section IV); [false] exists for the ablation study. *)
val lower :
  ?scalar_replace:bool -> name:string -> Tcr.Ir.t -> Tcr.Ir.op -> Tcr.Space.point -> t

(** One kernel per statement, named [<label>_GPU_<n>] as in Figure 2(d).
    Requires one point per op. *)
val lower_program : ?scalar_replace:bool -> Tcr.Ir.t -> Tcr.Space.point list -> t list
