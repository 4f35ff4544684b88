(** GPU kernel intermediate form: one TCR statement lowered under a search
    point (decomposition + unroll factors) - the common output of the
    CUDA-CHiLL-style transformations; {!lower} builds every kernel the
    pipeline runs. The CUDA printer, the simulator's timing model and
    {!Exec}'s interpreter (behind both float execution and translation
    validation) consume this exact structure, so the code that is timed
    and proved is the code that is emitted. *)

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

(** Indices handled by the hardware decomposition. *)
val mapped_indices : t -> string list

val serial_indices : t -> string list
val reduction_loops : t -> loop list

(** Iterations of the serial loop nest per thread. *)
val serial_iterations : t -> int

val threads_per_block : t -> int
val num_blocks : t -> int
val total_threads : t -> int

(** Flops: one multiply per extra factor plus one accumulate add, per
    innermost point. *)
val flops : t -> int

(** Lower one statement. Serial loops keep the op's order with unmapped
    parallel loops outermost and reductions innermost. Raises if the
    decomposition maps a reduction index. [scalar_replace] defaults to
    [true] (Section IV); [false] exists for the ablation study. *)
val lower :
  ?scalar_replace:bool -> name:string -> Tcr.Ir.t -> Tcr.Ir.op -> Tcr.Space.point -> t

(** One kernel per statement, named [<label>_GPU_<n>] as in Figure 2(d).
    Requires one point per op. *)
val lower_program : ?scalar_replace:bool -> Tcr.Ir.t -> Tcr.Space.point list -> t list
