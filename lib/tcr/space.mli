(** The autotuning search space of one TCR statement and of a whole
    program. A {!point} fixes the thread/block decomposition and the unroll
    factor of each unrollable loop; spaces are enumerable, countable and
    samplable, and describe their points as features for SURF. *)

type decomposition = {
  tx : string;
  ty : string option;  (** [None] = one-dimensional thread block *)
  bx : string;
  by : string option;  (** [None] = one-dimensional grid *)
}

type point = {
  decomp : decomposition;
  unrolls : (string * int) list;
  red_order : string list;
      (** permutation of the reduction loops; [[]] = source order *)
}

type t = {
  ir : Ir.t;
  op_index : int;
  op : Ir.op;
  candidates : Decision.candidates;
  max_threads_per_block : int;
  decomps : decomposition array;
      (** every valid decomposition, in enumeration order, built once by
          {!make}; {!decompositions}, {!count}, {!enumerate} and {!sample}
          read it *)
  indices : string list;
      (** the statement's iteration indices ({!Ir.iteration_indices} of
          [op]: sorted, distinct), derived once by {!make} so the recipe
          check reads them instead of re-sorting every reference's indices
          per point *)
}

val make : ?max_threads_per_block:int -> Ir.t -> int -> t

(** The four mapped indices of a decomposition. *)
val mapped_indices : decomposition -> string list

(** All valid decompositions (the PERMUTE group of Figure 2(c)). *)
val decompositions : t -> decomposition list

val unroll_combos : t -> (string * int) list list

(** Candidate reduction-loop orders (never empty; [[[]]] when there is
    nothing to permute). *)
val red_orders : t -> string list list
val count : t -> int
val enumerate : t -> point list
val sample : Util.Rng.t -> t -> point

(** The serial schedule of an op under a point: the unmapped parallel
    loops (outermost) and the reduction loops (innermost, permuted by the
    point's [red_order] when one is given - raises when that order is not
    a permutation of the reductions). The kernel lowering and the
    recipe-stage semantic evaluator share this single definition. *)
val serial_schedule : Ir.op -> point -> string list * string list

(** Stable textual identity of a point (used for memoization and the
    pool's dedup), e.g. ["tx=j ty=1 bx=i by=1 uk=4"]. *)
val point_key : point -> string

type feature_value = Cat of string | Num of float

(** Feature description consumed by SURF's binarizer: decomposition
    parameters categorical, unroll factors numeric. *)
val features : t -> point -> (string * feature_value) list

(** One sub-space per statement; kernels are tuned as a cross-product (the
    paper generates one kernel per statement, individually optimized, with
    data resident in between). *)
type program_space = { ir : Ir.t; op_spaces : t list }

val of_ir : ?max_threads_per_block:int -> Ir.t -> program_space

(** Size of the cross-product space (what the paper reports, e.g. 512,000
    tensor-code variants for Lg3t). *)
val program_count : program_space -> int
