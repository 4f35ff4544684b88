(** The GPU decision algorithm (Section IV): derive, for one TCR statement,
    the candidate thread/block decompositions and unroll factors that form
    the autotuning search space.

    Rules reproduced from the paper:
    - ThreadX candidates: parallel loops with unit stride on some tensor of
      the statement (coalescing);
    - ThreadY/BlockX/BlockY candidates: parallel loops from the contiguous
      tensors innermost-to-outermost, then (if fewer than four) from the
      non-contiguous tensors outermost-to-innermost; ThreadY and BlockY may
      be "1" (one-dimensional block/grid);
    - the remaining inner loops are unroll candidates with small factors;
    - scalar replacement of the output is always applied. *)

type candidates = {
  tx : string list;
  ty : string list;  (** includes "1" *)
  bx : string list;
  by : string list;  (** includes "1" *)
  unroll_loops : (string * int list) list;  (** innermost serial loops *)
  red_orders : string list list;
      (** candidate permutations of the reduction loops *)
}

(** Ordered pool used for ThreadY/BlockX/BlockY per the two selection
    rules. *)
val decomposition_pool : Ir.op -> string list

val reduction_orders : Ir.op -> string list list

(** [derive ?unroll_factors ir op]; [unroll_factors] overrides the factor
    domain of every unrollable loop. *)
val derive : ?unroll_factors:int list -> Ir.t -> Ir.op -> candidates
