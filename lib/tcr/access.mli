(** Memory access-pattern analysis for tensor references (Section IV). A
    reference is {e contiguous} w.r.t. a loop order when its index list
    appears in the same relative order as the loops, i.e. inner loops touch
    the fastest-varying (row-major) dimensions; such references coalesce
    when their innermost parallel loop becomes ThreadX. *)

(** Position of each reference index within the loop order. Raises if an
    index is not in the order. *)
val positions : string list -> string list -> int list

val contiguous : loop_order:string list -> string list -> bool

(** Loop indices accessing some reference of the statement with unit
    stride: the coalesced ThreadX candidates. *)
val unit_stride_indices : Ir.op -> string list
