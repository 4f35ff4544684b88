(** Inter-statement dependence graph: flow, anti and output dependences
    between the statements of a TCR program. Yields the legal kernel order
    and the {e waves} of mutually independent statements a streams-capable
    device could launch concurrently (the Section VIII "surrounding
    computations" direction). *)

type t

val build : Ir.t -> t

(** DAG depth of each statement (0 for sources), indexed in program
    order. *)
val levels : t -> int array

(** Statements grouped by depth, in execution order; statements within a
    wave have no dependence path between them. *)
val waves : t -> Ir.op list list

val max_wave_width : t -> int

(** [independent t i j]: neither statement transitively depends on the
    other (indices in program order). *)
val independent : t -> int -> int -> bool
