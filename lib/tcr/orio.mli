(** The Orio / CUDA-CHiLL annotation layer of Figure 2(c). TCR communicates
    with the transformation framework through text: a
    [def performance_params] block declaring the tunable parameters and
    their domains, a CHiLL skeleton referencing them, and - once the search
    fixes values - a concrete transformation recipe. Recipes round-trip
    through {!parse_recipe}. *)

exception Parse_error of string

(** The parameterized search-space declaration plus CHiLL skeleton for a
    whole program (one PERMUTE group, unroll and loop-order params per
    kernel), in the style of Figure 2(c). *)
val annotations : Space.program_space -> string

(** Concrete recipes for a whole program, one kernel per statement. *)
val recipe : Space.point list -> string

(** Parse a concrete recipe back into per-kernel points; missing unrolls
    default to 1, [registers] lines are accepted and ignored (scalar
    replacement is always applied). Raises {!Parse_error} on malformed
    input or a missing [cuda] line. *)
val parse_recipe : Space.program_space -> string -> Space.point list
