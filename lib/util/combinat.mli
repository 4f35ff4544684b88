(** Small combinatorics helpers shared by OCTOPI's variant enumeration and
    the TCR search-space construction. All functions materialize their full
    result, so callers keep inputs small (the paper's workloads have at most
    four factors and seven loop indices). *)

(** All permutations of a list; duplicates in the input are collapsed. *)
val permutations : 'a list -> 'a list list

(** Cartesian product of a list of domains, in row-major order. An empty
    domain yields an empty product. *)
val cartesian : 'a list list -> 'a list list
