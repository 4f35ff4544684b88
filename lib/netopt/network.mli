(** Tensor-network IR: tensors as named index lists, output (open) indices,
    and index extents. The input of the contraction-order optimizer - the
    stage {e before} the paper's Figure 2(a) DSL. Indices shared by several
    tensors are contracted (hyper)edges; extents may be declared inline on
    a tensor, by a network-level declaration, or fall back to the DSL
    default. *)

type tensor = {
  t_name : string;
  t_indices : string list;  (** one entry per axis, outermost first *)
  t_dims : (string * int) list;  (** extents declared inline on this tensor *)
}

type t = {
  tensors : tensor list;
  output : string list;  (** open indices, in output-axis order *)
  extents : (string * int) list;  (** network-level extent declarations *)
}

val make : ?output:string list -> ?extents:(string * int) list -> tensor list -> t

(** Every distinct index, sorted. *)
val all_indices : t -> string list

(** First declaration wins; {!Octopi.Contraction.default_extent} otherwise. *)
val extent_of : t -> string -> int

(** [(index, extent)] for every index in the network, sorted - suitable for
    an {!Octopi.Ast.program}'s [extents] field. *)
val resolved_extents : t -> (string * int) list

(** log2 of the element count of a tensor over exactly these indices. *)
val log2_size : t -> string list -> float

(** Network-stage diagnostics: BAR050 unknown output index, BAR051
    conflicting extents, BAR052 repeated index within a tensor, BAR053
    repeated output index, BAR054 malformed network (all errors), BAR055
    dangling index (warning). Tree-dependent findings ([sc_target],
    step rank) live in {!Tree.check}. *)
val validate : t -> Check.Diag.t list

(** Raised by {!parse}/{!of_file}/{!of_einsum} on syntax errors; semantic
    problems are left to {!validate}. *)
exception Parse_error of string

(** Parse the network spec syntax: one [tensor NAME idx[:extent] ...],
    [extent idx N] or [output idx ...] directive per line; ['#'] comments. *)
val parse : string -> t

val of_file : string -> t

(** Render back to spec syntax ({!parse} round-trips). *)
val to_string : t -> string

(** NumPy-style einsum spec ("ab,bc->ac") via {!Octopi.Einsum_notation};
    factors are named A, B, ... with generated names past the eighth. *)
val of_einsum : ?extents:(string * int) list -> string -> t
