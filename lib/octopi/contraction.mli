(** Semantic form of a single tensor-contraction statement: a validated
    [Ast.stmt] with the summation index set inferred (indices appearing in
    factors but not in the output, per the Einstein convention) and extents
    attached. *)

type t = {
  output : string;
  output_indices : string list;
  factors : Ast.tensor_ref list;
  sum_indices : string list;  (** sorted, duplicate-free *)
  extents : (string * int) list;  (** every index used has an extent *)
}

(** Raised by {!of_program} on malformed statements (repeated or phantom
    output indices, diagonal factors, inconsistent summation lists, a
    tensor used with two shapes, ...). *)
exception Invalid of string

(** Extent of an index; raises {!Invalid} if unknown. *)
val extent : t -> string -> int

(** Extent assumed for indices without a [dims:] declaration (10, the
    paper's running example). *)
val default_extent : int

val of_program : Ast.program -> t list

(** Flops of the naive single-loop-nest evaluation (e.g. O(p^6) for
    Eqn.(1)). *)
val naive_flops : t -> int

(** Evaluate directly with the einsum oracle; [env] binds factor names to
    tensors of the declared shapes. *)
val evaluate : t -> (string * Tensor.Dense.t) list -> Tensor.Dense.t

(** Random input environment (one binding per distinct factor name). *)
val random_env : ?rng:Util.Rng.t -> t -> (string * Tensor.Dense.t) list
