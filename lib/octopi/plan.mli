(** Strength reduction (paper Algorithm 1): enumeration of the ways an
    n-way contraction can be evaluated as a tree of binary contractions
    over temporaries, with the eager unary sum-out of indices that occur in
    a single term. For the paper's Eqn.(1), {!enumerate} yields exactly 15
    plans, 6 of which share the minimal flop count. *)

type node = {
  indices : string list;  (** free indices of this term *)
  kind : kind;
}

and kind =
  | Input of string
  | Reduce of { child : node; summed : string list }
      (** eager unary sum-out (Algorithm 1 lines 5-9) *)
  | Contract of { left : node; right : node; summed : string list }
      (** binary multiply, summing indices that occur nowhere else *)

type plan = { contraction : Contraction.t; root : node }

(** A lowered statement, [out[out_indices] += prod factors], summation over
    the indices absent from the output - exactly a TCR operation. *)
type op = {
  out : string;
  out_indices : string list;
  factors : (string * string list) list;
}

(** Input tensor names, left to right. *)
val node_inputs : node -> string list

(** Every distinct contraction tree; worst case (2n-3)!! trees for n
    factors. *)
val enumerate : Contraction.t -> plan list

(** Flops of a plan: each Contract node costs a multiply and an add per
    point of the union of its children's index spaces; each Reduce an add
    per point. *)
val flops : plan -> int

(** Post-order statement sequence, temporaries named T1, T2, ...; the root
    writes the contraction's output. *)
val lower : plan -> op list

(** Names and index lists of the temporaries a plan introduces. *)
val temporaries : plan -> (string * string list) list

(** Evaluate op-by-op with the einsum oracle (checks that strength
    reduction preserves semantics). *)
val evaluate : plan -> (string * Tensor.Dense.t) list -> Tensor.Dense.t

(** One-line rendering of {!lower}, for logs and the CLI. *)
val describe : plan -> string
