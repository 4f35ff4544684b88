(** Surface abstract syntax of the OCTOPI input language (Figure 2(a)):

    {v
dims: i=10 j=10 k=10 l=10 m=10 n=10
V[i j k] = Sum([l m n], A[l k] * B[m j] * C[n i] * U[l m n])
    v} *)

type tensor_ref = { name : string; indices : string list }

type stmt = {
  lhs : tensor_ref;
  sum_indices : string list;  (** explicit [Sum([...], ...)] indices *)
  factors : tensor_ref list;  (** multiplied right-hand-side terms *)
  accumulate : bool;  (** [+=] rather than [=] *)
}

type program = {
  extents : (string * int) list;  (** declared index extents *)
  stmts : stmt list;
}

(** Concrete syntax that {!Parse.program} accepts back (round-trips). *)
val to_string : program -> string
