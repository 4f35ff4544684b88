(** Merge the chosen OCTOPI variant of each statement of a multi-statement
    computation into a single TCR program sharing inputs and extents, with
    per-statement temporaries renamed apart (s1_T1, s2_T1, ...). Statements
    may accumulate into the same output (local_grad3t) or feed each other
    (the joint Nekbone benchmark). The merged program is what the GPU
    simulator times: one kernel per statement, transfers counted once. *)

(** Raises [Invalid_argument] on conflicting extents or on the same tensor
    name declared with different shapes. *)
val merge :
  label:string -> (Octopi.Contraction.t * Octopi.Variants.variant) list -> Tcr.Ir.t
