(** Translation validation: prove that every lowered kernel computes its
    contraction.

    Each stage of a tuned candidate's lineage (dsl -> variant -> tcr ->
    recipe -> kernel) denotes a polynomial in the input tensor entries;
    the stages are evaluated on uniformly random points of F_p
    (p = 2^31 - 1) and compared exactly (Schwartz-Zippel: distinct
    polynomials of degree d agree with probability at most d/p per
    round, so a false "equivalent" is astronomically unlikely and a false
    "different" is impossible). Each round evaluates each distinct
    reference computation once: reference stages whose ops agree on
    output, factors and the multiset of loop indices (F_p sums commute
    exactly) read one evaluation's arrays. The kernel stage is always
    evaluated: it is the prime-field instance of {!Codegen.Exec.walk}, the
    interpreter float execution runs too - grid/block loops, unrolling
    with epilogue, scalar replacement - with addresses formed from the
    kernel's own extents table and bounds-checked, so stride corruption
    surfaces instead of being normalized away.

    Codes name the earliest stage that stopped agreeing with its parent:
    BAR060 variant vs dsl, BAR061 tcr vs variant, BAR062 recipe vs tcr,
    BAR063 kernel vs recipe (including out-of-bounds), BAR064 evaluation
    aborted before comparison. *)

val default_rounds : int
val default_seed : int

(** Points the DSL einsum oracle iterates per round (saturating). The
    naive einsum is the spec, so this cost is irreducible; gates skip
    validation when it exceeds {!gate_budget}. *)
val cost : Octopi.Contraction.t list -> int

(** Largest {!cost} the tuner's semantic gate will validate (the O(n^10)
    TCE example exists precisely because its naive nest is infeasible). *)
val gate_budget : int

type verdict = {
  equivalent : bool;
  failed_stage : string option;  (** earliest non-equivalent stage *)
  rounds_run : int;
  stages : (string * string) list;
      (** per-stage output digest from the first round, in pipeline order
          (the [check --diff] view) *)
  diags : Diag.t list;
}

(** Validate one candidate's full lineage: [statements] the parsed DSL,
    [variant_ids] the chosen OCTOPI variant per statement, [ir] the merged
    TCR program, [points] one search point per op. [mutate_kernel] rewrites
    each lowered kernel before interpretation (the mutation self-test
    harness). Deterministic in [seed]. Raises [Invalid_argument] when
    [rounds] is below 1: no round, no proof. *)
val validate :
  ?rounds:int ->
  ?seed:int ->
  ?mutate_kernel:(Codegen.Kernel.t -> Codegen.Kernel.t) ->
  label:string ->
  Octopi.Contraction.t list ->
  variant_ids:int list ->
  ir:Tcr.Ir.t ->
  points:Tcr.Space.point list ->
  verdict
