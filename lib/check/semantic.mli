(** Translation validation: prove that every lowered kernel computes its
    contraction.

    Each stage of a tuned candidate's lineage (dsl -> variant -> tcr ->
    recipe -> kernel) denotes a polynomial in the input tensor entries.
    Each round draws the inputs uniformly from F_p (p = 2^31 - 1) and, from
    a generator of its own, one vector r_a per axis of every output, and
    compares the stages' fingerprints [sum_x C[x] * prod_a r_a[x_a]] of
    every output [C] (Freivalds' check). Two stages' fingerprints differ by
    a polynomial of degree at most the number of factors plus the output
    rank, so by Schwartz-Zippel a false "equivalent" has probability at
    most d/p per round, and a false "different" is impossible. The
    reference stages never form an output that none of their ops reads:
    each op adds its share of the fingerprint directly. The kernel stage
    is the prime-field instance of {!Codegen.Exec.walk}, the interpreter
    float execution runs too - grid/block loops, every reduction point in
    the printed order, scalar replacement - with addresses from the
    kernel's access map ({!Codegen.Kernel.access}), formed from its own
    extents table and bounds-checked, so stride corruption surfaces
    instead of being normalized away; its outputs are fingerprinted after
    the walk. When fingerprints differ and {!cost} fits {!gate_budget}, the
    two stages are evaluated element by element so that the diagnostic
    names the first element that differs.

    Codes name the earliest stage that stopped agreeing with its parent:
    BAR060 variant vs dsl, BAR061 tcr vs variant, BAR062 recipe vs tcr,
    BAR063 kernel vs recipe (including out-of-bounds), BAR064 evaluation
    aborted before comparison (including a reference whose shape is not
    its tensor's). *)

val default_rounds : int
val default_seed : int

(** Points the naive einsum of the statements iterates (saturating).
    Validation no longer runs that nest, but it still walks every kernel
    over its full output, so this stands in for the kernel walk, the one
    full-size evaluation left, until the gate is priced by that walk
    itself. Gates skip validation when it exceeds {!gate_budget}, and
    above it a mismatch is reported by its fingerprints. *)
val cost : Octopi.Contraction.t list -> int

(** Largest {!cost} the tuner's semantic gate will validate (the O(n^10)
    TCE example exists precisely because its naive nest is infeasible). *)
val gate_budget : int

type verdict = {
  equivalent : bool;
  failed_stage : string option;  (** earliest non-equivalent stage *)
  rounds_run : int;
  stages : (string * string) list;
      (** per-stage digest of the first round's output fingerprints, in
          pipeline order (the [check --diff] view) *)
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
