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
    each op adds its share of the fingerprint directly.

    The kernel stage is proven first ({!prove_kernels}): when every
    kernel is shown, from its access map ({!Codegen.Kernel.access}), to
    compute exactly its op over the IR's extents, the stage's
    fingerprints are the recipe stage's of the same round and no kernel
    is walked. That is the tuner gate's path. When a fact fails, or the
    caller passes [~walk:true] ([check --semantic]), the stage walks: it
    is the prime-field instance of {!Codegen.Exec.plan}, the loop plan
    float execution runs too - grid/block loops, every reduction point in
    the printed order, a private accumulator per output element stored
    once - with addresses from the kernel's access map, formed from its
    own extents table and proven inside the allocation before the plan
    runs, so stride corruption surfaces instead of being normalized away;
    its outputs are fingerprinted after the walk. Either way the verdict
    is the same. When fingerprints differ and {!cost} fits
    {!gate_budget}, the two stages are evaluated element by element so
    that the diagnostic names the first element that differs.

    Codes name the earliest stage that stopped agreeing with its parent:
    BAR060 variant vs dsl, BAR061 tcr vs variant, BAR062 recipe vs tcr,
    BAR063 kernel vs recipe (including out-of-bounds), BAR064 evaluation
    aborted before comparison (including a reference whose shape is not
    its tensor's). *)

val default_rounds : int
val default_seed : int

(** Points the naive einsum of the statements iterates (saturating).
    Validation never runs that nest, and on the tuner's gate a proven
    kernel is not walked: this bounds what the gate still evaluates - the
    reference stages, the element-wise diagnostics after a mismatch, and
    the walk of a kernel the proof rejects. Gates skip validation when it
    exceeds {!gate_budget}, and above it a mismatch is reported by its
    fingerprints. *)
val cost : Octopi.Contraction.t list -> int

(** Largest {!cost} the tuner's semantic gate will validate. It bounds
    the reference stages and the element-wise diagnostics, not the kernel
    walk, which the gate skips for a proven kernel (the O(n^10) TCE
    example stays above it). *)
val gate_budget : int

type verdict = {
  equivalent : bool;
  failed_stage : string option;  (** earliest non-equivalent stage *)
  rounds_run : int;
  stages : (string * string) list;
      (** per-stage digest of the first round's output fingerprints, in
          pipeline order (the [check --diff] view) *)
  diags : Diag.t list;
  kernel_proven : bool;
      (** every kernel was proven from its access map, so the kernel stage
          took the recipe stage's fingerprints and walked nothing; [false]
          when the stage walks *)
}

(** The kernel stage's proof: kernel [i] of [kernels] computes exactly op
    [i] of [ir] as the recipe stage iterates it under [points] - same op,
    the IR's extents, an exact cover of its indices by the kernel's
    levels, the row-major map in {!Codegen.Kernel.access}, and no
    self-read (the five facts are listed in semantic.ml). [false] when
    any fact fails or the recipe cannot be described. *)
val prove_kernels : Tcr.Ir.t -> Tcr.Space.point list -> Codegen.Kernel.t list -> bool

(** Validate one candidate's full lineage: [statements] the parsed DSL,
    [variant_ids] the chosen OCTOPI variant per statement, [ir] the merged
    TCR program, [points] one search point per op. [mutate_kernel] rewrites
    each lowered kernel before interpretation (the mutation self-test
    harness). [walk] (default [false]) walks every kernel even when
    {!prove_kernels} holds, as [check --semantic] does; the verdict is the
    same either way, apart from [kernel_proven]. Deterministic in [seed].
    Raises [Invalid_argument] when [rounds] is below 1: no round, no
    proof. *)
val validate :
  ?rounds:int ->
  ?seed:int ->
  ?walk:bool ->
  ?mutate_kernel:(Codegen.Kernel.t -> Codegen.Kernel.t) ->
  label:string ->
  Octopi.Contraction.t list ->
  variant_ids:int list ->
  ir:Tcr.Ir.t ->
  points:Tcr.Space.point list ->
  verdict
