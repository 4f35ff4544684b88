(* Provenance lineage of a tuned kernel: the five-stage chain the journal
   records for every evaluated variant, each stage's hash chained onto its
   parent's ({!Obs.Journal.stage}), so two runs agreeing on the kernel hash
   agree on the whole derivation - DSL expression, OCTOPI variant choice,
   merged TCR statement, decomposition recipe, and emitted CUDA.

   This module speaks primitives (contractions, variant ids, IR, points)
   rather than [Tuner] types so the tuner can call it without a module
   cycle. *)

(* Regenerate canonical DSL source from parsed contractions. Contraction
   extents are sorted ([Contraction.of_stmt] runs [List.sort_uniq]), so the
   rendering is invariant under reparsing: the replay of a journal entry
   parses this text back into the same contractions that produced it. *)
let dsl_of_statements (statements : Octopi.Contraction.t list) =
  let extents =
    List.sort_uniq compare
      (List.concat_map (fun (c : Octopi.Contraction.t) -> c.extents) statements)
  in
  let stmts =
    List.map
      (fun (c : Octopi.Contraction.t) ->
        {
          Octopi.Ast.lhs = { name = c.output; indices = c.output_indices };
          sum_indices = c.sum_indices;
          factors = c.factors;
          accumulate = false;
        })
      statements
  in
  Octopi.Ast.to_string { Octopi.Ast.extents; stmts }

let variant_key variant_ids = String.concat "." (List.map string_of_int variant_ids)
let recipe_key points = String.concat "|" (List.map Tcr.Space.point_key points)

(* A variant choice as the journal, the profiler and [check] name it. *)
let variant_name variant_ids = "v" ^ variant_key variant_ids

(* Short human-readable identity of one candidate: variant choice plus the
   per-kernel decomposition points. *)
let label ~variant_ids ~points =
  Printf.sprintf "%s %s" (variant_name variant_ids) (recipe_key points)

(* The full five-stage chain for one candidate. [dsl] is the canonical
   source from {!dsl_of_statements}, passed in so a tune hashes it once.
   Emitting the CUDA here is pure string work - no RNG, no measurement -
   so journaling never perturbs a fixed-seed search. *)
let lineage ~dsl ~variant_ids ~ir ~points : Obs.Journal.lineage =
  let dsl_hash = Obs.Journal.stage "" dsl in
  let variant_hash = Obs.Journal.stage dsl_hash (variant_key variant_ids) in
  let tcr_hash = Obs.Journal.stage variant_hash (Tcr.Ir.to_string ir) in
  let recipe_hash = Obs.Journal.stage tcr_hash (recipe_key points) in
  let kernel_hash =
    Obs.Journal.stage recipe_hash (Codegen.Cuda.emit_program ir points)
  in
  { dsl_hash; variant_hash; tcr_hash; recipe_hash; kernel_hash }
