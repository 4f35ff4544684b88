(** Five-stage provenance lineage of a tuned kernel, recorded by the
    tuning journal for every evaluated variant: DSL expression, OCTOPI
    variant choice, merged TCR statement, decomposition recipe, emitted
    CUDA - each stage hash chained onto its parent's via
    {!Obs.Journal.stage}. *)

(** Canonical DSL source regenerated from parsed contractions; reparsing
    it yields the same contractions (extents are kept sorted), which is
    what makes journal replay faithful. *)
val dsl_of_statements : Octopi.Contraction.t list -> string

(** A variant choice, one OCTOPI variant id per statement, as the
    journal names it: "v3", or "v0.2" for a two-statement program. *)
val variant_name : int list -> string

(** Short human-readable identity of one candidate: its {!variant_name}
    and decomposition points. *)
val label : variant_ids:int list -> points:Tcr.Space.point list -> string

(** The full chain for one candidate; [dsl] comes from
    {!dsl_of_statements} (hash it once per tune). Pure string work: no
    RNG, no measurement. *)
val lineage :
  dsl:string ->
  variant_ids:int list ->
  ir:Tcr.Ir.t ->
  points:Tcr.Space.point list ->
  Obs.Journal.lineage
