(** Machine-readable diagnostics for the whole-pipeline static verifier.

    Each finding carries a stable [BARxxx] code, a severity, the pipeline
    stage that produced it and the site it anchors to. Code ranges:
    BAR00x verifier internals, BAR01x TCR well-formedness, BAR02x recipe
    legality, BAR03x kernel/arch resource errors, BAR04x kernel lints
    (reserved; superseded by BAR07x), BAR05x tensor-network IR validation
    and contraction-tree checks ([lib/netopt], ahead of the DSL front
    end), BAR06x translation validation ({!Semantic} stage: prime-field
    equivalence of the five lineage stages), BAR07x symbolic access
    analysis (exact coalescing, occupancy, launch shape; BAR071/072/077
    are retired and reserved). *)

type severity = Error | Warning | Info

type stage = Network | Tcr | Recipe | Kernel | Semantic

type t = {
  code : string;
  severity : severity;
  stage : stage;
  site : string;
  message : string;
}

val severity_name : severity -> string
val stage_name : stage -> string

(** Errors before warnings before infos; ties by (code, site, message). *)
val compare_diag : t -> t -> int

val error :
  stage -> code:string -> site:string -> ('a, unit, string, t) format4 -> 'a

val warning :
  stage -> code:string -> site:string -> ('a, unit, string, t) format4 -> 'a

val info :
  stage -> code:string -> site:string -> ('a, unit, string, t) format4 -> 'a

val errors : t list -> t list
val warnings : t list -> t list
val infos : t list -> t list
val has_errors : t list -> bool

(** Per-severity counts: [(errors, warnings, infos)]. *)
val severity_counts : t list -> int * int * int

(** Occurrences per code, sorted by code. *)
val by_code : t list -> (string * int) list

(** One line: ["[BAR020] error (recipe) op1: ..."]. *)
val render : t -> string

(** Distinct findings with their repeat counts, in deterministic
    first-seen order (pipeline-stage order is preserved rather than
    interleaved by code). *)
val dedup : t list -> (t * int) list

(** [render] every deduplicated finding, one per line, with repeat counts. *)
val render_report : t list -> string

val to_json : t -> Obs.Json.t
