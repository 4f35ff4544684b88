(** Tuning flight recorder: an append-only JSONL journal with one entry per
    tuning run - canonical problem, device identity, seed, per-iteration
    SURF state, and the five-stage provenance lineage (DSL expr, OCTOPI
    variant, TCR statement, recipe parameters, emitted kernel) of every
    evaluated variant with predicted vs measured time.

    Entries are content-addressed: {!run_id} digests the entry with the id
    and timestamp blanked, so recording the same tune twice yields the same
    id. Each entry is one appended line; a crash tears at most the final
    line, and {!load} discards undecodable lines instead of aborting.

    Recording goes through a global sink, disabled by default in the
    {!Trace}/{!Profile} style: one atomic load when off, no RNG draws ever,
    so fixed-seed tunes are bit-identical with journaling on or off. *)

(** [stage parent content] - chained lineage hash: digest of the parent
    stage's hash and this stage's canonical content, so equal final hashes
    imply the whole derivation chain matched. Pass [""] as the root
    parent. *)
val stage : string -> string -> string

type lineage = {
  dsl_hash : string;
  variant_hash : string;
  tcr_hash : string;
  recipe_hash : string;
  kernel_hash : string;
}

type variant = {
  label : string;
  lineage : lineage;
  predicted : float option;
      (** surrogate prediction; [None] for the initial random batch *)
  measured : float;  (** seconds *)
}

type rival = {
  rival_label : string;
  rival_lineage : lineage;
  rival_predicted : float;
  rival_std : float;
}

(** Contraction-order provenance for network-originated tunes: the
    optimizer that chose the order ("greedy"/"treesa"), the serialized
    contraction tree, and its score breakdown in log2 units. Entries
    journaled before netopt existed decode as [None]. *)
type network = {
  net_method : string;
  net_order : string;
  net_tc : float;
  net_sc : float;
  net_rw : float;
  net_score : float;
}

type entry = {
  run_id : string;  (** content-addressed; [""] until recorded *)
  timestamp : float;  (** seconds since epoch; [0.0] until recorded *)
  key : string;  (** canonical problem key; [""] outside the service *)
  label : string;
  arch : string;  (** {!Gpusim.Arch.fingerprint} *)
  seed : int;  (** [-1] when the caller could not supply one *)
  dsl : string;  (** canonical DSL source; replay re-tunes from this *)
  max_evals : int;
  batch_size : int;
  pool_per_variant : int;
  reps : int;
  pool_size : int;
  evaluations : int;
  gate_checked : int;
      (** points screened by the static verifier's pre-evaluation gate *)
  gate_rejected : int;  (** points the gate kept out of the pool *)
  gate_diags : (string * int) list;
      (** gate error occurrences per BARxxx code; entries journaled before
          the gate existed decode as [0]/[0]/[[]] *)
  network : network option;
      (** contraction-order provenance; [None] for plain DSL tunes *)
  semantic_ok : bool option;
      (** translation validation of the winner: [Some true] when the
          semantic gate proved it equivalent to its DSL contraction,
          [Some false] when it did not, [None] when validation was
          skipped over its cost budget (and for entries journaled before
          it existed) *)
  iterations : Search_log.iteration list;
  variants : variant list;  (** every evaluated variant, evaluation order *)
  winner : variant;
  importances : (string * float) list;  (** named parameters, descending *)
  residual_r2 : float option;
  rivals : rival list;
}

val to_json : entry -> Json.t
val of_json : Json.t -> (entry, string) result

(** Content-addressed id: digest of the entry with [run_id] and [timestamp]
    blanked. *)
val run_id : entry -> string

(** Append one entry as a single JSONL line (O_APPEND; parents created). *)
val append : string -> entry -> unit

(** Read a journal file: the decodable entries in file order, plus the
    number of discarded (torn or corrupt) lines. A missing file is an
    empty journal. *)
val load : string -> entry list * int

(** Look up by run id: exact match, unique prefix, or ["latest"] / [""]
    for the most recent entry. *)
val find : entry list -> run:string -> (entry, string) result

(** Entries grouped by canonical DSL source - the problem identity that
    survives a device swap, unlike the arch-salted service key - as
    [(dsl, entries in file order)] in first-appearance order. *)
val by_dsl : entry list -> (string * entry list) list

(** [first_divergence a b] names the earliest lineage stage whose hash
    differs ("dsl", "variant", "tcr", "recipe" or "kernel"), or [None]
    when the chains are identical. *)
val first_divergence : lineage -> lineage -> string option

(** {2 Global sink} *)

val enabled : unit -> bool

(** Enable recording; entries accumulate in memory and, when [path] is
    given, are also appended there. *)
val start : ?path:string -> unit -> unit

val stop : unit -> unit

(** Entries recorded since {!start}, oldest first. *)
val entries : unit -> entry list

(** Record one run, stamping its timestamp and {!run_id}. Returns the run
    id, or [None] when the sink is disabled. *)
val record : entry -> string option

(** Run [f] with journaling enabled on a fresh in-memory sink; restores the
    previous sink state afterwards. *)
val collect : (unit -> 'a) -> 'a * entry list

(** {2 Reports} *)

(** First 12 hex digits of a run id. *)
val short : string -> string

(** Device model name: the fingerprint up to its first ['|']. *)
val arch_name : string -> string

(** One line per run: id, time, label, arch, seed, evaluations, best. *)
val render_history : entry list -> string

(** Machine-readable history: one summary object per run in file order
    (ids, key, arch, seed, winner time/label/kernel hash, gate counts,
    network method when present). *)
val history_json : entry list -> Json.t

(** Full report for one run: winner lineage chain, named importances,
    surrogate fit (R-squared, worst over-predictions), rejected rivals. *)
val render_explain : entry -> string
