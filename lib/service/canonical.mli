(** Canonical form of a contraction program: the cache identity of the
    tuning service. Equivalent requests - the same problem up to index and
    tensor renaming, extent-declaration order, Sum-list order or implicit
    default extents - share one key; different extents, statement
    structure or target architecture never do. *)

type renaming = {
  indices : (string * string) list;  (** original -> canonical, appearance order *)
  tensors : (string * string) list;
}

type t = {
  key : string;  (** hex digest: the cache identity *)
  rendered : string;  (** canonical DSL text (reparsable) *)
  program : Octopi.Ast.program;
  renaming : renaming;
  arch_fingerprint : string;
}

(** Apply name substitutions without touching structure (both default to
    the identity). Used by tests and benchmarks to build equivalent
    requests. *)
val relabel :
  ?index:(string -> string) ->
  ?tensor:(string -> string) ->
  Octopi.Ast.program ->
  Octopi.Ast.program

(** Raises {!Octopi.Contraction.Invalid}, naming the user's tensors, when
    the program fails the front end's checks. *)
val of_program : arch:Gpusim.Arch.t -> Octopi.Ast.program -> t

(** Parse then {!of_program}. Raises {!Octopi.Parse.Error} on bad input. *)
val of_dsl : arch:Gpusim.Arch.t -> string -> t

(** The canonical benchmark the service tunes (and whose artifacts it
    caches). *)
val benchmark : t -> Autotune.Tuner.benchmark

(** A message about {!benchmark}, as {!Autotune.Tuner.Empty_space}'s,
    restated in a request's terms: [label] for the canonical label, and
    the user's name for the tensor of each op site ([op1(t0)]), through
    the renaming. *)
val restate : t -> label:string -> string -> string
