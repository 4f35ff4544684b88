(** The verifier facade: the three analysis layers ({!Ir_check},
    {!Recipe_check}, {!Kernel_check}) composed over whole programs, single
    search points and emitted kernels.

    The tuner's pre-evaluation gate calls {!space_point} (with
    [~lints:false]) on every candidate before it is measured; the [check]
    CLI subcommand calls {!program} over every variant of a DSL source. *)

(** What the tuner's gate saw: points checked, points rejected, and error
    occurrences per diagnostic code. *)
type gate_stats = {
  checked : int;
  rejected : int;
  by_code : (string * int) list;
}

val empty_stats : gate_stats

type report = {
  variants : int;
  points_checked : int;
  kernels_checked : int;  (** points that survived to layer 3 *)
  truncated : bool;  (** a per-op point cap cut the sweep short *)
  diags : Diag.t list;
}

val empty_report : report

(** Layer 1 alone: TCR well-formedness. *)
val ir : Tcr.Ir.t -> Diag.t list

(** Layers 2+3 for one search point: recipe legality, then - only when
    clean - lowering (a raise becomes BAR001) and kernel analysis.
    [~lints:false] computes errors only at both layers (no BAR026/BAR027
    recipe lints, no BAR07x kernel lints): the result is exactly the error
    subset of the lints-on result. *)
val space_point :
  ?lints:bool ->
  ?label:string ->
  arch:Gpusim.Arch.t ->
  Tcr.Space.t ->
  Tcr.Space.point ->
  Diag.t list

(** Sweep one variant's whole search space (layer 1 once, layers 2+3 per
    enumerated point, capped per op by [max_points_per_op]). *)
val choice :
  ?lints:bool ->
  ?max_points_per_op:int ->
  ?label:string ->
  arch:Gpusim.Arch.t ->
  Tcr.Space.program_space ->
  report

(** Sweep every labeled variant and merge the reports. *)
val program :
  ?lints:bool ->
  ?max_points_per_op:int ->
  arch:Gpusim.Arch.t ->
  (string * Tcr.Space.program_space) list ->
  report

(** ["summary: E errors, W warnings, I infos"] - the text-mode rendering
    of the JSON report's per-severity ["summary"] block. *)
val summary_line : report -> string

val report_json : report -> Obs.Json.t
