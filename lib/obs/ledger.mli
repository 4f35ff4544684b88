(** Causal cost ledger: constant-memory per-request phase attribution for
    the serving hot path.

    The ledger answers the question: {e which phase of a serve actually
    dominates tail latency?} The loadgen replay decomposes every request's
    deterministic latency model into per-phase costs (canonicalize,
    lookup, queue wait, enumerate, prune, static gate, surrogate, measure,
    codegen, store), split by serve class (cold/warm/in-batch-dedup), and
    feeds them to {!observe}. Each (class, phase) cell is one {!Sketch} -
    quantiles plus exact streaming moments - so memory is
    O(classes x phases x sketch buckets) regardless of traffic. (Recorded
    span trees are folded by {!Trace.accounts}.)

    Reconciliation invariant: per serve class, the per-phase costs fed to
    {!observe} sum to the recorded end-to-end latency (the loadgen model
    scales every phase by the same jitter/degrade multiplier). It is
    QCheck-pinned; {!reconcile} exposes the sums.

    High-latency exemplars: a ring of window slots (lazy eviction, like
    {!Window}) remembers the worst request per slot - tick, latency,
    class, dominant phase, and the originating journal run id when known -
    so {!Doctor} can jump from a slow p99 bucket to the exact tuning run.

    Everything is deterministic: no wall-clock reads, no RNG; two
    identical replays produce bit-identical reports. *)

(** Serving phases, in pipeline order. [Queue] is scheduler wait (batch
    position), not work; [Measure] covers both cold-tune empirical
    evaluation and warm-hit restore measurement. *)
type phase =
  | Canonicalize
  | Lookup
  | Queue
  | Enumerate
  | Prune
  | Gate
  | Surrogate
  | Measure
  | Codegen
  | Store

val all_phases : phase list

val phase_name : phase -> string
val phase_of_name : string -> phase option

(** How the engine served a request: [Cold] tuned it, [Warm] restored a
    memory/disk cache hit, [Dedup] rode an in-batch equivalent's work. *)
type serve_class = Cold | Warm | Dedup

val all_classes : serve_class list
val class_name : serve_class -> string

(* ------------------------------------------------------------------ *)
(* Streaming per-request ledger *)

type t

(** [create ()] with [alpha] sketch accuracy (default 0.01), [slot_width]
    ticks per exemplar slot (default 250) and [slots] in the exemplar
    ring (default 16). Raises [Invalid_argument] on non-positive
    [slot_width] or [slots]. *)
val create : ?alpha:float -> ?slot_width:int -> ?slots:int -> unit -> t

(** Account one request: its serve class, end-to-end latency, and the
    per-phase cost decomposition (expected to sum to [latency_s]; the
    difference is tracked, not rejected - see {!reconcile}). [label],
    [key] and [run_id] annotate the slot exemplar when this request is
    the worst in its slot. *)
val observe :
  ?label:string ->
  ?key:string ->
  ?run_id:string ->
  t ->
  tick:int ->
  cls:serve_class ->
  ok:bool ->
  latency_s:float ->
  (phase * float) list ->
  unit

(** Per serve class: (requests, summed per-phase costs, summed end-to-end
    latency). The reconciliation invariant is that the two sums agree
    within floating-point tolerance. Classes never observed are omitted. *)
val reconcile : t -> (serve_class * int * float * float) list

(** Worst request of one exemplar slot (or of the whole run). *)
type exemplar = {
  ex_slot : int;  (** slot epoch = tick / slot_width; -1 for overall *)
  ex_tick : int;
  ex_latency_s : float;
  ex_class : serve_class;
  ex_phase : phase;  (** dominant phase (largest cost, ties by order) *)
  ex_label : string option;
  ex_key : string option;
  ex_run_id : string option;  (** journal run id, when the caller knew it *)
}

type report = {
  lr_requests : int;
  lr_errors : int;
  lr_slot_width : int;
  lr_overall : Sketch.summary;  (** end-to-end latency, all classes *)
  lr_classes : (serve_class * Sketch.summary) list;  (** end-to-end per class *)
  lr_cells : (serve_class * phase * Sketch.summary) list;  (** per-phase costs *)
  lr_phase_share : (phase * float) list;
      (** phase's share of summed modeled time, all classes, descending *)
  lr_exemplars : exemplar list;  (** live slots in epoch order *)
  lr_worst : exemplar option;  (** worst request of the whole run *)
}

val report : t -> report

(** The phase with the largest share (ties by pipeline order). *)
val dominant : report -> phase option

val report_json : report -> Json.t
val render : report -> string

(** Per-(class, phase) native-histogram exposition
    ([<prefix>_phase_<class>_<phase>_seconds]) plus per-class end-to-end
    histograms, via {!Export.prometheus_sketches}. *)
val prometheus : ?prefix:string -> t -> string
