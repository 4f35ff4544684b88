(** Hierarchical tracing with a global, disabled-by-default sink.

    Instrumented code calls {!with_span}; when tracing is off this is one
    atomic load plus a closure call, so instrumentation can stay on
    permanently in hot paths. When tracing is on, completed spans carry a
    begin/end timestamp pair, a parent span id (linkage is a per-domain
    stack), the recording domain's id and arbitrary key=value attributes.

    Domain safety: each domain appends to its own buffer (domain-local
    storage, registered once under a mutex); {!events} merges the buffers,
    so traces taken across {!Service.Scheduler} workers stay coherent. *)

(** A completed span. *)
type event = {
  id : int;  (** unique, process-wide *)
  parent : int option;  (** enclosing span on the same domain *)
  name : string;
  cat : string;  (** pipeline stage: "octopi", "tcr", "surf", ... *)
  domain : int;  (** recording domain's id *)
  t0 : float;  (** begin, seconds since the Unix epoch *)
  t1 : float;  (** end *)
  attrs : (string * string) list;
}

(** Handle to a live span, for attaching attributes computed mid-span. *)
type span

val enabled : unit -> bool

(** Per-domain buffer capacity (default 65536 spans). A domain at
    capacity counts further spans as dropped instead of recording them,
    so a runaway traced loop cannot grow the sink without bound. *)
val capacity : unit -> int

(** Raises [Invalid_argument] below 1. Takes effect immediately on all
    domains; buffers already over the new cap keep their events but
    record nothing further. *)
val set_capacity : int -> unit

(** Spans dropped at capacity since the last {!start}/{!clear}. Surfaced
    by the exporters ({!Export.chrome_trace} [otherData], Prometheus
    [dropped_spans] counter) and [Engine.stats_report]. *)
val dropped : unit -> int

(** Clear the sink and enable recording. *)
val start : unit -> unit

(** Disable recording; recorded events stay available via {!events}. *)
val stop : unit -> unit

(** Drop all recorded events and reset the {!dropped} counter (recording
    state unchanged). *)
val clear : unit -> unit

(** All completed spans, merged across domains, sorted by begin time.
    Spans still open are not included. *)
val events : unit -> event list

(** [with_span ?cat ?attrs name f] runs [f] inside a span. [attrs] is a
    thunk so attribute construction costs nothing when tracing is off; it is
    evaluated at span end, after any {!add_attrs}. The span is recorded even
    if [f] raises. *)
val with_span :
  ?cat:string -> ?attrs:(unit -> (string * string) list) -> string -> (span -> 'a) -> 'a

(** Like {!with_span} but also returns the wall-clock duration in seconds,
    measured whether or not tracing is enabled - the bridge that lets one
    measurement feed both the trace and a {!Service.Metrics} timer. *)
val timed :
  ?cat:string ->
  ?attrs:(unit -> (string * string) list) ->
  string ->
  (span -> 'a) ->
  'a * float

(** Attach attributes to a live span (no-op when tracing is off). *)
val add_attrs : span -> (string * string) list -> unit

(** [collect f]: run [f] with tracing enabled on a cleared sink; return its
    value together with the merged events. Restores the previous
    enabled/disabled state (but not previously recorded events). *)
val collect : (unit -> 'a) -> 'a * event list

(** {2 Span accounting} *)

(** Aggregated time of one (category, name) span kind. [self_s] is
    duration minus same-domain children; summed over a span tree it
    telescopes to the root duration. Totals sum in event order. *)
type account = {
  acct_cat : string;
  acct_name : string;
  acct_count : int;
  acct_total_s : float;
  acct_self_s : float;
  acct_child_s : float;
}

(** The one fold over recorded spans: per-(cat, name) accounts, sorted by
    self time descending (ties by cat then name). {!Bench_log} projects
    it to (count, total) per span kind. *)
val accounts : event list -> account list
