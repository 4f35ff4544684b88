(** Service metrics: named counters and wall-clock timers with decade
    latency histograms. All operations are domain-safe.

    A timer is one {!Obs.Sketch}: quantiles plus count, total, min/max
    and Welford moments. Summaries, histograms and the Prometheus
    exposition all read it, so a timer's memory is bounded by the
    sketch's buckets no matter how long the service runs. *)

type t

val create : unit -> t

val incr : ?by:int -> t -> string -> unit

(** Record one duration, in seconds, under a timer name. *)
val observe : t -> string -> float -> unit

(** Current value of a counter (0 if never incremented). *)
val counter : t -> string -> int

(** Per-timer {!Obs.Sketch.summary}, sorted by name: quantiles within the
    sketch's 1% relative error, the other fields exact streaming
    moments. *)
val summaries : t -> (string * Obs.Sketch.summary) list

(** Independent copies of the per-timer quantile sketches, sorted by
    name - the source for native-histogram exposition. *)
val sketches : t -> (string * Obs.Sketch.t) list

(** Prometheus text exposition: counters plus native histograms
    ([_bucket]/[le] lines) sourced from the timer sketches
    (see {!Obs.Export.prometheus_sketches}). *)
val prometheus : ?prefix:string -> t -> string

(** Decade buckets from 100us to 10s: [("<100us", n); ...; (">=10s", n)],
    summing to the timer's count. Each sketch bucket counts in the decade
    of its upper bound, so a sample within the sketch's relative error
    (1%) below a decade edge may count in the decade above it. Cache hits
    land in the microsecond buckets, cold tunes in the second buckets. *)
val histogram : t -> string -> (string * int) list

(** Human-readable report: counters, timer summaries, histograms. *)
val render : t -> string
