(** Service metrics: named counters and wall-clock timers with decade
    latency histograms. All operations are domain-safe.

    Timers are streaming: every observation updates an {!Obs.Sketch}
    (quantiles plus count, total, min/max and Welford moments) and a
    decade histogram; only the most recent {!raw_sample_cap} raw samples
    are retained, so a timer's memory is bounded no matter how long the
    service runs. Summaries are exact (via {!Util.Stats}) up to the cap
    and switch to the sketch's moments and quantiles beyond it. *)

type t

(** Raw samples retained per timer (1024). At or below this count,
    {!summaries} is exact over the full history; beyond it, quantiles come
    from the sketch (relative error {!sketch_alpha}) and the other fields
    from its exact streaming moments. *)
val raw_sample_cap : int

(** Relative accuracy of the per-timer quantile sketches (0.01). *)
val sketch_alpha : float

val create : unit -> t

val incr : ?by:int -> t -> string -> unit

(** Record one duration, in seconds, under a timer name. *)
val observe : t -> string -> float -> unit

(** Current value of a counter (0 if never incremented). *)
val counter : t -> string -> int

(** Retained raw durations of a timer, oldest first: the full history up
    to {!raw_sample_cap} observations, the most recent cap afterwards. *)
val observations : t -> string -> float list

type timer_summary = {
  count : int;  (** observations ever, not capped *)
  total_s : float;
  mean_s : float;
  median_s : float;
  p90_s : float;
  p99_s : float;
  min_s : float;
  max_s : float;
  stddev_s : float;  (** population, like {!Util.Stats.stddev} *)
}

val summaries : t -> (string * timer_summary) list

(** Independent copies of the per-timer quantile sketches, sorted by
    name - the source for native-histogram exposition. *)
val sketches : t -> (string * Obs.Sketch.t) list

(** Prometheus text exposition: counters plus native histograms
    ([_bucket]/[le] lines) sourced from the timer sketches
    (see {!Obs.Export.prometheus_sketches}). *)
val prometheus : ?prefix:string -> t -> string

(** Decade buckets from 100us to 10s: [("<100us", n); ...; (">=10s", n)].
    Counts are streaming (never capped); cache hits land in the
    microsecond buckets, cold tunes in the second buckets. *)
val histogram : t -> string -> (string * int) list

(** Human-readable report: counters, timer summaries, histograms. *)
val render : t -> string
