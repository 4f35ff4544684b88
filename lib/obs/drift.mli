(** Online change-point detection over metric streams.

    Three composable detectors, each allocation-bounded (state is O(1) or
    O(max_buckets) for the sketch-based test, alarms capped at
    {!max_alarms} per monitor) and fully deterministic: observing the same
    (tick, value) sequence twice fires alarms at identical ticks with
    identical statistics. No wall-clock reads, no RNG draws.

    - {b Page-Hinkley}: two-sided test on the running mean. Maintains
      [m_t = sum_i (x_i - mean_i - delta)] and its running minimum; alarms
      when [m_t - min_t > lambda]. Suited to streams with a known absolute
      scale (hit rates in [0,1], mispredict ratios), where [delta] can be
      chosen as the half-width of tolerated drift. With bounded jitter
      [|x - mean| <= delta] the increment is strictly negative, so the
      false-alarm probability on such a stationary stream is exactly 0;
      after a mean shift of [s > delta] the statistic grows by at least
      [s - delta] per tick, so detection delay is at most
      [lambda / (s - delta)] ticks.

    - {b CUSUM}: standardized cumulative sum against a frozen reference
      window. The first [ref_count] observations calibrate [mu0, sigma0];
      then [s+ = max 0 (s+ + z - slack)] / [s- = max 0 (s- - z - slack)]
      with [z = (x - mu0)/sigma0] alarm above [threshold]. Self-scaling:
      no absolute units needed, suited to latency streams.

    - {b Quantile shift}: tumbling windows of [window] observations are
      sketched ({!Sketch}); the first [ref_windows] windows are merged
      into a frozen reference, after which each completed window's
      [p]-quantile is compared to the reference's. Alarms when the ratio
      exceeds [ratio * gamma^2] (resp. falls below its inverse), where
      [gamma = (1+alpha)/(1-alpha)] absorbs the sketch's own relative
      error so a ratio alarm can never be a sketch artifact.

    Monitors are not domain-safe; callers serialize access (see
    {!Service.Metrics}). After an alarm the detector resets to a fresh
    calibration phase, so repeated alarms reflect repeated shifts. *)

type direction = Up | Down

type alarm = {
  monitor : string;  (** owning monitor name *)
  at_tick : int;  (** logical tick of the firing observation *)
  direction : direction;
  statistic : float;  (** detector statistic at firing *)
  threshold : float;  (** configured alarm threshold *)
  observed : float;  (** the observation (or window quantile) that fired *)
  reference : float;  (** calibrated baseline (mean, mu0, or ref quantile) *)
  detail : string;  (** human-readable one-liner *)
}

type t

(** Hard cap on retained alarms per monitor; further alarms are counted in
    {!suppressed} but not stored, keeping monitors allocation-bounded. *)
val max_alarms : int

(** [page_hinkley name] with tolerated drift half-width [delta] (default
    0.05), alarm threshold [lambda] (default 3.0) and a warm-up of
    [min_count] observations (default 30) before alarms may fire. *)
val page_hinkley :
  ?delta:float -> ?lambda:float -> ?min_count:int -> string -> t

(** [cusum name] calibrating on the first [ref_count] observations
    (default 500), with per-step slack [k] in sigma units (default 0.5)
    and alarm threshold [h] in sigma units (default 15.0). *)
val cusum : ?ref_count:int -> ?k:float -> ?h:float -> string -> t

(** [quantile_shift name] comparing the [p]th percentile (default 99) of
    each [window]-observation tumbling window (default 250) against the
    merged reference of the first [ref_windows] windows (default 2),
    alarming when the ratio leaves [1/r, r] for
    [r = ratio * ((1+alpha)/(1-alpha))^2] (default ratio 2.0, alpha
    0.01). *)
val quantile_shift :
  ?p:float ->
  ?ratio:float ->
  ?window:int ->
  ?ref_windows:int ->
  ?alpha:float ->
  string ->
  t

val name : t -> string

(** One-line description of the detector and its parameters. *)
val kind : t -> string

(** Observations seen so far. *)
val count : t -> int

(** [observe t ~tick v] feeds one observation; returns the alarm if this
    observation fired one. Ticks are caller-supplied logical time carried
    into alarms; they do not influence detection. *)
val observe : t -> tick:int -> float -> alarm option

(** Retained alarms, oldest first. *)
val alarms : t -> alarm list

(** Alarms dropped beyond {!max_alarms}. *)
val suppressed : t -> int

(** True while the detector is still calibrating (warm-up / reference
    collection); alarms cannot fire in this phase. *)
val warming_up : t -> bool

(** A named collection of monitors, preserving registration order. *)
type registry

val create_registry : unit -> registry
val register : registry -> t -> unit
val monitors : registry -> t list

(** [find r name] is the registered monitor of that name, if any. *)
val find : registry -> string -> t option

(** [feed r name ~tick v] observes on the named monitor; [None] when the
    monitor is absent or did not alarm. *)
val feed : registry -> string -> tick:int -> float -> alarm option

(** All alarms across the registry, sorted by tick then monitor name. *)
val all_alarms : registry -> alarm list

(** Human-readable registry summary. *)
val render : registry -> string
