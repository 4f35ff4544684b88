(** Sliding time-windowed aggregation: a ring of {!Sketch} buckets over a
    deterministic logical clock.

    Time is an integer tick counter supplied by the caller (a request
    index, a simulation step - never a wall-clock read), split into epochs
    of [width] ticks. The ring holds [buckets] epochs; an observation at
    tick [now] lands in slot [(now/width) mod buckets], lazily evicting
    whatever older epoch occupied the slot. Eviction therefore depends
    only on the observed tick sequence, so replaying the same stream gives
    a bit-identical window state.

    Queries merge the sketches of the live epochs in a fixed (ascending
    epoch) order, so snapshots are deterministic too. Not domain-safe;
    callers serialize access. *)

type t

(** [create ~width ~buckets ()] - [width] ticks per epoch, [buckets]
    epochs in the ring, sketch accuracy [alpha] (default 0.01). Raises
    [Invalid_argument] unless both are >= 1. *)
val create : ?alpha:float -> width:int -> buckets:int -> unit -> t

(** Record one request at logical tick [now]: whether it succeeded and its
    latency in seconds (failed requests feed the latency sketch too). *)
val observe : t -> now:int -> ok:bool -> float -> unit

(** Aggregate view over the last [last] epochs ending at [now]'s epoch
    (default: the whole ring). Epochs that were evicted - or never
    observed - contribute nothing. *)
type snapshot = {
  snap_now : int;
  epochs : int;  (** epochs the query covered (live or not) *)
  ticks : int;  (** covered ticks: [epochs * width], capped at [now+1] *)
  requests : int;
  errors : int;
  error_ratio : float;  (** errors/requests; [0.] when empty *)
  rate : float;  (** requests per tick over the covered span *)
  sketch : Sketch.t;  (** merged latency sketch of the covered epochs *)
}

val snapshot : ?last:int -> t -> now:int -> snapshot

(** [quantile snap p]: latency quantile of the merged sketch, [p] in
    [0, 100]; [nan] when the window saw no requests. *)
val quantile : snapshot -> float -> float

(** Per-epoch view of the live ring, oldest epoch first: epoch number,
    request/error counts and p50/p99, for dashboard rendering. *)
type slot_view = {
  epoch : int;
  slot_requests : int;
  slot_errors : int;
  slot_p50 : float;
  slot_p99 : float;
}

val slots : t -> now:int -> slot_view list

(** Text dashboard of the live ring at [now]: one row per epoch (ticks,
    requests, errors, p50/p99) plus a unicode sparkline of p99 across
    epochs. Deterministic for a given window state. *)
val render : t -> now:int -> string
