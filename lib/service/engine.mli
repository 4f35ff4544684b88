(** The tuning service: a long-lived front end over the one-shot pipeline.
    Requests are canonicalized ({!Canonical}), deduplicated, served from
    the persistent cache ({!Tuning_cache}) when possible, and otherwise
    tuned - across OCaml 5 domains when a batch has several cold keys,
    inside SURF's per-iteration evaluation batch when it has one. Every
    stage reports to a {!Metrics} registry.

    Determinism: a response depends only on the canonical key and the
    service configuration - never on batch composition, domain count or
    cache state. Tuning the same program with 1, 2 or 4 domains yields a
    bit-identical winning configuration, because evaluation is pure and
    batches are merged back in input order. *)

type request = { label : string; src : string }

type served =
  | Tuned  (** cold: a full SURF search ran *)
  | Memory_hit  (** served from the LRU front *)
  | Disk_hit  (** promoted from the persistent store *)
  | Deduplicated  (** shared an equivalent request's result in this batch *)

val served_name : served -> string

type response = {
  label : string;
  key : string;  (** canonical cache key *)
  served : served;
  result : Autotune.Tuner.result;  (** for the canonical program *)
  renaming : Canonical.renaming;  (** original -> canonical names *)
  wall_s : float;  (** wall time attributed to this request *)
}

type config = {
  arch : Gpusim.Arch.t;
  domains : int;
  clamp_domains : bool;
      (** cap [domains] at the hardware's recommended count (default on:
          oversubscribed domains are slower, not just useless) *)
  max_evals : int;
  batch_size : int;
  pool_per_variant : int;
  reps : int;
  seed : int;
  cache_dir : string option;  (** [None] = memory-only cache *)
  cache_capacity : int;
}

(** GTX 980, 1 domain, the paper's search budget, memory-only cache. *)
val default_config : config

type t

val create : ?config:config -> unit -> t

val metrics : t -> Metrics.t

(** The engine's self-watching {!Obs.Drift} monitors: a [cache.hit_rate]
    monitor fed 0/1 per response (Page-Hinkley pages when the hit rate
    collapses, i.e. eviction or key churn) and a [surrogate.mispredict]
    monitor fed [|predicted/measured - 1|] per model-guided evaluation of
    every cold tune. Fed on the caller's domain inside {!batch}; feeding
    draws no RNG, so tuning results are unchanged. The registry is not
    domain-safe - query it from the domain that calls {!batch}. *)
val drift : t -> Obs.Drift.registry

val cache_stats : t -> Tuning_cache.stats

(** Worker count after clamping (see {!Scheduler.create}). *)
val effective_domains : t -> int

(** Serve a batch: responses in request order. *)
val batch : t -> request list -> response list

val tune_dsl : ?label:string -> t -> string -> response

(** Rendered metrics plus cache counters plus drift-monitor summary. *)
val stats_report : t -> string

(** Prometheus text exposition of the service metrics and cache gauges. *)
val prometheus_report : t -> string

(** Human-readable SURF convergence report for one response; notes when no
    search ran (cache hits carry no iterations). *)
val convergence_report : response -> string
