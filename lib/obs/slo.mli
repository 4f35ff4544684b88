(** Declarative SLO specs evaluated with multi-window burn-rate alerting.

    A spec names two objectives over a {!Window}: a tail-latency budget
    (the [latency_p]-th percentile must stay at or below
    [latency_budget_s]) and an error-rate objective ([error_objective] as
    a failed-request ratio). Each objective is evaluated over a short and
    a long window (in ring epochs) in the multi-window burn-rate style:
    the long window shows the breach is sustained, the short window that
    it is still happening.

    Burn rate is observed/objective. For errors, [Page] requires both
    windows at or above [page_burn] and [Ticket] both at or above
    [ticket_burn]; for latency the budget itself is the threshold ([Page]
    when both windows breach it, [Ticket] when exactly one does). An
    infinite quantile breaches any budget; the NaN quantile of an empty
    window breaches none.

    Evaluation is pure over the window state, so fixed-seed replays
    produce bit-identical reports. A saved replay is re-evaluated from its
    recorded requests ({!Replay}), so the report itself has no codec. *)

type spec = {
  name : string;
  latency_p : float;  (** percentile under budget, e.g. 99.0 *)
  latency_budget_s : float;
  error_objective : float;  (** tolerated error ratio, e.g. 0.01 *)
  short_epochs : int;  (** short window, in ring epochs *)
  long_epochs : int;
  page_burn : float;  (** error burn rate that pages when sustained *)
  ticket_burn : float;
}

(** p99 <= 5ms, 1% errors, 1/8-epoch windows, page at 10x burn, ticket at
    2x. *)
val default_spec : spec

type severity = Page | Ticket | Ok

val severity_name : severity -> string

type alert = {
  objective : string;  (** ["latency"] or ["error-rate"] *)
  severity : severity;
  observed_short : float;  (** latency in seconds, or error ratio *)
  observed_long : float;
  budget : float;  (** the spec threshold the observations compare to *)
  burn_short : float;  (** observed/budget *)
  burn_long : float;
  detail : string;  (** human-readable one-liner *)
}

type report = {
  spec : spec;
  at_tick : int;
  requests : int;  (** requests inside the long window *)
  alerts : alert list;  (** one per objective, worst first *)
}

val evaluate : spec -> Window.t -> now:int -> report

(** No [Page]-severity alert ([Ticket]s degrade gracefully). *)
val ok : report -> bool

val render : report -> string

(** Round-trip a spec (the {!Replay} artifact's header records the spec
    the replay ran under). *)
val spec_to_json : spec -> Json.t

val spec_of_json : Json.t -> (spec, string) result
