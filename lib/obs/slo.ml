(* Multi-window burn-rate SLO evaluation over a Window ring. Pure over the
   window state: no clock reads, no RNG, so replayed traffic yields a
   bit-identical report. *)

type spec = {
  name : string;
  latency_p : float;
  latency_budget_s : float;
  error_objective : float;
  short_epochs : int;
  long_epochs : int;
  page_burn : float;
  ticket_burn : float;
}

let default_spec =
  {
    name = "serving";
    latency_p = 99.0;
    latency_budget_s = 0.005;
    error_objective = 0.01;
    short_epochs = 1;
    long_epochs = 8;
    page_burn = 10.0;
    ticket_burn = 2.0;
  }

type severity = Page | Ticket | Ok

let severity_name = function Page -> "page" | Ticket -> "ticket" | Ok -> "ok"

type alert = {
  objective : string;
  severity : severity;
  observed_short : float;
  observed_long : float;
  budget : float;
  burn_short : float;
  burn_long : float;
  detail : string;
}

type report = {
  spec : spec;
  at_tick : int;
  requests : int;
  alerts : alert list;
}

(* burn = observed/budget; 0 budget means any observation burns infinitely *)
let burn ~budget observed =
  if observed <= 0.0 || Float.is_nan observed then 0.0
  else if budget <= 0.0 then infinity
  else observed /. budget

let latency_alert spec (short : Window.snapshot) (long : Window.snapshot) =
  let p_short = Window.quantile short spec.latency_p in
  let p_long = Window.quantile long spec.latency_p in
  (* NaN is the quantile of an empty window; +inf is over any budget *)
  let over v = (not (Float.is_nan v)) && v > spec.latency_budget_s in
  let severity =
    match (over p_short, over p_long) with
    | true, true -> Page
    | true, false | false, true -> Ticket
    | false, false -> Ok
  in
  {
    objective = "latency";
    severity;
    observed_short = p_short;
    observed_long = p_long;
    budget = spec.latency_budget_s;
    burn_short = burn ~budget:spec.latency_budget_s p_short;
    burn_long = burn ~budget:spec.latency_budget_s p_long;
    detail =
      Printf.sprintf "p%g %s: short %.6gs, long %.6gs vs budget %.6gs"
        spec.latency_p (severity_name severity) p_short p_long spec.latency_budget_s;
  }

let error_alert spec (short : Window.snapshot) (long : Window.snapshot) =
  let b_short = burn ~budget:spec.error_objective short.error_ratio in
  let b_long = burn ~budget:spec.error_objective long.error_ratio in
  let severity =
    if b_short >= spec.page_burn && b_long >= spec.page_burn then Page
    else if b_short >= spec.ticket_burn && b_long >= spec.ticket_burn then Ticket
    else Ok
  in
  {
    objective = "error-rate";
    severity;
    observed_short = short.error_ratio;
    observed_long = long.error_ratio;
    budget = spec.error_objective;
    burn_short = b_short;
    burn_long = b_long;
    detail =
      Printf.sprintf "error-rate %s: burn %.2fx short / %.2fx long vs objective %g"
        (severity_name severity) b_short b_long spec.error_objective;
  }

let severity_rank = function Page -> 0 | Ticket -> 1 | Ok -> 2

let evaluate spec window ~now =
  let short = Window.snapshot ~last:spec.short_epochs window ~now in
  let long = Window.snapshot ~last:spec.long_epochs window ~now in
  let alerts =
    [ latency_alert spec short long; error_alert spec short long ]
    |> List.stable_sort (fun a b -> compare (severity_rank a.severity) (severity_rank b.severity))
  in
  { spec; at_tick = now; requests = long.requests; alerts }

let ok r = not (List.exists (fun a -> a.severity = Page) r.alerts)

(* ---------------- JSON ---------------- *)

let spec_to_json s =
  Json.Obj
    [
      ("name", Json.Str s.name);
      ("latency_p", Json.Num s.latency_p);
      ("latency_budget_s", Json.Num s.latency_budget_s);
      ("error_objective", Json.Num s.error_objective);
      ("short_epochs", Json.of_int s.short_epochs);
      ("long_epochs", Json.of_int s.long_epochs);
      ("page_burn", Json.Num s.page_burn);
      ("ticket_burn", Json.Num s.ticket_burn);
    ]

let spec j =
  let s =
    Json.
      {
        name = str "name" j;
        latency_p = num "latency_p" j;
        latency_budget_s = num "latency_budget_s" j;
        error_objective = num "error_objective" j;
        short_epochs = int "short_epochs" j;
        long_epochs = int "long_epochs" j;
        page_burn = num "page_burn" j;
        ticket_burn = num "ticket_burn" j;
      }
  in
  if not (s.latency_p >= 0.0 && s.latency_p <= 100.0) then
    Json.fail "latency_p %g is not a percentile in [0, 100]" s.latency_p;
  if s.short_epochs < 1 || s.long_epochs < 1 then
    Json.fail "short_epochs and long_epochs must be >= 1";
  s

let spec_of_json = Json.decode spec

let render r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "SLO %s @ tick %d (%d requests in the long window): %s\n"
       r.spec.name r.at_tick r.requests
       (if ok r then "OK" else "VIOLATED"));
  List.iter (fun a -> Buffer.add_string b (Printf.sprintf "  [%s] %s\n"
                                             (String.uppercase_ascii (severity_name a.severity))
                                             a.detail))
    r.alerts;
  Buffer.contents b
