(* Cross-artifact root-cause correlator. Pure over its inputs: every
   finding and score is a deterministic function of the journal entries,
   bench artifact and replay summary handed in, so the same artifacts
   produce a bit-identical report (test/journal.t pins it). *)

let spf = Printf.sprintf

type severity = Critical | Warning | Info

let severity_name = function
  | Critical -> "critical"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Critical -> 0 | Warning -> 1 | Info -> 2

type finding = {
  code : string;
  severity : severity;
  subject : string;
  stage : string option;
  suspects : (string * float) list;
  detail : string;
}

type inputs = {
  journal : Journal.entry list;
  discarded : int;
  bench : Bench_log.artifact option;
  replay : Replay.summary option;
}

let no_inputs = { journal = []; discarded = 0; bench = None; replay = None }

(* DR012's mean |predicted/measured - 1| above which a surrogate counts
   as drifted, and DR011's winner-time slack before a diverging lineage
   is a critical regression. *)
let mispredict_threshold = 0.5
let time_tolerance = 0.25

type report = {
  runs : int;
  keys : int;
  archs : int;
  findings : finding list;
}

(* ------------------------------------------------------------------ *)
(* journal groupings ({!Journal.by_dsl}) *)

let uniq xs = List.sort_uniq compare xs

let subject_of = function
  | (e : Journal.entry) :: _ -> e.label
  | [] -> "?"

(* Mean |predicted/measured - 1| over a run's model-guided variants; None
   when the run had no usable predictions. *)
let mispredict (e : Journal.entry) =
  let rs =
    List.filter_map
      (fun (v : Journal.variant) ->
        match v.predicted with
        | Some p when v.measured > 0. ->
          Some (Float.abs ((p /. v.measured) -. 1.))
        | _ -> None)
      e.variants
  in
  match rs with
  | [] -> None
  | _ ->
    Some (List.fold_left ( +. ) 0. rs /. float_of_int (List.length rs))

(* ------------------------------------------------------------------ *)
(* checks; each returns findings in a deterministic order *)

let check_arch_changes gs =
  List.filter_map
    (fun (_, entries) ->
      let archs = uniq (List.map (fun (e : Journal.entry) -> e.arch) entries) in
      if List.length archs < 2 then None
      else
        Some
          {
            code = "DR010";
            severity = Warning;
            subject = subject_of entries;
            stage = None;
            suspects = [ ("arch-change", 1.0) ];
            detail =
              spf "key %s tuned under %d arch fingerprints (%s)"
                (subject_of entries) (List.length archs)
                (String.concat ", " (List.map Journal.arch_name archs));
          })
    gs

let check_kernel_drift gs =
  List.concat_map
    (fun (_, entries) ->
      let archs = uniq (List.map (fun (e : Journal.entry) -> e.arch) entries) in
      List.concat_map
        (fun arch ->
          let runs =
            List.filter (fun (e : Journal.entry) -> e.arch = arch) entries
          in
          let rec pairs = function
            | (a : Journal.entry) :: (b : Journal.entry) :: rest -> (
              match
                Journal.first_divergence a.winner.lineage b.winner.lineage
              with
              | None -> pairs (b :: rest)
              | Some stage ->
                let ratio =
                  if a.winner.measured <= 0. then infinity
                  else b.winner.measured /. a.winner.measured
                in
                let critical = ratio > 1. +. time_tolerance in
                {
                  code = "DR011";
                  severity = (if critical then Critical else Warning);
                  subject = subject_of runs;
                  stage = Some stage;
                  suspects =
                    [ ("kernel-regression", if critical then 1.0 else 0.5) ];
                  detail =
                    spf
                      "winner lineage for %s on %s diverges at the %s stage \
                       between runs %s and %s (time ratio %.3g)"
                      (subject_of runs) (Journal.arch_name arch) stage
                      (Journal.short a.run_id) (Journal.short b.run_id) ratio;
                }
                :: pairs (b :: rest))
            | _ -> []
          in
          pairs runs)
        archs)
    gs

let check_surrogate gs =
  List.filter_map
    (fun (_, entries) ->
      match List.rev entries with
      | [] -> None
      | (latest : Journal.entry) :: _ -> (
        match mispredict latest with
        | Some m when m > mispredict_threshold ->
          Some
            {
              code = "DR012";
              severity = Warning;
              subject = subject_of entries;
              stage = None;
              suspects =
                [
                  ( "surrogate-drift",
                    Float.min 1.0 (m /. (2. *. mispredict_threshold)) );
                ];
              detail =
                spf
                  "surrogate mispredict %.3g on run %s of %s (threshold %g): \
                   the model no longer predicts measured times"
                  m (Journal.short latest.run_id) (subject_of entries)
                  mispredict_threshold;
            }
        | _ -> None))
    gs

let check_cache replay =
  match replay with
  | None -> []
  | Some (s : Replay.summary) ->
    let tuned =
      match List.assoc_opt "tuned" s.served with Some n -> n | None -> 0
    in
    let classes = Array.length s.header.classes in
    if tuned > classes then
      [
        {
          code = "DR013";
          severity = Warning;
          subject = "canonical-cache";
          stage = None;
          suspects = [ ("cache-eviction", 0.9) ];
          detail =
            spf
              "%d cold tunes for %d request classes: the canonical cache \
               re-tuned keys it had already seen (eviction or capacity loss)"
              tuned classes;
        };
      ]
    else []

let check_bench bench replay =
  match (bench, replay) with
  | Some (b : Bench_log.artifact), Some { Replay.verdict = s; _ } ->
    List.concat_map
      (fun (e : Bench_log.experiment) ->
        List.filter_map
          (fun (qname, (q : Bench_log.quantiles)) ->
            if q.q99 > s.spec.latency_budget_s then
              Some
                {
                  code = "DR020";
                  severity = Warning;
                  subject = spf "%s/%s" e.name qname;
                  stage = None;
                  suspects = [ ("serving-regression", 0.6) ];
                  detail =
                    spf
                      "bench artifact %s/%s p99 %.3g s already exceeds the \
                       SLO latency budget %.3g s"
                      e.name qname q.q99 s.spec.latency_budget_s;
                }
            else None)
          e.quantiles)
      b.experiments
  | _ -> []

let check_discarded n =
  if n <= 0 then []
  else
    [
      {
        code = "DR030";
        severity = Info;
        subject = "journal";
        stage = None;
        suspects = [];
        detail =
          spf "%d journal line%s discarded (torn or corrupt)" n
            (if n = 1 then "" else "s");
      };
    ]

(* ---------------- ledger checks (DR04x) ---------------- *)

let check_ledger_dominant ledger =
  match ledger with
  | None -> []
  | Some (r : Ledger.report) -> (
    match r.Ledger.lr_phase_share with
    | [] -> []
    | (p, share) :: _ ->
      [
        {
          code = "DR040";
          severity = Info;
          subject = "ledger";
          stage = None;
          suspects = [];
          detail =
            spf
              "phase %s dominates modeled serve time (%.1f%% of %d requests): \
               it is the first candidate for the next perf PR"
              (Ledger.phase_name p) (100. *. share) r.Ledger.lr_requests;
        };
      ])

(* Queue wait is pure scheduling, not work: when it owns more than a
   quarter of modeled time, adding capacity beats optimizing any phase. *)
let check_ledger_queue ledger =
  match ledger with
  | None -> []
  | Some (r : Ledger.report) -> (
    match List.assoc_opt Ledger.Queue r.Ledger.lr_phase_share with
    | Some share when share > 0.25 ->
      [
        {
          code = "DR041";
          severity = Warning;
          subject = "scheduler-queue";
          stage = None;
          suspects = [ ("queue-wait", Float.min 1.0 (share /. 0.5)) ];
          detail =
            spf
              "scheduler queue wait owns %.1f%% of modeled serve time \
               (threshold 25%%): batch slots, not phase work, dominate p99"
              (100. *. share);
        };
      ]
    | _ -> [])

(* Cold-class phase p99 against the committed ledger bench experiment
   (quantile keys "phase:<name>"): a 2x ratio means the serving replay sees
   a phase far above what the bench artifact says it costs. *)
let check_ledger_bench ledger bench =
  match (ledger, bench) with
  | Some (r : Ledger.report), Some (b : Bench_log.artifact) ->
    let baseline =
      List.concat_map
        (fun (e : Bench_log.experiment) ->
          if e.name = "ledger" then e.quantiles else [])
        b.experiments
    in
    List.filter_map
      (fun (cls, p, (s : Ledger.stat)) ->
        if cls <> Ledger.Cold then None
        else
          match
            List.assoc_opt (spf "phase:%s" (Ledger.phase_name p)) baseline
          with
          | Some (q : Bench_log.quantiles)
            when q.q99 > 0. && s.Ledger.st_p99_s > 2. *. q.q99 ->
            Some
              {
                code = "DR042";
                severity = Warning;
                subject = spf "phase/%s" (Ledger.phase_name p);
                stage = None;
                suspects =
                  [
                    ( "phase-regression",
                      Float.min 1.0 (s.Ledger.st_p99_s /. (4. *. q.q99)) );
                  ];
                detail =
                  spf
                    "cold %s p99 %.3g s is %.1fx the ledger bench baseline \
                     %.3g s: this phase regressed since the artifact was \
                     committed"
                    (Ledger.phase_name p) s.Ledger.st_p99_s
                    (s.Ledger.st_p99_s /. q.q99) q.q99;
              }
          | _ -> None)
      r.Ledger.lr_cells
  | _ -> []

(* The exemplar jump: from the worst p99 bucket straight to the journal
   run that produced it. *)
let check_ledger_exemplar ledger =
  match ledger with
  | None -> []
  | Some (r : Ledger.report) -> (
    match r.Ledger.lr_worst with
    | Some (e : Ledger.exemplar) ->
      [
        {
          code = "DR043";
          severity = Info;
          subject = "exemplar";
          stage = None;
          suspects = [];
          detail =
            spf
              "worst request: tick %d, %s serve, %.3g s, dominated by %s%s%s"
              e.Ledger.ex_tick
              (Ledger.class_name e.Ledger.ex_class)
              e.Ledger.ex_latency_s
              (Ledger.phase_name e.Ledger.ex_phase)
              (* the label names the program, the key prefix its class *)
              (match
                 List.filter_map Fun.id
                   [
                     e.Ledger.ex_label;
                     Option.map (fun k -> "key " ^ Journal.short k) e.Ledger.ex_key;
                   ]
               with
              | [] -> ""
              | parts -> spf " (%s)" (String.concat ", " parts))
              (match e.Ledger.ex_run_id with
              | Some id ->
                spf " - inspect with: explain %s / history --since %s"
                  (Journal.short id) (Journal.short id)
              | None -> "");
        };
      ]
    | None -> [])

(* ---------------- semantic-validation check (DR050) ---------------- *)

(* A journaled run whose winner failed translation validation is the most
   serious finding the doctor can raise: the tuned configuration computes
   the wrong contraction, regardless of how fast it is. *)
let check_semantic entries =
  List.filter_map
    (fun (e : Journal.entry) ->
      match e.semantic_ok with
      | Some false ->
        Some
          {
            code = "DR050";
            severity = Critical;
            subject = e.label;
            stage = None;
            suspects = [ ("semantic-failure", 1.0) ];
            detail =
              spf
                "run %s: winner FAILED translation validation - the tuned \
                 kernel does not compute its contraction; do not deploy \
                 (inspect with: explain %s)"
                (Journal.short e.run_id) (Journal.short e.run_id);
          }
      | _ -> None)
    entries

(* Ranked suspects for the critical (symptom) findings, scored from the
   corroborating (cause) findings; falls back to serving-regression when
   nothing journal-side scores. *)
let attribution cause_findings =
  let score name =
    List.fold_left
      (fun acc f ->
        List.fold_left
          (fun acc (n, s) -> if n = name then Float.max acc s else acc)
          acc f.suspects)
      0. cause_findings
  in
  let names =
    [
      "semantic-failure"; "arch-change"; "kernel-regression"; "surrogate-drift";
      "cache-eviction"; "queue-wait"; "phase-regression";
    ]
  in
  let scored =
    List.filter_map
      (fun n ->
        let s = score n in
        if s > 0. then Some (n, s) else None)
      names
  in
  match scored with
  | [] -> [ ("serving-regression", 0.25) ]
  | _ ->
    List.stable_sort (fun (_, a) (_, b) -> compare (b : float) a) scored

let stage_of cause_findings =
  List.find_map
    (fun f -> if f.code = "DR011" then f.stage else None)
    cause_findings

let check_slo replay ~suspects ~stage =
  match replay with
  | None -> []
  | Some { Replay.verdict = r; _ } ->
    List.filter_map
      (fun (a : Slo.alert) ->
        match a.severity with
        | Slo.Ok -> None
        | Slo.Page ->
          Some
            {
              code = "DR001";
              severity = Critical;
              subject = spf "%s/%s" r.spec.name a.objective;
              stage;
              suspects;
              detail = spf "SLO pages at tick %d: %s" r.at_tick a.detail;
            }
        | Slo.Ticket ->
          Some
            {
              code = "DR003";
              severity = Warning;
              subject = spf "%s/%s" r.spec.name a.objective;
              stage = None;
              suspects = [];
              detail = spf "SLO tickets at tick %d: %s" r.at_tick a.detail;
            })
      r.alerts

let check_alarms alarms ~suspects ~stage =
  List.map
    (fun (a : Drift.alarm) ->
      {
        code = "DR002";
        severity = Critical;
        subject = a.monitor;
        stage;
        suspects;
        detail = a.detail;
      })
    alarms

(* ------------------------------------------------------------------ *)

let diagnose inputs =
  let gs = Journal.by_dsl inputs.journal in
  let ledger =
    Option.map (fun (s : Replay.summary) -> Ledger.report s.ledger) inputs.replay
  in
  let causes =
    check_semantic inputs.journal
    @ check_arch_changes gs
    @ check_kernel_drift gs
    @ check_surrogate gs
    @ check_cache inputs.replay
    @ check_ledger_queue ledger
    @ check_ledger_bench ledger inputs.bench
  in
  let suspects = attribution causes in
  let stage = stage_of causes in
  let alarms =
    match inputs.replay with None -> [] | Some s -> s.Replay.alarms
  in
  let findings =
    check_slo inputs.replay ~suspects ~stage
    @ check_alarms alarms ~suspects ~stage
    @ causes
    @ check_bench inputs.bench inputs.replay
    @ check_ledger_dominant ledger
    @ check_ledger_exemplar ledger
    @ check_discarded inputs.discarded
  in
  let findings =
    List.stable_sort
      (fun a b ->
        match compare (severity_rank a.severity) (severity_rank b.severity) with
        | 0 -> (
          match compare a.code b.code with
          | 0 -> compare a.subject b.subject
          | c -> c)
        | c -> c)
      findings
  in
  {
    runs = List.length inputs.journal;
    keys = List.length gs;
    archs =
      List.length
        (uniq (List.map (fun (e : Journal.entry) -> e.arch) inputs.journal));
    findings;
  }

let has_critical r =
  List.exists (fun f -> f.severity = Critical) r.findings

let finding_to_json f =
  Json.Obj
    ([
       ("code", Json.Str f.code);
       ("severity", Json.Str (severity_name f.severity));
       ("subject", Json.Str f.subject);
     ]
    @ (match f.stage with None -> [] | Some s -> [ ("stage", Json.Str s) ])
    @ [
        ( "suspects",
          Json.Arr
            (List.map
               (fun (n, s) -> Json.Arr [ Json.Str n; Json.Num s ])
               f.suspects) );
        ("detail", Json.Str f.detail);
      ])

let count sev r =
  List.length (List.filter (fun f -> f.severity = sev) r.findings)

let to_json r =
  Json.Obj
    [
      ("schema_version", Json.of_int 1);
      ("runs", Json.of_int r.runs);
      ("keys", Json.of_int r.keys);
      ("archs", Json.of_int r.archs);
      ("critical", Json.of_int (count Critical r));
      ("warning", Json.of_int (count Warning r));
      ("info", Json.of_int (count Info r));
      ("findings", Json.Arr (List.map finding_to_json r.findings));
    ]

let render r =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (spf "doctor: %d run%s, %d key%s, %d arch%s - %d critical, %d warning, %d \
          info\n"
       r.runs
       (if r.runs = 1 then "" else "s")
       r.keys
       (if r.keys = 1 then "" else "s")
       r.archs
       (if r.archs = 1 then "" else "s")
       (count Critical r) (count Warning r) (count Info r));
  if r.findings = [] then Buffer.add_string b "  healthy: no findings\n"
  else
    List.iter
      (fun f ->
        Buffer.add_string b
          (spf "  [%s] %s %s - %s\n"
             (String.uppercase_ascii (severity_name f.severity))
             f.code f.subject f.detail);
        (match f.stage with
        | Some s ->
          Buffer.add_string b (spf "      earliest diverging stage: %s\n" s)
        | None -> ());
        match f.suspects with
        | [] -> ()
        | ss ->
          Buffer.add_string b
            (spf "      suspects: %s\n"
               (String.concat ", "
                  (List.map (fun (n, s) -> spf "%s (%.2f)" n s) ss))))
      r.findings;
  Buffer.contents b
