(* Causal cost ledger: a streaming per-request accountant over modeled
   phase costs (constant memory: one Sketch per (class, phase) cell).
   Everything is pure arithmetic over the inputs - no clock reads, no RNG -
   so replayed traffic yields bit-identical reports. *)

let spf = Printf.sprintf

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

let all_phases =
  [ Canonicalize; Lookup; Queue; Enumerate; Prune; Gate; Surrogate; Measure;
    Codegen; Store ]

let phase_name = function
  | Canonicalize -> "canonicalize"
  | Lookup -> "lookup"
  | Queue -> "queue"
  | Enumerate -> "enumerate"
  | Prune -> "prune"
  | Gate -> "gate"
  | Surrogate -> "surrogate"
  | Measure -> "measure"
  | Codegen -> "codegen"
  | Store -> "store"

let phase_of_name n = List.find_opt (fun p -> phase_name p = n) all_phases

type serve_class = Cold | Warm | Dedup

let all_classes = [ Cold; Warm; Dedup ]

let class_name = function Cold -> "cold" | Warm -> "warm" | Dedup -> "dedup"

type exemplar = {
  ex_slot : int;
  ex_tick : int;
  ex_latency_s : float;
  ex_class : serve_class;
  ex_phase : phase;
  ex_label : string option;
  ex_key : string option;
  ex_run_id : string option;
}

type slot = { mutable s_epoch : int; mutable s_ex : exemplar option }

type t = {
  alpha : float;
  slot_width : int;
  ring : slot array;
  cells : (serve_class * phase, Sketch.t) Hashtbl.t;  (* per-phase costs *)
  e2e : (serve_class, Sketch.t) Hashtbl.t;  (* end-to-end latency *)
  overall : Sketch.t;
  mutable requests : int;
  mutable errors : int;
  mutable worst : exemplar option;
}

let create ?(alpha = 0.01) ?(slot_width = 250) ?(slots = 16) () =
  if slot_width < 1 then invalid_arg "Ledger.create: slot_width must be >= 1";
  if slots < 1 then invalid_arg "Ledger.create: slots must be >= 1";
  {
    alpha;
    slot_width;
    ring = Array.init slots (fun _ -> { s_epoch = -1; s_ex = None });
    cells = Hashtbl.create 32;
    e2e = Hashtbl.create 4;
    overall = Sketch.create ~alpha ();
    requests = 0;
    errors = 0;
    worst = None;
  }

let get tbl alpha key =
  match Hashtbl.find_opt tbl key with
  | Some c -> c
  | None ->
    let c = Sketch.create ~alpha () in
    Hashtbl.add tbl key c;
    c

let dominant_phase costs =
  List.fold_left
    (fun acc (p, v) ->
      match acc with
      | None -> Some (p, v)
      | Some (_, bv) -> if v > bv then Some (p, v) else acc)
    None costs
  |> Option.map fst

let observe ?label ?key ?run_id t ~tick ~cls ~ok ~latency_s costs =
  if tick < 0 then invalid_arg "Ledger.observe: negative tick";
  t.requests <- t.requests + 1;
  if not ok then t.errors <- t.errors + 1;
  Sketch.add t.overall latency_s;
  Sketch.add (get t.e2e t.alpha cls) latency_s;
  List.iter (fun (p, v) -> Sketch.add (get t.cells t.alpha (cls, p)) v) costs;
  let ex slot =
    {
      ex_slot = slot;
      ex_tick = tick;
      ex_latency_s = latency_s;
      ex_class = cls;
      ex_phase =
        (match dominant_phase costs with Some p -> p | None -> Canonicalize);
      ex_label = label;
      ex_key = key;
      ex_run_id = run_id;
    }
  in
  let epoch = tick / t.slot_width in
  let s = t.ring.(epoch mod Array.length t.ring) in
  if s.s_epoch <> epoch then begin
    s.s_epoch <- epoch;
    s.s_ex <- None
  end;
  (match s.s_ex with
  | Some e when e.ex_latency_s >= latency_s -> ()
  | _ -> s.s_ex <- Some (ex epoch));
  match t.worst with
  | Some e when e.ex_latency_s >= latency_s -> ()
  | _ -> t.worst <- Some (ex (-1))

let reconcile t =
  List.filter_map
    (fun cls ->
      match Hashtbl.find_opt t.e2e cls with
      | None -> None
      | Some e ->
        let phases =
          List.fold_left
            (fun acc p ->
              match Hashtbl.find_opt t.cells (cls, p) with
              | Some c -> acc +. Sketch.total c
              | None -> acc)
            0.0 all_phases
        in
        Some (cls, Sketch.count e, phases, Sketch.total e))
    all_classes

(* ---------------- report ---------------- *)

type report = {
  lr_requests : int;
  lr_errors : int;
  lr_slot_width : int;
  lr_overall : Sketch.summary;
  lr_classes : (serve_class * Sketch.summary) list;
  lr_cells : (serve_class * phase * Sketch.summary) list;
  lr_phase_share : (phase * float) list;
  lr_exemplars : exemplar list;
  lr_worst : exemplar option;
}

let report t =
  let classes =
    List.filter_map
      (fun cls ->
        Option.map (fun c -> (cls, Sketch.summary c)) (Hashtbl.find_opt t.e2e cls))
      all_classes
  in
  let cells =
    List.concat_map
      (fun cls ->
        List.filter_map
          (fun p ->
            Option.map
              (fun c -> (cls, p, Sketch.summary c))
              (Hashtbl.find_opt t.cells (cls, p)))
          all_phases)
      all_classes
  in
  let grand =
    List.fold_left (fun acc (_, _, (s : Sketch.summary)) -> acc +. s.total) 0.0 cells
  in
  let share =
    List.filter_map
      (fun p ->
        let total =
          List.fold_left
            (fun acc (_, q, (s : Sketch.summary)) -> if q = p then acc +. s.total else acc)
            0.0 cells
        in
        if
          List.exists (fun (_, q, _) -> q = p) cells
        then Some (p, if grand > 0.0 then total /. grand else 0.0)
        else None)
      all_phases
    |> List.stable_sort (fun (p, a) (q, b) ->
           (* phases compare in declaration = pipeline order *)
           match compare (b : float) a with 0 -> compare p q | c -> c)
  in
  let exemplars =
    Array.to_list t.ring
    |> List.filter_map (fun s -> s.s_ex)
    |> List.sort (fun a b -> compare a.ex_slot b.ex_slot)
  in
  {
    lr_requests = t.requests;
    lr_errors = t.errors;
    lr_slot_width = t.slot_width;
    lr_overall = Sketch.summary t.overall;
    lr_classes = classes;
    lr_cells = cells;
    lr_phase_share = share;
    lr_exemplars = exemplars;
    lr_worst = t.worst;
  }

let dominant r =
  match r.lr_phase_share with [] -> None | (p, _) :: _ -> Some p

(* ---------------- JSON ---------------- *)

let stat_json (s : Sketch.summary) =
  Json.Obj
    [
      ("n", Json.of_int s.count);
      ("total_s", Json.Num s.total);
      ("mean_s", Json.Num s.mean);
      ("std_s", Json.Num s.std);
      ("p50_s", Json.Num s.p50);
      ("p90_s", Json.Num s.p90);
      ("p99_s", Json.Num s.p99);
      ("max_s", Json.Num s.max);
    ]

let exemplar_json e =
  Json.Obj
    ([
       ("slot", Json.of_int e.ex_slot);
       ("tick", Json.of_int e.ex_tick);
       ("latency_s", Json.Num e.ex_latency_s);
       ("class", Json.Str (class_name e.ex_class));
       ("phase", Json.Str (phase_name e.ex_phase));
     ]
    @ (match e.ex_label with None -> [] | Some l -> [ ("label", Json.Str l) ])
    @ (match e.ex_key with None -> [] | Some k -> [ ("key", Json.Str k) ])
    @
    match e.ex_run_id with
    | None -> []
    | Some r -> [ ("run_id", Json.Str r) ])

let report_json r =
  Json.Obj
    [
      ("schema_version", Json.of_int 1);
      ("requests", Json.of_int r.lr_requests);
      ("errors", Json.of_int r.lr_errors);
      ("slot_width", Json.of_int r.lr_slot_width);
      ("overall", stat_json r.lr_overall);
      ( "classes",
        Json.Obj
          (List.map (fun (c, s) -> (class_name c, stat_json s)) r.lr_classes)
      );
      ( "cells",
        Json.Arr
          (List.map
             (fun (c, p, s) ->
               Json.Obj
                 [
                   ("class", Json.Str (class_name c));
                   ("phase", Json.Str (phase_name p));
                   ("stat", stat_json s);
                 ])
             r.lr_cells) );
      ( "phase_share",
        Json.Arr
          (List.map
             (fun (p, s) -> Json.Arr [ Json.Str (phase_name p); Json.Num s ])
             r.lr_phase_share) );
      ("exemplars", Json.Arr (List.map exemplar_json r.lr_exemplars));
      ( "worst",
        match r.lr_worst with None -> Json.Null | Some e -> exemplar_json e );
    ]

(* ---------------- render ---------------- *)

let ms v = spf "%.3f" (v *. 1e3)
let pct v = spf "%.1f%%" (100.0 *. v)

let render_exemplar e =
  spf "tick %d %s latency %s ms, dominated by %s%s%s" e.ex_tick
    (class_name e.ex_class) (ms e.ex_latency_s) (phase_name e.ex_phase)
    (match e.ex_label with None -> "" | Some l -> spf " [%s]" l)
    (match e.ex_run_id with None -> "" | Some r -> spf " (run %s)" (Journal.short r))

let render r =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (spf "ledger: %d requests (%d errors), slot width %d ticks\n"
       r.lr_requests r.lr_errors r.lr_slot_width);
  Buffer.add_string b
    (spf "  %-10s %8s %10s %10s %10s %10s\n" "class" "n" "mean ms" "p50 ms"
       "p99 ms" "max ms");
  let class_line name (s : Sketch.summary) =
    Buffer.add_string b
      (spf "  %-10s %8d %10s %10s %10s %10s\n" name s.count (ms s.mean)
         (ms s.p50) (ms s.p99) (ms s.max))
  in
  class_line "all" r.lr_overall;
  List.iter (fun (c, s) -> class_line (class_name c) s) r.lr_classes;
  Buffer.add_string b
    (spf "  %-12s %7s %12s %12s %12s\n" "phase" "share" "cold p99"
       "warm p99" "dedup p99");
  let cell_p99 cls p =
    match
      List.find_opt (fun (c, q, _) -> c = cls && q = p) r.lr_cells
    with
    | Some (_, _, s) -> ms s.Sketch.p99
    | None -> "-"
  in
  List.iter
    (fun (p, share) ->
      Buffer.add_string b
        (spf "  %-12s %7s %12s %12s %12s\n" (phase_name p) (pct share)
           (cell_p99 Cold p) (cell_p99 Warm p) (cell_p99 Dedup p)))
    r.lr_phase_share;
  (match r.lr_worst with
  | Some e -> Buffer.add_string b (spf "  worst: %s\n" (render_exemplar e))
  | None -> ());
  List.iter
    (fun e ->
      Buffer.add_string b (spf "  slot %4d: %s\n" e.ex_slot (render_exemplar e)))
    r.lr_exemplars;
  Buffer.contents b

let prometheus ?(prefix = "barracuda") t =
  let e2e =
    List.filter_map
      (fun cls ->
        Option.map
          (fun c -> (spf "serve_%s" (class_name cls), c))
          (Hashtbl.find_opt t.e2e cls))
      all_classes
  in
  let cells =
    List.concat_map
      (fun cls ->
        List.filter_map
          (fun p ->
            Option.map
              (fun c ->
                (spf "phase_%s_%s" (class_name cls) (phase_name p), c))
              (Hashtbl.find_opt t.cells (cls, p)))
          all_phases)
      all_classes
  in
  Export.prometheus_sketches ~prefix
    ~counters:
      [ ("ledger_requests", t.requests); ("ledger_errors", t.errors) ]
    ~sketches:(e2e @ cells) ()
