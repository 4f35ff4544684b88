(* Machine-readable diagnostics for the whole-pipeline static verifier.

   Every finding carries a stable code (BARxxx - the number never changes
   meaning once assigned), a severity, the pipeline stage that produced it
   and the site it anchors to (an op, a kernel, an array reference), so
   tools can gate on codes and humans can read the rendered line.

   Code ranges:
     BAR00x  verifier internals (lowering failure, analysis aborted)
     BAR01x  TCR well-formedness errors (layer 1)
     BAR02x  recipe/search-point legality errors (layer 2)
     BAR03x  kernel/architecture resource errors (layer 3)
     BAR04x  kernel-quality lints (warnings, layer 3; superseded by the
             proven BAR07x access facts - the codes stay reserved)
     BAR05x  tensor-network stage (lib/netopt: network IR validation and
             contraction-tree checks, ahead of the DSL front end)
     BAR06x  translation validation (lib/check/semantic.ml: prime-field
             equivalence of the five lineage stages dsl -> variant -> tcr
             -> recipe -> kernel; the code names the earliest stage that
             stopped agreeing with its parent)
     BAR07x  symbolic access analysis (lib/check/access.ml: exact affine
             facts - grid-wide coalescing transactions, occupancy, launch
             shape; BAR071/072/077 covered shared-memory tiles, which no
             lowering produces - the codes stay reserved) *)

type severity = Error | Warning | Info

type stage = Network | Tcr | Recipe | Kernel | Semantic

type t = {
  code : string;  (* stable "BARxxx" identifier *)
  severity : severity;
  stage : stage;
  site : string;  (* op, kernel or tensor the diagnostic anchors to *)
  message : string;
}

let severity_name = function Error -> "error" | Warning -> "warning" | Info -> "info"
let stage_name = function
  | Network -> "network"
  | Tcr -> "tcr"
  | Recipe -> "recipe"
  | Kernel -> "kernel"
  | Semantic -> "semantic"

(* Errors sort first, then warnings, then infos; ties by code. *)
let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let compare_diag a b =
  match compare (severity_rank a.severity) (severity_rank b.severity) with
  | 0 -> compare (a.code, a.site, a.message) (b.code, b.site, b.message)
  | c -> c

let diag severity stage ~code ~site fmt =
  Printf.ksprintf (fun message -> { code; severity; stage; site; message }) fmt

let error stage ~code ~site fmt = diag Error stage ~code ~site fmt
let warning stage ~code ~site fmt = diag Warning stage ~code ~site fmt
let info stage ~code ~site fmt = diag Info stage ~code ~site fmt

let errors ds = List.filter (fun d -> d.severity = Error) ds
let warnings ds = List.filter (fun d -> d.severity = Warning) ds
let infos ds = List.filter (fun d -> d.severity = Info) ds
let has_errors ds = List.exists (fun d -> d.severity = Error) ds

(* Per-severity counts: (errors, warnings, infos). *)
let severity_counts ds =
  List.fold_left
    (fun (e, w, i) d ->
      match d.severity with
      | Error -> (e + 1, w, i)
      | Warning -> (e, w + 1, i)
      | Info -> (e, w, i + 1))
    (0, 0, 0) ds

(* Occurrences per code, sorted by code: the journal/metrics summary. *)
let by_code ds =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun d ->
      Hashtbl.replace tbl d.code (1 + Option.value ~default:0 (Hashtbl.find_opt tbl d.code)))
    ds;
  Hashtbl.fold (fun code n acc -> (code, n) :: acc) tbl [] |> List.sort compare

let render d =
  Printf.sprintf "[%s] %s (%s) %s: %s" d.code (severity_name d.severity)
    (stage_name d.stage) d.site d.message

(* Collapse repeats of the same finding across search points: identical
   (code, severity, stage, site, message) tuples render once with a count.
   First-seen order is preserved - a report reads in the order the pipeline
   produced its stages, deterministically, instead of interleaving stages
   by code; callers that want severity-major order sort with
   {!compare_diag} themselves. *)
let dedup ds =
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun d ->
      match Hashtbl.find_opt tbl d with
      | Some n -> Hashtbl.replace tbl d (n + 1)
      | None ->
        Hashtbl.add tbl d 1;
        order := d :: !order)
    ds;
  List.rev_map (fun d -> (d, Hashtbl.find tbl d)) !order

let render_report ds =
  let b = Buffer.create 512 in
  List.iter
    (fun (d, n) ->
      Buffer.add_string b (render d);
      if n > 1 then Buffer.add_string b (Printf.sprintf "  (x%d)" n);
      Buffer.add_char b '\n')
    (dedup ds);
  Buffer.contents b

let to_json d =
  Obs.Json.Obj
    [
      ("code", Obs.Json.Str d.code);
      ("severity", Obs.Json.Str (severity_name d.severity));
      ("stage", Obs.Json.Str (stage_name d.stage));
      ("site", Obs.Json.Str d.site);
      ("message", Obs.Json.Str d.message);
    ]
