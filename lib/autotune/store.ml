(* Persistence of tuning results, addressing the paper's Section VIII goal
   to "facilitate integration of the generated code into applications":
   the winning configuration is saved as a small text artifact - benchmark
   label, target architecture, chosen OCTOPI variants, and the concrete
   CUDA-CHiLL recipe (the Figure 2(c) interchange format) - and can be
   reloaded later to re-emit identical CUDA without re-running the search. *)

exception Error of string

let err fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let format_version = "barracuda-tuning v1"

type saved = {
  label : string;
  arch_name : string;
  variant_ids : int list;
  gflops : float;
  recipe : string;
}

let render (s : saved) =
  String.concat "\n"
    [
      format_version;
      "label: " ^ s.label;
      "arch: " ^ s.arch_name;
      "variants: " ^ String.concat "." (List.map string_of_int s.variant_ids);
      Printf.sprintf "gflops: %.6g" s.gflops;
      "recipe:";
      s.recipe;
      "";
    ]

let of_result (r : Tuner.result) =
  {
    label = r.benchmark.label;
    arch_name = r.arch.name;
    variant_ids = r.best.variant_ids;
    gflops = r.gflops;
    recipe = Tcr.Orio.recipe r.best.points;
  }

let save (r : Tuner.result) = render (of_result r)

let save_file path (r : Tuner.result) =
  let oc = open_out path in
  output_string oc (save r);
  close_out oc

(* ------------------------------------------------------------------ *)

let header_value line key =
  let prefix = key ^ ": " in
  let n = String.length prefix in
  if String.length line >= n && String.sub line 0 n = prefix then
    Some (String.sub line n (String.length line - n))
  else None

let parse text =
  match String.split_on_char '\n' text with
  | version :: rest when String.trim version = format_version ->
    let label = ref None and arch = ref None and variants = ref None and gf = ref None in
    let rec headers = function
      | [] -> err "missing recipe section"
      | line :: rest -> (
        let line = String.trim line in
        if line = "recipe:" then String.concat "\n" rest
        else
          match
            ( header_value line "label",
              header_value line "arch",
              header_value line "variants",
              header_value line "gflops" )
          with
          | Some v, _, _, _ ->
            label := Some v;
            headers rest
          | _, Some v, _, _ ->
            arch := Some v;
            headers rest
          | _, _, Some v, _ ->
            variants :=
              Some
                (String.split_on_char '.' v
                |> List.map (fun x ->
                       match int_of_string_opt (String.trim x) with
                       | Some i -> i
                       | None -> err "bad variant id %S" x));
            headers rest
          | _, _, _, Some v -> (
            match float_of_string_opt v with
            | Some f ->
              gf := Some f;
              headers rest
            | None -> err "bad gflops %S" v)
          | None, None, None, None -> err "unexpected header line %S" line)
    in
    let recipe = headers rest in
    let req name = function Some v -> v | None -> err "missing %s header" name in
    {
      label = req "label" !label;
      arch_name = req "arch" !arch;
      variant_ids = req "variants" !variants;
      gflops = (match !gf with Some f -> f | None -> nan);
      recipe = String.trim recipe;
    }
  | _ -> err "not a %s artifact" format_version

(* Reconstruct the tuned program from a benchmark definition and a saved
   artifact: pick the recorded variant choice and parse the recipe back
   into search points. *)
let choice_and_points (b : Tuner.benchmark) (s : saved) =
  if s.label <> b.label then
    err "artifact is for %S, benchmark is %S" s.label b.label;
  let choices = Tuner.variant_choices b in
  let choice =
    match
      List.find_opt (fun (c : Tuner.variant_choice) -> c.ids = s.variant_ids) choices
    with
    | Some c -> c
    | None ->
      err "variant %s not found among %d choices"
        (String.concat "." (List.map string_of_int s.variant_ids))
        (List.length choices)
  in
  let points = Tcr.Orio.parse_recipe choice.spaces s.recipe in
  (choices, choice, points)

let restore (b : Tuner.benchmark) (s : saved) =
  let _, choice, points = choice_and_points b s in
  (choice.v_ir, points)

(* Rebuild a full {!Tuner.result} from an artifact: the search fields are
   empty (no search ran), but the winning candidate is re-measured so
   summaries and code emission work exactly as after a live tune. This is
   the cache-hit fast path of the tuning service - one measurement instead
   of a whole search. *)
let restore_result ?(reps = 100) ~arch (b : Tuner.benchmark) (s : saved) =
  let choices, choice, points = choice_and_points b s in
  let best = Tuner.candidate_of choice points in
  let best_report = Gpusim.Gpu.measure arch best.ir best.points in
  {
    Tuner.benchmark = b;
    arch;
    best;
    best_report;
    time_per_eval_s = Gpusim.Gpu.amortized_time best_report ~reps;
    gflops = Gpusim.Gpu.gflops best_report ~reps;
    search_seconds = 0.0;
    evaluations = 0;
    pool_size = 0;
    total_space = Tuner.total_space choices;
    variant_count = List.length choices;
    convergence = [];
    iterations = [];
    importances = [];
    explain = None;
    gate = Check.Verify.empty_stats;
    semantic = None;
  }
