(* Tuning flight recorder: an append-only JSONL journal with one entry per
   tuning run - what was tuned, on which device identity, with which seed,
   how the search converged, and the full five-stage provenance lineage of
   every evaluated variant.

   The journal exists to answer, long after a tune: which kernel won, why
   the surrogate believed in it, what was pruned, and would the same inputs
   still produce it (replay drift). Entries are content-addressed: the run
   id is the digest of the entry with the id and timestamp blanked, so the
   same tune recorded twice yields the same id.

   Crash tolerance is structural: each entry is a single line appended with
   O_APPEND, so a crash mid-write tears at most the final line, and the
   reader discards any line that does not decode (reporting how many).

   Like Trace and Profile, recording goes through a global sink that is
   disabled by default - one atomic load when off, and no RNG draws ever,
   so fixed-seed tunes are bit-identical with journaling on or off. *)

let schema_version = 1

(* Chained lineage hash: each pipeline stage digests its parent's hash
   together with its own canonical content, so equal kernel hashes imply
   the whole derivation chain matched, not just the final text. *)
let stage parent content =
  Digest.to_hex (Digest.string (parent ^ "\x00" ^ content))

type lineage = {
  dsl_hash : string;
  variant_hash : string;
  tcr_hash : string;
  recipe_hash : string;
  kernel_hash : string;
}

type variant = {
  label : string;  (* variant ids + decomposition point, human-readable *)
  lineage : lineage;
  predicted : float option;  (* surrogate prediction; None for random batch *)
  measured : float;  (* seconds *)
}

type rival = {
  rival_label : string;
  rival_lineage : lineage;
  rival_predicted : float;  (* seconds, by the final surrogate *)
  rival_std : float;  (* ensemble disagreement on that prediction *)
}

(* Contraction-order provenance for network-originated tunes: which
   optimizer chose the order, the serialized tree itself, and its score
   breakdown (log2 time/space/readwrite). Entries journaled before netopt
   existed decode as [None]. *)
type network = {
  net_method : string;  (* "greedy" | "treesa" *)
  net_order : string;  (* serialized contraction tree, e.g. "((t0,t1),t2)" *)
  net_tc : float;
  net_sc : float;
  net_rw : float;
  net_score : float;
}

type entry = {
  run_id : string;  (* content-addressed; "" until recorded *)
  timestamp : float;  (* seconds since epoch; 0.0 until recorded *)
  key : string;  (* canonical problem key; "" outside the service *)
  label : string;
  arch : string;  (* Gpusim.Arch.fingerprint *)
  seed : int;  (* -1 when the caller could not supply one *)
  dsl : string;  (* canonical DSL source; replay re-tunes from this *)
  max_evals : int;
  batch_size : int;
  pool_per_variant : int;
  reps : int;
  pool_size : int;
  evaluations : int;
  gate_checked : int;  (* points screened by the static verifier's gate *)
  gate_rejected : int;  (* points the gate kept out of the pool *)
  gate_diags : (string * int) list;  (* gate error occurrences per BARxxx code *)
  network : network option;  (* contraction-order provenance; None for DSL tunes *)
  semantic_ok : bool option;
      (* translation validation of the winner: Some true when the semantic
         gate proved it equivalent, Some false when it did not, None when
         validation was skipped over its cost budget (and for entries
         journaled before it existed) *)
  iterations : Search_log.iteration list;
  variants : variant list;  (* every evaluated variant, evaluation order *)
  winner : variant;
  importances : (string * float) list;  (* named parameters, descending *)
  residual_r2 : float option;
  rivals : rival list;  (* best-predicted configurations never evaluated *)
}

(* ---------------- JSON codec ---------------- *)

let lineage_to_json l =
  Json.Obj
    [
      ("dsl", Json.Str l.dsl_hash);
      ("variant", Json.Str l.variant_hash);
      ("tcr", Json.Str l.tcr_hash);
      ("recipe", Json.Str l.recipe_hash);
      ("kernel", Json.Str l.kernel_hash);
    ]

let variant_to_json (v : variant) =
  Json.Obj
    (("label", Json.Str v.label)
     :: ("lineage", lineage_to_json v.lineage)
     ::
     (match v.predicted with
     | None -> []
     | Some p -> [ ("predicted", Json.Num p) ])
    @ [ ("measured", Json.Num v.measured) ])

let rival_to_json (r : rival) =
  Json.Obj
    [
      ("label", Json.Str r.rival_label);
      ("lineage", lineage_to_json r.rival_lineage);
      ("predicted", Json.Num r.rival_predicted);
      ("pred_std", Json.Num r.rival_std);
    ]

let network_to_json (n : network) =
  Json.Obj
    [
      ("method", Json.Str n.net_method);
      ("order", Json.Str n.net_order);
      ("tc", Json.Num n.net_tc);
      ("sc", Json.Num n.net_sc);
      ("rw", Json.Num n.net_rw);
      ("score", Json.Num n.net_score);
    ]

let iteration_to_json (it : Search_log.iteration) =
  Json.Obj
    ([
       ("iter", Json.of_int it.iter);
       ("batch", Json.of_int it.batch);
       ("evaluations", Json.of_int it.evaluations);
       ("pool_size", Json.of_int it.pool_size);
       ("best_so_far", Json.Num it.best_so_far);
       ("batch_best", Json.Num it.batch_best);
       ("batch_mean", Json.Num it.batch_mean);
     ]
    @ (match it.r2 with None -> [] | Some r -> [ ("r2", Json.Num r) ])
    @
    match it.pred_std with
    | None -> []
    | Some s -> [ ("pred_std", Json.Num s) ])

let to_json e =
  Json.Obj
    ([
       ("schema", Json.of_int schema_version);
       ("run_id", Json.Str e.run_id);
       ("timestamp", Json.Num e.timestamp);
       ("key", Json.Str e.key);
       ("label", Json.Str e.label);
       ("arch", Json.Str e.arch);
       ("seed", Json.of_int e.seed);
       ("dsl", Json.Str e.dsl);
       ("max_evals", Json.of_int e.max_evals);
       ("batch_size", Json.of_int e.batch_size);
       ("pool_per_variant", Json.of_int e.pool_per_variant);
       ("reps", Json.of_int e.reps);
       ("pool_size", Json.of_int e.pool_size);
       ("evaluations", Json.of_int e.evaluations);
       ("gate_checked", Json.of_int e.gate_checked);
       ("gate_rejected", Json.of_int e.gate_rejected);
       ( "gate_diags",
         Json.Arr
           (List.map (fun (c, n) -> Json.Arr [ Json.Str c; Json.of_int n ]) e.gate_diags)
       );
     ]
    @ (match e.network with
      | None -> []
      | Some n -> [ ("network", network_to_json n) ])
    @ (match e.semantic_ok with
      | None -> []
      | Some ok -> [ ("semantic_ok", Json.Bool ok) ])
    @ [
       ("iterations", Json.Arr (List.map iteration_to_json e.iterations));
       ("variants", Json.Arr (List.map variant_to_json e.variants));
       ("winner", variant_to_json e.winner);
       ( "importances",
         Json.Arr
           (List.map
              (fun (n, w) -> Json.Arr [ Json.Str n; Json.Num w ])
              e.importances) );
     ]
    @ (match e.residual_r2 with
      | None -> []
      | Some r -> [ ("residual_r2", Json.Num r) ])
    @ [ ("rivals", Json.Arr (List.map rival_to_json e.rivals)) ])

let lineage_of_json j =
  Json.
    {
      dsl_hash = str "dsl" j;
      variant_hash = str "variant" j;
      tcr_hash = str "tcr" j;
      recipe_hash = str "recipe" j;
      kernel_hash = str "kernel" j;
    }

let variant_of_json j : variant =
  Json.
    {
      label = str "label" j;
      lineage = lineage_of_json (field "lineage" j);
      predicted = opt num "predicted" j;
      measured = num "measured" j;
    }

let rival_of_json j : rival =
  Json.
    {
      rival_label = str "label" j;
      rival_lineage = lineage_of_json (field "lineage" j);
      rival_predicted = num "predicted" j;
      rival_std = num "pred_std" j;
    }

let iteration_of_json j : Search_log.iteration =
  Json.
    {
      iter = int "iter" j;
      batch = int "batch" j;
      evaluations = int "evaluations" j;
      pool_size = int "pool_size" j;
      best_so_far = num "best_so_far" j;
      batch_best = num "batch_best" j;
      batch_mean = num "batch_mean" j;
      r2 = opt num "r2" j;
      pred_std = opt num "pred_std" j;
    }

let pair_of_json = function
  | Json.Arr [ Json.Str n; v ] -> (
    match Json.get_num v with
    | Some w -> (n, w)
    | None -> Json.fail "%S: weight is not a number" n)
  | _ -> Json.fail "expected a [name, number] pair"

let network_of_json j : network =
  Json.
    {
      net_method = str "method" j;
      net_order = str "order" j;
      net_tc = num "tc" j;
      net_sc = num "sc" j;
      net_rw = num "rw" j;
      net_score = num "score" j;
    }

(* Legacy entries predate the gate, netopt and semantic fields; they
   decode to zero / empty / None. *)
let entry_of_json j =
  let v = Json.int "schema" j in
  if v <> schema_version then Json.fail "unsupported journal schema %d" v;
  let count name = Option.value ~default:0 (Json.opt Json.int name j) in
  Json.
    {
      run_id = str "run_id" j;
      timestamp = num "timestamp" j;
      key = str "key" j;
      label = str "label" j;
      arch = str "arch" j;
      seed = int "seed" j;
      dsl = str "dsl" j;
      max_evals = int "max_evals" j;
      batch_size = int "batch_size" j;
      pool_per_variant = int "pool_per_variant" j;
      reps = int "reps" j;
      pool_size = int "pool_size" j;
      evaluations = int "evaluations" j;
      gate_checked = count "gate_checked";
      gate_rejected = count "gate_rejected";
      gate_diags =
        Option.value ~default:[] (opt arr "gate_diags" j)
        |> List.map (fun p ->
               let code, n = pair_of_json p in
               (code, int_of_float n));
      network = Option.map network_of_json (member "network" j);
      semantic_ok =
        (match member "semantic_ok" j with Some (Bool b) -> Some b | _ -> None);
      iterations = List.map iteration_of_json (arr "iterations" j);
      variants = List.map variant_of_json (arr "variants" j);
      winner = variant_of_json (field "winner" j);
      importances = List.map pair_of_json (arr "importances" j);
      residual_r2 = opt num "residual_r2" j;
      rivals = List.map rival_of_json (arr "rivals" j);
    }

let of_json = Json.decode entry_of_json

(* Content-addressed run id: digest of the entry with the id and timestamp
   blanked, so identity depends only on what was tuned and what came out. *)
let run_id e =
  Digest.to_hex
    (Digest.string (Json.to_string (to_json { e with run_id = ""; timestamp = 0.0 })))

(* Where two lineages first diverge, stage names in derivation order. The
   replay-drift gate and the doctor both use this to attribute a changed
   kernel to the earliest responsible pipeline stage. *)
let first_divergence (a : lineage) (b : lineage) =
  if a.dsl_hash <> b.dsl_hash then Some "dsl"
  else if a.variant_hash <> b.variant_hash then Some "variant"
  else if a.tcr_hash <> b.tcr_hash then Some "tcr"
  else if a.recipe_hash <> b.recipe_hash then Some "recipe"
  else if a.kernel_hash <> b.kernel_hash then Some "kernel"
  else None

(* ---------------- file I/O ---------------- *)

let append path e =
  (match Filename.dirname path with "" | "." -> () | d -> Util.Fs.mkdir_p d);
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let line = Json.to_string (to_json e) ^ "\n" in
      let b = Bytes.of_string line in
      ignore (Unix.write fd b 0 (Bytes.length b)))

(* Decode a journal file, tolerating a torn tail: every line that fails to
   parse or decode is discarded and counted rather than aborting the read,
   so a crash mid-append never loses the runs before it. *)
let load path =
  if not (Sys.file_exists path) then ([], 0)
  else begin
    let entries = ref [] and discarded = ref 0 in
    String.split_on_char '\n' (Util.Fs.read_file path)
    |> List.iter (fun line ->
           if String.trim line <> "" then
             match Json.parse line with
             | Error _ -> incr discarded
             | Ok j -> (
               match of_json j with
               | Ok e -> entries := e :: !entries
               | Error _ -> incr discarded));
    (List.rev !entries, !discarded)
  end

(* The canonical service key embeds the arch fingerprint, so grouping by
   it would hide arch changes; the canonical DSL source is the identity
   that survives a device swap. *)
let by_dsl entries =
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun e ->
      match Hashtbl.find_opt tbl e.dsl with
      | Some l -> l := e :: !l
      | None ->
        Hashtbl.add tbl e.dsl (ref [ e ]);
        order := e.dsl :: !order)
    entries;
  List.rev_map (fun dsl -> (dsl, List.rev !(Hashtbl.find tbl dsl))) !order

(* Look an entry up by run id: exact match, unique prefix, or "latest"
   (also the empty string) for the most recent entry. *)
let find entries ~run =
  match run with
  | "" | "latest" -> (
    match List.rev entries with [] -> Error "journal is empty" | e :: _ -> Ok e)
  | _ -> (
    match List.filter (fun e -> e.run_id = run) entries with
    (* duplicates share content (ids are content-addressed): latest wins *)
    | _ :: _ as exact -> Ok (List.nth exact (List.length exact - 1))
    | [] -> (
      let is_prefix e =
        String.length e.run_id >= String.length run
        && String.sub e.run_id 0 (String.length run) = run
      in
      match List.filter is_prefix entries with
      | [ e ] -> Ok e
      | [] -> Error (Printf.sprintf "no journaled run matches %S" run)
      | _ -> Error (Printf.sprintf "run id prefix %S is ambiguous" run)))

(* ---------------- global sink ---------------- *)

let enabled_flag = Atomic.make false
let lock = Mutex.create ()
let sink_path : string option ref = ref None
let recorded : entry list ref = ref []

let enabled () = Atomic.get enabled_flag

let start ?path () =
  Mutex.protect lock (fun () ->
      sink_path := path;
      recorded := []);
  Atomic.set enabled_flag true

let stop () = Atomic.set enabled_flag false

let entries () = Mutex.protect lock (fun () -> List.rev !recorded)

(* Record one run. Stamps the wall-clock timestamp and the content-addressed
   run id (neither feeds back into tuning, so results stay bit-identical
   with journaling on or off). Returns the run id, or [None] when the sink
   is disabled. *)
let record e =
  if not (Atomic.get enabled_flag) then None
  else begin
    let e = { e with timestamp = Unix.gettimeofday (); run_id = run_id e } in
    Mutex.protect lock (fun () ->
        recorded := e :: !recorded;
        match !sink_path with None -> () | Some p -> append p e);
    Some e.run_id
  end

(* Run [f] with journaling enabled on a fresh in-memory sink; return its
   value and the recorded entries, restoring the previous sink state. *)
let collect f =
  let was_enabled = enabled () in
  let was_path = Mutex.protect lock (fun () -> !sink_path) in
  start ();
  let finish () =
    stop ();
    Mutex.protect lock (fun () -> sink_path := was_path);
    if was_enabled then Atomic.set enabled_flag true
  in
  let r = Fun.protect ~finally:finish f in
  (r, entries ())

(* ---------------- renderers ---------------- *)

let short id = if String.length id > 12 then String.sub id 0 12 else id

let format_time t =
  if t = 0.0 then "-"
  else begin
    let tm = Unix.gmtime t in
    Printf.sprintf "%04d-%02d-%02d %02d:%02d:%02d" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
      tm.Unix.tm_sec
  end

let arch_name fingerprint =
  match String.index_opt fingerprint '|' with
  | Some i -> String.sub fingerprint 0 i
  | None -> fingerprint

let render_history entries =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "%-12s  %-19s  %-16s  %-12s  %6s  %5s  %12s\n" "run" "when"
       "label" "arch" "seed" "evals" "best(s)");
  List.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf "%-12s  %-19s  %-16s  %-12s  %6d  %5d  %12.4e\n"
           (short e.run_id) (format_time e.timestamp) e.label
           (arch_name e.arch) e.seed e.evaluations e.winner.measured))
    entries;
  Buffer.add_string b
    (Printf.sprintf "%d run%s journaled\n" (List.length entries)
       (if List.length entries = 1 then "" else "s"));
  Buffer.contents b

(* Machine-readable history: one summary object per run, file order. A
   scripting-friendly subset of the full entry - everything the doctor's
   findings reference (ids, keys, arch, lineage tail) without the
   per-iteration search state. *)
let history_json entries =
  Json.Arr
    (List.map
       (fun e ->
         Json.Obj
           ([
              ("run_id", Json.Str e.run_id);
              ("timestamp", Json.Num e.timestamp);
              ("key", Json.Str e.key);
              ("label", Json.Str e.label);
              ("arch", Json.Str e.arch);
              ("seed", Json.of_int e.seed);
              ("evaluations", Json.of_int e.evaluations);
              ("pool_size", Json.of_int e.pool_size);
              ("gate_checked", Json.of_int e.gate_checked);
              ("gate_rejected", Json.of_int e.gate_rejected);
              ("best_s", Json.Num e.winner.measured);
              ("winner_label", Json.Str e.winner.label);
              ("winner_kernel", Json.Str e.winner.lineage.kernel_hash);
            ]
           @ (match e.network with
             | None -> []
             | Some n -> [ ("network_method", Json.Str n.net_method) ])
           @
           match e.semantic_ok with
           | None -> []
           | Some ok -> [ ("semantic_ok", Json.Bool ok) ]))
       entries)

let render_lineage b indent l =
  List.iter
    (fun (name, h) -> Buffer.add_string b (Printf.sprintf "%s%-8s %s\n" indent name h))
    [
      ("dsl", l.dsl_hash);
      ("variant", l.variant_hash);
      ("tcr", l.tcr_hash);
      ("recipe", l.recipe_hash);
      ("kernel", l.kernel_hash);
    ]

let render_explain e =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "run %s  label=%s  arch=%s  seed=%d\n" (short e.run_id)
       e.label (arch_name e.arch) e.seed);
  Buffer.add_string b
    (Printf.sprintf "  evaluated %d of %d configurations, best %.4e s (%s)\n\n"
       e.evaluations e.pool_size e.winner.measured e.winner.label);
  if e.gate_checked > 0 then
    Buffer.add_string b
      (Printf.sprintf "static gate: %d points checked, %d rejected%s\n\n"
         e.gate_checked e.gate_rejected
         (match e.gate_diags with
         | [] -> ""
         | ds ->
           " ("
           ^ String.concat ", "
               (List.map (fun (c, n) -> Printf.sprintf "%s x%d" c n) ds)
           ^ ")"));
  (match e.network with
  | None -> ()
  | Some n ->
    Buffer.add_string b
      (Printf.sprintf
         "contraction order (%s): %s\n  tc %.3f  sc %.3f  rw %.3f  score %.3f\n\n"
         n.net_method n.net_order n.net_tc n.net_sc n.net_rw n.net_score));
  (match e.semantic_ok with
  | None -> ()
  | Some ok ->
    Buffer.add_string b
      (Printf.sprintf "semantic gate: winner %s\n\n"
         (if ok then "validated (equivalent over the prime field)"
          else "FAILED translation validation")));
  Buffer.add_string b "winner lineage\n";
  render_lineage b "  " e.winner.lineage;
  Buffer.add_string b "\nparameter importances (split gain)\n";
  List.iter
    (fun (name, w) ->
      Buffer.add_string b
        (Printf.sprintf "  %-10s %6.3f  %s\n" name w
           (String.make (int_of_float (w *. 40.0)) '#')))
    e.importances;
  Buffer.add_string b
    (Printf.sprintf "  (sum %.3f)\n"
       (List.fold_left (fun acc (_, w) -> acc +. w) 0.0 e.importances));
  Buffer.add_string b "\nsurrogate fit\n";
  (match e.residual_r2 with
  | Some r2 ->
    Buffer.add_string b
      (Printf.sprintf "  R^2 %.3f over %d model-guided evaluations\n" r2
         (List.length
            (List.filter (fun (v : variant) -> v.predicted <> None) e.variants)))
  | None -> Buffer.add_string b "  no model-guided evaluations\n");
  let over =
    List.filter_map
      (fun (v : variant) -> Option.map (fun p -> (v, p, v.measured -. p)) v.predicted)
      e.variants
    |> List.filter (fun (_, _, d) -> d > 0.0)
    |> List.stable_sort (fun (_, _, a) (_, _, b) -> compare b a)
  in
  (match over with
  | [] -> ()
  | _ ->
    Buffer.add_string b "  worst over-predictions:\n";
    List.filteri (fun i _ -> i < 3) over
    |> List.iter (fun ((v : variant), p, _) ->
           Buffer.add_string b
             (Printf.sprintf "    %-24s predicted %.4e s  measured %.4e s\n"
                v.label p v.measured)));
  Buffer.add_string b "\nrejected rivals (predicted by final surrogate)\n";
  if e.rivals = [] then Buffer.add_string b "  none (pool exhausted)\n"
  else
    List.iter
      (fun r ->
        Buffer.add_string b
          (Printf.sprintf "  %-24s predicted %.4e s  +/- %.2e  kernel %s\n"
             r.rival_label r.rival_predicted r.rival_std
             (short r.rival_lineage.kernel_hash)))
      e.rivals;
  Buffer.contents b
