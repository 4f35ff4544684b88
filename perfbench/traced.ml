(* The traced run: per-layer metrics.

   traced.exe --workload NAME --seed N --seconds S

   It runs the same ops as bench.exe, each twice: first through Mirror,
   with every call into a layer timed, then through the untraced entry
   point. The op fails unless both agree, so the per-layer numbers describe
   the work the untraced run measures. Running the mirror first leaves any
   process-wide memo the program keeps in the state the untraced run would
   see when the mirror's layers are timed. Standard output ends with one
   JSON line holding every per-layer metric. *)

let now = Harness.now

(* The mirrored calls' total time, beside the per-layer spans. *)
let mirror_s = ref 0.0

(* The mirror's own cache per engine, kept apart from the engine's. *)
let mirror_caches = Hashtbl.create 4

let mirror_cache (s : Workload.server) =
  match Hashtbl.find_opt mirror_caches s.arch.name with
  | Some c -> c
  | None ->
    let c = Service.Tuning_cache.create ~capacity:s.config.cache_capacity () in
    Hashtbl.add mirror_caches s.arch.name c;
    c

let agree_on what a b =
  if a <> b then Workload.fail "the traced mirror and the untraced run disagree on %s" what

let traced_tune ~problem ~bench ~(arch : Gpusim.Arch.t) () =
  let t0 = now () in
  let t =
    Mirror.tune ~config:Workload.budget ~pool_per_variant:Workload.pool_per_variant
      ~reps:Workload.reps ~rng:(Util.Rng.create Workload.tuner_seed) ~arch bench
  in
  let cuda_m = Mirror.emit_cuda t in
  mirror_s := !mirror_s +. (now () -. t0);
  let ((_, cuda) as u) = Layers.span Layers.Untraced (fun () -> Workload.tune ~bench ~arch) () in
  fun () ->
    let o = Workload.tune_outcome ~problem ~arch u in
    agree_on "the winner" (Workload.winner_of t.variant_ids t.points) o.winner;
    agree_on "the modeled GFLOP/s" t.gflops o.gflops;
    agree_on "the validation verdict" (Workload.proven t.semantic) o.validated;
    agree_on "the emitted CUDA" cuda_m cuda;
    o

(* A traced service op: Mirror.serve, then Engine.batch. The engine's own
   bookkeeping (metrics timers, drift monitors) is far below the noise of
   subtracting two multi-second tunes, so it is not taken. *)
let traced_serve (s : Workload.server) (req : Service.Engine.request) ~check () =
  let t0 = now () in
  let t = Mirror.serve ~engine:s.config ~cache:(mirror_cache s) req.src in
  mirror_s := !mirror_s +. (now () -. t0);
  let r = Layers.span Layers.Untraced (Workload.serve s) req in
  fun () ->
    let (o : Workload.outcome) = check r in
    agree_on "the validation verdict" (Workload.proven t.semantic) o.validated;
    agree_on "the winner" (Workload.winner_of t.variant_ids t.points) o.winner;
    agree_on "the modeled GFLOP/s" t.gflops o.gflops;
    o

let traced = function
  | Workload.Tune { problem; bench; arch } -> traced_tune ~problem ~bench ~arch
  | Workload.Serve { server; req; check } -> traced_serve server req ~check

let per_layer (r : Harness.run) =
  let n = float_of_int r.attempted in
  let open Layers in
  let pool = counts.pool_candidates in
  let s l = time l /. n and mw ls = List.fold_left (fun a l -> a +. words l) 0.0 ls /. n /. 1e6 in
  let c x = float_of_int x /. n in
  [
    ("surf.encode_s", s Surf_encode, "s");
    ("surf.search_s", s Surf_search, "s");
    ("surf.encode_calls", c counts.encode_calls, "count");
    ( "surf.encode_per_candidate",
      (if pool = 0 then 0.0 else float_of_int counts.encode_calls /. float_of_int pool),
      "count/candidate" );
    ("surf.alloc_mw", mw [ Surf_encode; Surf_search ], "Mw");
    ("tcr.pool_s", s Tcr_pool, "s");
    ("tcr.pool_size", c pool, "count");
    ("tcr.alloc_mw", mw [ Tcr_pool ], "Mw");
    ("check.gate_s", s Check_gate, "s");
    ("check.gate_points", c (count Check_gate), "count");
    ("check.gate_rejected", c counts.gate_rejected, "count");
    ("check.gate_alloc_mw", mw [ Check_gate ], "Mw");
    ("check.semantic_s", s Check_semantic, "s");
    ("check.semantic_runs", c (count Check_semantic), "count");
    ("check.semantic_skipped", c counts.semantic_skipped, "count");
    ("check.oracle_points", c counts.oracle_points, "count");
    ("check.semantic_alloc_mw", mw [ Check_semantic ], "Mw");
    ("gpusim.eval_s", s Gpusim_eval, "s");
    ("gpusim.evals", c (count Gpusim_eval), "count");
    ("gpusim.alloc_mw", mw [ Gpusim_eval ], "Mw");
    ("octopi.variants_s", s Octopi_variants, "s");
    ("octopi.variants", c counts.variants, "count");
    ("octopi.alloc_mw", mw [ Octopi_variants ], "Mw");
    ("codegen.emit_s", s Codegen_emit, "s");
    ("codegen.cuda_bytes", c counts.cuda_bytes, "count");
    ("codegen.alloc_mw", mw [ Codegen_emit ], "Mw");
    ("service.canonicalize_s", s Service_canonicalize, "s");
    ("service.lookup_s", s Service_lookup, "s");
    ("service.misses", c counts.misses, "count");
    ("service.alloc_mw", mw [ Service_canonicalize; Service_lookup ], "Mw");
    ("autotune.self_s", s Autotune_self, "s");
    ("autotune.alloc_mw", mw [ Autotune_self ], "Mw");
    ("trace.ops_per_s", float_of_int (List.length r.results) /. !mirror_s, "1/s");
    ("trace.time_ratio", !mirror_s /. time Untraced, "ratio");
  ]

let () =
  Harness.main ~exe:"traced.exe" @@ fun ~workload ~seed ~make ->
  let (w : Workload.t) = make () in
  Gc.full_major ();
  Layers.reset ();
  let r = Harness.run_ops ~attempted:w.ops (fun i -> traced (w.job i)) in
  Harness.report ~workload ~seed r;
  let metrics = per_layer r in
  (* self times also as a share of the mirrored calls' time *)
  let traced_s = !mirror_s in
  List.iter
    (fun (name, v, unit) ->
      if unit = "s" then
        Printf.printf "  %-28s %14.6g %-15s %5.1f%%\n" name v unit
          (100.0 *. v *. float_of_int r.attempted /. traced_s)
      else Printf.printf "  %-28s %14.6g %s\n" name v unit)
    metrics;
  (* allocation and counts repeat exactly between runs of one seed *)
  let exact =
    List.filter
      (fun (_, _, unit) -> unit = "Mw" || String.starts_with ~prefix:"count" unit)
      metrics
  in
  Printf.printf "exact counts digest %s\n"
    (Digest.to_hex
       (Digest.string
          (String.concat ";" (List.map (fun (n, v, _) -> Printf.sprintf "%s=%.17g" n v) exact))));
  Harness.print_json r metrics
