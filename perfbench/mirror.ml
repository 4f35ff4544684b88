(* The traced run's copy of the call sequences of [Autotune.Tuner.tune] and
   [Service.Engine.batch] for one request, with every call into a layer's
   public function wrapped in a {!Layers} span. Only traced.exe links it:
   the untraced bench.exe calls the two entry points themselves. The traced
   run runs this copy first and the entry point second, and fails the op
   unless both pick the same winner, so the per-layer numbers describe the
   work the untraced run measured. Keep this file in step with tuner.ml and
   engine.ml: the winner check fails loudly when it is not. *)

open Layers

type tuned = {
  variant_ids : int list;
  points : Tcr.Space.point list;
  ir : Tcr.Ir.t;
  gflops : float;  (** modeled *)
  semantic : Check.Semantic.verdict option;
}

let tune ~config ~pool_per_variant ~reps ~rng ~arch (b : Autotune.Tuner.benchmark) =
  span Autotune_self
    (fun () ->
      let choices = span Octopi_variants Autotune.Tuner.variant_choices b in
      counts.variants <- counts.variants + List.length choices;
      let verify space p = Check.Verify.space_point ~lints:false ~arch space p in
      let gate space p =
        let diags = span2 Check_gate verify space p in
        let bad = Check.Diag.has_errors diags in
        if bad then counts.gate_rejected <- counts.gate_rejected + 1;
        not bad
      in
      let pool = span Tcr_pool (Autotune.Tuner.build_pool ~pool_per_variant ~gate rng) choices in
      let pool =
        if Array.length pool = 0 then
          span Tcr_pool (Autotune.Tuner.build_pool ~pool_per_variant rng) choices
        else pool
      in
      counts.pool_candidates <- counts.pool_candidates + Array.length pool;
      let evaluator = Autotune.Evaluator.create ~reps arch in
      let objective = Autotune.Evaluator.objective evaluator in
      let eval (c : Autotune.Tuner.candidate) = span2 Gpusim_eval objective c.ir c.points in
      let features () =
        Array.to_list (Array.map (fun (c : Autotune.Tuner.candidate) -> c.features) pool)
      in
      let schema = span Surf_encode Surf.Feature.make_schema (features ()) in
      let encode_features = Surf.Feature.encode schema in
      let encode (c : Autotune.Tuner.candidate) =
        counts.encode_calls <- counts.encode_calls + 1;
        span Surf_encode encode_features c.features
      in
      let search =
        span Surf_search (fun () -> Surf.Search.surf ~config rng ~pool ~encode ~eval) ()
      in
      let best = search.best.config in
      let best_report =
        span2 Gpusim_eval (Autotune.Evaluator.measure evaluator) best.ir best.points
      in
      let semantic =
        let cost = Check.Semantic.cost b.statements in
        if cost > Check.Semantic.gate_budget then begin
          counts.semantic_skipped <- counts.semantic_skipped + 1;
          None
        end
        else begin
          counts.oracle_points <- counts.oracle_points + (cost * Check.Semantic.default_rounds);
          Some
            (span Check_semantic
               (fun () ->
                 Check.Semantic.validate ~label:b.label b.statements
                   ~variant_ids:best.variant_ids ~ir:best.ir ~points:best.points)
               ())
        end
      in
      (match search.explain with
      | None -> ()
      | Some ex ->
        let schema = span Surf_encode Surf.Feature.make_schema (features ()) in
        ignore (Surf.Explain.named_importances schema ex.importance));
      {
        variant_ids = best.variant_ids;
        points = best.points;
        ir = best.ir;
        gflops = Gpusim.Gpu.gflops best_report ~reps;
        semantic;
      })
    ()

let emit_cuda (t : tuned) =
  let cuda = span2 Codegen_emit Codegen.Cuda.emit_program t.ir t.points in
  counts.cuda_bytes <- counts.cuda_bytes + String.length cuda;
  cuda

(* One single-request batch of a key the engine has not seen: canonicalize,
   look up, miss, tune and store. [cache] is the mirror's own cache, kept
   apart from the engine's. *)
let serve ~(engine : Service.Engine.config) ~cache src =
  let arch = engine.arch in
  let canon = span Service_canonicalize (Service.Canonical.of_dsl ~arch) src in
  match span2 Service_lookup Service.Tuning_cache.find cache canon.key with
  | Some _ -> Workload.fail "the mirror found key %s cached" canon.key
  | None ->
    counts.misses <- counts.misses + 1;
    let config =
      { Surf.Search.default_config with
        max_evals = engine.max_evals;
        batch_size = engine.batch_size }
    in
    let b = Service.Canonical.benchmark canon in
    let t =
      tune ~config ~pool_per_variant:engine.pool_per_variant ~reps:engine.reps
        ~rng:(Util.Rng.create engine.seed) ~arch b
    in
    (match t.semantic with
    | Some v when not v.equivalent -> ()
    | _ ->
      let saved =
        {
          Autotune.Store.label = b.label;
          arch_name = arch.name;
          variant_ids = t.variant_ids;
          gflops = t.gflops;
          recipe = Tcr.Orio.recipe t.points;
        }
      in
      span Service_lookup (Service.Tuning_cache.store cache ~key:canon.key) saved);
    t
