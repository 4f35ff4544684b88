(* End-to-end tests of the autotuning pipeline: statement merging, the
   evaluator, and the tuner itself (at reduced sizes so functional
   validation stays fast). *)

let check_int = Alcotest.(check int)
let arch = Gpusim.Arch.gtx980

let small_eqn1 () = Benchsuite.Suite.eqn1 ~n:6 ()
let small_lg3t () = Benchsuite.Suite.lg3t ~p:4 ~elems:3 ()

(* ---------------- Combine ---------------- *)

let test_merge_lg3t () =
  let b = small_lg3t () in
  let choices = Autotune.Tuner.variant_choices b in
  check_int "single joint variant" 1 (List.length choices);
  let ir = (List.hd choices).v_ir in
  check_int "three ops" 3 (List.length ir.ops);
  check_int "one output" 1 (List.length (Tcr.Ir.outputs ir));
  Alcotest.(check string) "output name" "w" (List.hd (Tcr.Ir.outputs ir)).name;
  (* D shared across the statements: declared once *)
  check_int "inputs: D ur us ut" 4 (List.length (Tcr.Ir.inputs ir))

let test_merge_temp_renaming () =
  (* two statements that both create a temporary T1 *)
  let src =
    "dims: i=3 j=3 k=3 l=3\n\
     X[i] = Sum([j k], A[i j] * B[j k] * C[k i])\n\
     Y[i] = Sum([j l], A[i j] * B[j l] * E[l i])"
  in
  let b = Autotune.Tuner.benchmark_of_dsl ~label:"two" src in
  let choices = Autotune.Tuner.variant_choices b in
  (* 3 trees per statement: 9 joint variants *)
  check_int "variant cross product" 9 (List.length choices);
  List.iter
    (fun (c : Autotune.Tuner.variant_choice) ->
      Tcr.Ir.validate c.v_ir;
      let temp_names = List.map (fun (v : Tcr.Ir.var) -> v.name) (Tcr.Ir.temps c.v_ir) in
      check_int "temps distinct" (List.length temp_names)
        (List.length (List.sort_uniq compare temp_names)))
    choices

let test_merge_extent_conflict () =
  let src = "dims: i=3 j=4\nX[i] = Sum([j], A[i j])\ndims: j=5\n" in
  (* conflicting extents across statements must be rejected at merge *)
  ignore src;
  let c1 = Octopi.Contraction.of_program (Octopi.Parse.program "dims: i=3 j=4\nX[i] = Sum([j], A[i j])") in
  let c2 = Octopi.Contraction.of_program (Octopi.Parse.program "dims: i=3 j=5\nY[i] = Sum([j], B[i j])") in
  let v c = List.hd (Octopi.Variants.of_contraction c).variants in
  let choice = List.map (fun c -> (c, v c)) (c1 @ c2) in
  Alcotest.(check bool) "conflict detected" true
    (try
       ignore (Autotune.Combine.merge ~label:"bad" choice);
       false
     with Invalid_argument _ -> true)

(* ---------------- Evaluator ---------------- *)

let test_evaluator_search_cost_grows () =
  let b = small_eqn1 () in
  let c = List.hd (Autotune.Tuner.variant_choices b) in
  let e = Autotune.Evaluator.create arch in
  let rng = Util.Rng.create 3 in
  let before = e.search_seconds in
  let points = List.map (fun s -> Tcr.Space.sample rng s) c.spaces.op_spaces in
  ignore (Autotune.Evaluator.objective e c.v_ir points);
  Alcotest.(check bool) "cost accounted" true (e.search_seconds > before)

(* ---------------- Tuner ---------------- *)

let tune_small ?strategy () =
  let b = small_eqn1 () in
  let cfg = { Surf.Search.default_config with max_evals = 30; batch_size = 6 } in
  let strategy =
    match strategy with Some s -> s | None -> Autotune.Tuner.Surf_search cfg
  in
  Autotune.Tuner.tune ~strategy ~pool_per_variant:40 ~rng:(Util.Rng.create 21) ~arch b

let test_tune_end_to_end () =
  let r = tune_small () in
  Alcotest.(check bool) "positive gflops" true (r.gflops > 0.0);
  check_int "fifteen variants" 15 r.variant_count;
  Alcotest.(check bool) "pool bounded" true (r.pool_size <= 15 * 40);
  check_int "respects budget" 30 r.evaluations

let test_tune_result_valid () =
  (* translation validation proved the tuned program equal to its DSL *)
  let r = tune_small () in
  match r.semantic with
  | Some v -> Alcotest.(check bool) "functional validation" true v.Check.Semantic.equivalent
  | None -> Alcotest.fail "expected a semantic verdict"

let test_tune_deterministic () =
  let r1 = tune_small () in
  let r2 = tune_small () in
  Alcotest.(check (float 0.0)) "same result" r1.gflops r2.gflops

(* The modeled search cost of a fixed-seed tune, pinned bit for bit: it
   charges each evaluation of the search once, and the winner's
   re-measure not at all. *)
let test_tune_search_seconds_pinned () =
  let r = tune_small () in
  Alcotest.(check string) "search seconds" "0x1.68688fd166d79p+6"
    (Printf.sprintf "%h" r.search_seconds);
  Alcotest.(check string) "winner kernel time" "0x1.226274281934p-16"
    (Printf.sprintf "%h" r.best_report.kernel_time_s)

let test_tune_emit_cuda () =
  let r = tune_small () in
  let cuda = Autotune.Tuner.emit_cuda r in
  Alcotest.(check bool) "kernels emitted" true
    (Astring_contains.count cuda "__global__" >= 1)

let test_tune_exhaustive_at_least_as_good () =
  let r_surf = tune_small () in
  let r_ex = tune_small ~strategy:Autotune.Tuner.Exhaustive () in
  Alcotest.(check bool) "exhaustive is a lower bound" true
    (r_ex.best_report.kernel_time_s <= r_surf.best_report.kernel_time_s +. 1e-12)

let test_tune_convergence_matches_evals () =
  let r = tune_small () in
  check_int "curve length" r.evaluations (List.length r.convergence)

(* ---------------- Pinned sampler, pools and search order ----------------

   Literal digests of fixed-seed draws, pools and tunes: a change to how
   spaces are sampled, pools built or candidates ranked must leave every
   one of them byte-identical. *)

let digest keys = Digest.to_hex (Digest.string (String.concat "\n" keys))

let candidate_key (c : Autotune.Tuner.candidate) =
  String.concat "." (List.map string_of_int c.variant_ids)
  ^ "/" ^ String.concat "|" (List.map Tcr.Space.point_key c.points)

let test_sampler_pinned () =
  let c = List.hd (Autotune.Tuner.variant_choices (Benchsuite.Suite.eqn1 ~n:10 ())) in
  let rng = Util.Rng.create 42 in
  let keys =
    List.concat_map
      (fun space ->
        let a = Tcr.Space.sample rng space in
        let b = Tcr.Space.sample rng space in
        [ Tcr.Space.point_key a; Tcr.Space.point_key b ])
      c.spaces.op_spaces
  in
  Alcotest.(check string) "two draws per op space" "157789c0035d21d58c19a53eade95ba3" (digest keys)

let test_pool_pinned name b expect () =
  let pool =
    Autotune.Tuner.build_pool ~pool_per_variant:600 (Util.Rng.create 42)
      (Autotune.Tuner.variant_choices b)
  in
  check_int (name ^ " pool size") 9000 (Array.length pool);
  Alcotest.(check string) (name ^ " pool digest") expect
    (digest (Array.to_list (Array.map candidate_key pool)))

(* The pool shares its feature entries among candidates; the search must
   see exactly what unshared entries give: the same schema, and every
   encoded row bit for bit. *)
let test_pool_interning_invisible () =
  let choices = Autotune.Tuner.variant_choices (Benchsuite.Suite.eqn1 ~n:10 ()) in
  let pool = Autotune.Tuner.build_pool ~pool_per_variant:600 (Util.Rng.create 42) choices in
  let unshared =
    Array.map
      (fun (c : Autotune.Tuner.candidate) ->
        let choice =
          List.find (fun (v : Autotune.Tuner.variant_choice) -> v.ids = c.variant_ids) choices
        in
        (Autotune.Tuner.candidate_of choice c.points).features)
      pool
  in
  let features = Array.map (fun (c : Autotune.Tuner.candidate) -> c.features) pool in
  let schema = Surf.Feature.make_schema (Array.to_list features) in
  Alcotest.(check (array string)) "schema"
    (Array.map Surf.Feature.column_name schema.columns)
    (Array.map Surf.Feature.column_name
       (Surf.Feature.make_schema (Array.to_list unshared)).columns);
  let bits row = Array.map Int64.bits_of_float (Surf.Feature.encode schema row) in
  Array.iteri
    (fun i f ->
      if bits f <> bits unshared.(i) then Alcotest.failf "candidate %d encodes differently" i)
    features;
  Alcotest.(check bool) "entries shared" true (List.hd features.(0) == List.hd features.(1))

let test_tune_search_order_pinned () =
  let b =
    Autotune.Tuner.benchmark_of_dsl ~label:"pin"
      "dims: i=24 j=16 k=16 l=24 m=16 n=24\n\
       V[i j k] = Sum([l m n], A[l k] * B[m j] * C[n i] * U[l m n])"
  in
  let strategy = Autotune.Tuner.Surf_search { Surf.Search.default_config with max_evals = 24 } in
  let r = Autotune.Tuner.tune ~strategy ~rng:(Util.Rng.create 11) ~arch b in
  Alcotest.(check string) "winner"
    "7/tx=n ty=k bx=m by=1 ul=10|tx=j ty=n bx=k by=1 um=2|tx=k ty=1 bx=j by=i un=2"
    (candidate_key r.best);
  match r.explain with
  | None -> Alcotest.fail "no surrogate was fit"
  | Some ex ->
    let keys l = List.map (fun (c, _, _) -> candidate_key c) l in
    check_int "model-guided evaluations" 14 (List.length ex.residuals);
    Alcotest.(check string) "model-guided order" "42bbc56725632bd14bfbdcc039fb0e6d"
      (digest (keys ex.residuals));
    Alcotest.(check string) "rivals" "6169616b9e2000829a1b9060595279fe" (digest (keys ex.rivals))

let test_cpu_baseline_uses_best_variant () =
  let b = small_eqn1 () in
  let t_best = Autotune.Tuner.best_sequential_time b in
  let choices = Autotune.Tuner.variant_choices b in
  List.iter
    (fun (c : Autotune.Tuner.variant_choice) ->
      Alcotest.(check bool) "minimal" true
        (t_best <= Cpusim.Haswell.sequential_time c.v_ir +. 1e-15))
    choices

let test_min_variant_flops () =
  let b = small_eqn1 () in
  (* n = 6: three binary nests of 2 x 6^4 flops *)
  check_int "min flops" (3 * 2 * (6 * 6 * 6 * 6)) (Autotune.Tuner.min_variant_flops b)

let suite =
  [
    ("merge lg3t", `Quick, test_merge_lg3t);
    ("merge renames temps", `Quick, test_merge_temp_renaming);
    ("merge extent conflict", `Quick, test_merge_extent_conflict);
    ("evaluator accounts search cost", `Quick, test_evaluator_search_cost_grows);
    ("tune end to end", `Quick, test_tune_end_to_end);
    ("tuned program is correct", `Slow, test_tune_result_valid);
    ("tune deterministic", `Quick, test_tune_deterministic);
    ("tune search seconds pinned", `Quick, test_tune_search_seconds_pinned);
    ("tune emits cuda", `Quick, test_tune_emit_cuda);
    ("exhaustive lower-bounds surf", `Slow, test_tune_exhaustive_at_least_as_good);
    ("convergence curve length", `Quick, test_tune_convergence_matches_evals);
    ("cpu baseline minimal", `Quick, test_cpu_baseline_uses_best_variant);
    ("min variant flops", `Quick, test_min_variant_flops);
    ("sampler pinned", `Quick, test_sampler_pinned);
    ( "pool pinned: eqn1",
      `Quick,
      test_pool_pinned "eqn1" (Benchsuite.Suite.eqn1 ~n:10 ()) "2b7dfd71f0455cc13f9f9027d363fd08" );
    ( "pool pinned: tce_ex",
      `Quick,
      test_pool_pinned "tce_ex" (Benchsuite.Suite.tce_ex ~n:16 ()) "d67a3728d9576f6e069b4e08194d6e92" );
    ("tune search order pinned", `Quick, test_tune_search_order_pinned);
    ("pool interning invisible", `Quick, test_pool_interning_invisible);
  ]
