(* Tests for the extension features: search-space pruning (Section VIII
   outlook), loop permutation of reduction loops (Section IV), the
   scalar-replacement ablation toggle, and joint Nekbone tuning. *)

let check_int = Alcotest.(check int)
let arch = Gpusim.Arch.gtx980

let ir_of_dsl src =
  let set = match Octopi.Variants.of_string src with [ s ] -> s | _ -> assert false in
  Tcr.Ir.of_variant ~label:"t" set.contraction (List.hd set.variants)

(* ---------------- Pruning ---------------- *)

let mm_space () =
  let ir = ir_of_dsl "dims: i=64 j=64 k=64\nC[i j] = Sum([k], A[i k] * B[k j])" in
  Tcr.Space.make ir 0

let test_prune_subset () =
  let s = mm_space () in
  let all = List.map Tcr.Space.point_key (Tcr.Space.enumerate s) in
  let kept = Tcr.Prune.enumerate Tcr.Prune.default s in
  Alcotest.(check bool) "pruned is a subset" true
    (List.for_all (fun p -> List.mem (Tcr.Space.point_key p) all) kept);
  Alcotest.(check bool) "pruning removes something" true
    (List.length kept < List.length all)

let test_prune_respects_policy () =
  let s = mm_space () in
  List.iter
    (fun (p : Tcr.Space.point) ->
      let tpb = Tcr.Prune.threads_per_block s p.decomp in
      Alcotest.(check bool) "thread bounds" true (tpb >= 32 && tpb <= 512);
      Alcotest.(check bool) "grid bound" true (Tcr.Prune.num_blocks s p.decomp >= 8);
      Alcotest.(check bool) "coalesced store" true (Tcr.Prune.output_coalesced s p.decomp);
      List.iter
        (fun (loop, u) ->
          Alcotest.(check bool) "dividing unroll" true
            (u = 1 || Tcr.Ir.extent s.ir loop mod u = 0))
        p.unrolls)
    (Tcr.Prune.enumerate Tcr.Prune.default s)

let test_prune_conservative_superset () =
  let s = mm_space () in
  let conservative =
    {
      Tcr.Prune.min_threads_per_block = 8;
      max_threads_per_block = 1024;
      min_blocks = 2;
      require_coalesced_output = false;
      dividing_unrolls_only = false;
    }
  in
  Alcotest.(check bool) "conservative keeps more" true
    (Tcr.Prune.count conservative s >= Tcr.Prune.count Tcr.Prune.default s)

let test_prune_fraction_range () =
  let s = mm_space () in
  let f = Tcr.Prune.pruned_fraction Tcr.Prune.default s in
  Alcotest.(check bool) "fraction in (0,1)" true (f > 0.0 && f < 1.0)

let test_prune_keeps_quality () =
  (* tuning over the pruned pool loses little vs the full pool *)
  let b = Benchsuite.Suite.lg3 ~p:8 ~elems:32 () in
  let cfg = { Surf.Search.default_config with max_evals = 60 } in
  let tune ?prune seed =
    Autotune.Tuner.tune ~strategy:(Autotune.Tuner.Surf_search cfg) ?prune
      ~pool_per_variant:200 ~rng:(Util.Rng.create seed) ~arch b
  in
  let full = tune 5 in
  let pruned = tune ~prune:Tcr.Prune.default 5 in
  Alcotest.(check bool) "within 15% of the full-space result" true
    (pruned.best_report.kernel_time_s <= 1.15 *. full.best_report.kernel_time_s)

(* ---------------- Loop permutation ---------------- *)

let test_reduction_orders_counts () =
  let ir = ir_of_dsl "dims: i=4 j=4 k=4 l=4\nY[i j] = Sum([k l], A[i k l] * B[k j l])" in
  let op = List.hd ir.ops in
  (* two reduction loops: both orders are candidates *)
  check_int "2 orders" 2 (List.length (Tcr.Decision.reduction_orders op));
  let single = ir_of_dsl "C[i j] = Sum([k], A[i k] * B[k j])" in
  check_int "1 order" 1
    (List.length (Tcr.Decision.reduction_orders (List.hd single.ops)))

let test_space_counts_permutations () =
  let ir = ir_of_dsl "dims: i=4 j=4 k=4 l=4\nY[i j] = Sum([k l], A[i k l] * B[k j l])" in
  let s = Tcr.Space.make ir 0 in
  check_int "count includes order factor"
    (List.length (Tcr.Space.decompositions s)
    * List.length (Tcr.Space.unroll_combos s)
    * 2)
    (Tcr.Space.count s)

let test_permutation_preserves_semantics () =
  let ir = ir_of_dsl "dims: i=4 j=3 k=5 l=2\nY[i j] = Sum([k l], A[i k l] * B[k j l])" in
  let s = Tcr.Space.make ir 0 in
  let rng = Util.Rng.create 8 in
  let inputs =
    List.filter_map
      (fun (v : Tcr.Ir.var) ->
        if v.role = Tcr.Ir.Input then
          Some (v.name, Tensor.Dense.random rng (Tcr.Ir.var_shape ir v.name))
        else None)
      ir.vars
  in
  let want = Codegen.Exec.run_reference ir inputs in
  List.iter
    (fun (p : Tcr.Space.point) ->
      let got = Codegen.Exec.run_program ir [ p ] inputs in
      Alcotest.(check bool)
        ("order " ^ Tcr.Space.point_key p)
        true
        (Tensor.Dense.approx_equal (List.assoc "Y" want) (List.assoc "Y" got)))
    (List.filteri (fun i _ -> i mod 17 = 0) (Tcr.Space.enumerate s))

let test_permutation_changes_loop_nest () =
  let ir = ir_of_dsl "dims: i=4 j=4 k=5 l=6\nY[i j] = Sum([k l], A[i k l] * B[k j l])" in
  let s = Tcr.Space.make ir 0 in
  let base = List.hd (Tcr.Space.enumerate s) in
  let k_first = { base with Tcr.Space.red_order = [ "k"; "l" ] } in
  let l_first = { base with Tcr.Space.red_order = [ "l"; "k" ] } in
  let order p =
    let k = Codegen.Kernel.lower ~name:"t" ir (List.hd ir.ops) p in
    List.map (fun (l : Codegen.Kernel.loop) -> l.index) (Codegen.Kernel.reduction_loops k)
  in
  Alcotest.(check (list string)) "k outer" [ "k"; "l" ] (order k_first);
  Alcotest.(check (list string)) "l outer" [ "l"; "k" ] (order l_first)

let test_permutation_rejects_bad_order () =
  let ir = ir_of_dsl "dims: i=4 j=4 k=5 l=6\nY[i j] = Sum([k l], A[i k l] * B[k j l])" in
  let s = Tcr.Space.make ir 0 in
  let base = List.hd (Tcr.Space.enumerate s) in
  let bad = { base with Tcr.Space.red_order = [ "k" ] } in
  Alcotest.(check bool) "partial order rejected" true
    (try
       ignore (Codegen.Kernel.lower ~name:"t" ir (List.hd ir.ops) bad);
       false
     with Invalid_argument _ -> true)

let test_permutation_affects_time () =
  (* A depends only on the reduction loop k: with k outermost its load
     hoists out of l, with k innermost it re-executes per (k, l) pair - the
     model's traffic must differ between the two orders *)
  let e = 32 in
  let extents = [ ("i", e); ("j", e); ("k", e); ("l", e) ] in
  let ir =
    {
      Tcr.Ir.label = "perm";
      extents;
      vars =
        [
          { Tcr.Ir.name = "A"; dims = [ "i"; "k" ]; role = Tcr.Ir.Input };
          { Tcr.Ir.name = "U"; dims = [ "k"; "l" ]; role = Tcr.Ir.Input };
          { Tcr.Ir.name = "B"; dims = [ "j"; "l" ]; role = Tcr.Ir.Input };
          { Tcr.Ir.name = "Y"; dims = [ "i"; "j" ]; role = Tcr.Ir.Output };
        ];
      ops =
        [
          {
            Tcr.Ir.out = "Y";
            out_indices = [ "i"; "j" ];
            factors = [ ("A", [ "i"; "k" ]); ("U", [ "k"; "l" ]); ("B", [ "j"; "l" ]) ];
            loop_order = [ "i"; "j"; "k"; "l" ];
          };
        ];
    }
  in
  Tcr.Ir.validate ir;
  let s = Tcr.Space.make ir 0 in
  let base = List.hd (Tcr.Space.enumerate s) in
  let t order =
    let k =
      Codegen.Kernel.lower ~name:"t" ir (List.hd ir.ops)
        { base with Tcr.Space.red_order = order }
    in
    let r = Gpusim.Perf.analyze_kernel arch k in
    r.dram_bytes +. r.l2_bytes
  in
  Alcotest.(check bool) "orders differ in modeled traffic" true
    (abs_float (t [ "k"; "l" ] -. t [ "l"; "k" ]) > 0.0)

(* ---------------- Scalar replacement ablation ---------------- *)

let test_scalar_replace_off_correct () =
  let ir = ir_of_dsl "dims: i=5 j=4 k=6\nC[i j] = Sum([k], A[i k] * B[k j])" in
  let s = Tcr.Space.make ir 0 in
  let p = List.hd (Tcr.Space.enumerate s) in
  let rng = Util.Rng.create 12 in
  let inputs =
    List.filter_map
      (fun (v : Tcr.Ir.var) ->
        if v.role = Tcr.Ir.Input then
          Some (v.name, Tensor.Dense.random rng (Tcr.Ir.var_shape ir v.name))
        else None)
      ir.vars
  in
  let with_sr = Codegen.Exec.run_program ir [ p ] inputs in
  let without = Codegen.Exec.run_program ~scalar_replace:false ir [ p ] inputs in
  Alcotest.(check bool) "same result" true
    (Tensor.Dense.approx_equal (List.assoc "C" with_sr) (List.assoc "C" without))

let test_scalar_replace_off_slower () =
  let ir = ir_of_dsl "dims: i=128 j=128 k=128\nC[i j] = Sum([k], A[i k] * B[k j])" in
  let s = Tcr.Space.make ir 0 in
  let p = List.hd (Tcr.Space.enumerate s) in
  let on = Gpusim.Gpu.measure arch ir [ p ] in
  let off = Gpusim.Gpu.measure ~scalar_replace:false arch ir [ p ] in
  Alcotest.(check bool) "extra output traffic costs time" true
    (off.kernel_time_s > on.kernel_time_s)

let test_scalar_replace_off_cuda_form () =
  let ir = ir_of_dsl "dims: i=6 j=6 k=6\nC[i j] = Sum([k], A[i k] * B[k j])" in
  let s = Tcr.Space.make ir 0 in
  let p = List.hd (Tcr.Space.enumerate s) in
  let cuda = Codegen.Cuda.emit_program ~scalar_replace:false ir [ p ] in
  Alcotest.(check bool) "no register accumulator" true
    (not (Astring_contains.contains cuda "double nv"));
  Alcotest.(check bool) "global accumulate" true (Astring_contains.contains cuda "C[")

(* ---------------- Joint Nekbone ---------------- *)

let test_joint_benchmark_structure () =
  let b = Benchsuite.Nekbone.joint_benchmark { Benchsuite.Nekbone.p = 4; elems = 3 } in
  check_int "six statements" 6 (List.length b.statements);
  let choices = Autotune.Tuner.variant_choices b in
  check_int "one joint variant" 1 (List.length choices);
  let ir = (List.hd choices).v_ir in
  check_int "six kernels" 6 (List.length ir.ops);
  (* lg3's outputs feed lg3t's statements inside one program *)
  Alcotest.(check bool) "ur produced and consumed" true
    (List.exists
       (fun (op : Tcr.Ir.op) -> List.exists (fun (n, _) -> n = "ur") op.factors)
       ir.ops)

let test_joint_benchmark_executes () =
  let b = Benchsuite.Nekbone.joint_benchmark { Benchsuite.Nekbone.p = 4; elems = 3 } in
  let c = List.hd (Autotune.Tuner.variant_choices b) in
  let points = List.map (fun s -> List.hd (Tcr.Space.enumerate s)) c.spaces.op_spaces in
  let rng = Util.Rng.create 13 in
  let inputs =
    List.filter_map
      (fun (v : Tcr.Ir.var) ->
        if v.role = Tcr.Ir.Input then
          Some (v.name, Tensor.Dense.random rng (Tcr.Ir.var_shape c.v_ir v.name))
        else None)
      c.v_ir.vars
  in
  let got = Codegen.Exec.run_program c.v_ir points inputs in
  let want = Codegen.Exec.run_reference c.v_ir inputs in
  Alcotest.(check bool) "joint program correct" true
    (Tensor.Dense.approx_equal (List.assoc "w" want) (List.assoc "w" got))

let suite =
  [
    ("prune is a subset", `Quick, test_prune_subset);
    ("prune respects policy", `Quick, test_prune_respects_policy);
    ("prune conservative superset", `Quick, test_prune_conservative_superset);
    ("prune fraction range", `Quick, test_prune_fraction_range);
    ("prune keeps quality", `Slow, test_prune_keeps_quality);
    ("reduction order counts", `Quick, test_reduction_orders_counts);
    ("space counts permutations", `Quick, test_space_counts_permutations);
    ("permutation preserves semantics", `Quick, test_permutation_preserves_semantics);
    ("permutation changes loop nest", `Quick, test_permutation_changes_loop_nest);
    ("permutation rejects bad order", `Quick, test_permutation_rejects_bad_order);
    ("permutation affects modeled time", `Quick, test_permutation_affects_time);
    ("scalar replace off correct", `Quick, test_scalar_replace_off_correct);
    ("scalar replace off slower", `Quick, test_scalar_replace_off_slower);
    ("scalar replace off cuda form", `Quick, test_scalar_replace_off_cuda_form);
    ("joint benchmark structure", `Quick, test_joint_benchmark_structure);
    ("joint benchmark executes", `Quick, test_joint_benchmark_executes);
  ]
