(* Tests for the static verifier: the three analysis layers (TCR
   well-formedness, recipe legality, kernel resource analysis), the report
   facade, the tuner's pre-evaluation gate and its journal/service
   plumbing. *)

let arch = Gpusim.Arch.gtx980
let fermi = Gpusim.Arch.c2050
let check_int = Alcotest.(check int)

let eqn1_src =
  "dims: i=10 j=10 k=10 l=10 m=10 n=10\n\
   V[i j k] = Sum([l m n], A[l k] * B[m j] * C[n i] * U[l m n])"

let matmul_src = "dims: i=32 j=32 k=32\nC[i j] = Sum([k], A[i k] * B[k j])"

let ir_of src =
  match Octopi.Variants.of_string src with
  | [ set ] -> Tcr.Ir.of_variant ~label:"t" set.contraction (List.hd set.variants)
  | _ -> Alcotest.fail "expected one statement"

let has_code c ds = List.exists (fun (d : Check.Diag.t) -> d.code = c) ds

(* A deliberately broken TCR program: T is read before any statement
   produces it (BAR014), and the T:(k,j) reference disagrees with the
   declared T:(i,j) extents in position 0 (BAR013). *)
let broken_tcr =
  "broken\n\
   access: linearize\n\
   define:\n\
   i = 8\n\
   j = 8\n\
   k = 4\n\
   variables:\n\
   A:(i,k)\n\
   B:(k,j)\n\
   T:(i,j)\n\
   C:(i,j)\n\
   operations:\n\
   C:(i,j) += A:(i,k)*T:(k,j)\n\
   T:(i,j) += A:(i,k)*B:(k,j)\n"

(* ---------------- layer 1: TCR well-formedness ---------------- *)

let test_ir_clean () =
  check_int "eqn1 IR has no findings" 0 (List.length (Check.Verify.ir (ir_of eqn1_src)));
  check_int "matmul IR has no findings" 0
    (List.length (Check.Verify.ir (ir_of matmul_src)))

let test_ir_broken_fixture () =
  let ir = Tcr.Read.program ~validate:false broken_tcr in
  let ds = Check.Verify.ir ir in
  Alcotest.(check bool) "has errors" true (Check.Diag.has_errors ds);
  Alcotest.(check bool) "read-before-produce" true (has_code "BAR014" ds);
  Alcotest.(check bool) "extent mismatch" true (has_code "BAR013" ds)

let test_ir_missing_extent () =
  let ir = ir_of matmul_src in
  let ir = { ir with Tcr.Ir.extents = List.remove_assoc "k" ir.Tcr.Ir.extents } in
  Alcotest.(check bool) "BAR010" true (has_code "BAR010" (Check.Verify.ir ir))

let test_ir_undeclared_tensor () =
  let ir = ir_of matmul_src in
  let op = List.hd ir.Tcr.Ir.ops in
  let op = { op with Tcr.Ir.factors = op.factors @ [ ("GHOST", [ "i"; "k" ]) ] } in
  let ir = { ir with Tcr.Ir.ops = [ op ] } in
  Alcotest.(check bool) "BAR011" true (has_code "BAR011" (Check.Verify.ir ir))

let test_ir_self_read_race () =
  let ir = ir_of matmul_src in
  let op = List.hd ir.Tcr.Ir.ops in
  let op = { op with Tcr.Ir.factors = (op.out, op.out_indices) :: op.factors } in
  let ir = { ir with Tcr.Ir.ops = [ op ] } in
  Alcotest.(check bool) "BAR017" true (has_code "BAR017" (Check.Verify.ir ir))

(* ---------------- layer 2: recipe legality ---------------- *)

let mm_space () = Tcr.Space.make (ir_of matmul_src) 0

let point decomp unrolls red_order = { Tcr.Space.decomp; unrolls; red_order }

let d2 tx bx = { Tcr.Space.tx; ty = None; bx; by = None }

let test_recipe_reduction_race () =
  (* k is the reduction index of C[i,j] += A[i,k]*B[k,j]: mapping it to
     ThreadX makes every thread accumulate into the same element *)
  let ds = Check.Recipe_check.check (mm_space ()) (point (d2 "k" "i") [] []) in
  Alcotest.(check bool) "BAR020" true (has_code "BAR020" ds);
  Alcotest.(check bool) "is an error" true (Check.Diag.has_errors ds)

let test_recipe_duplicate_slot () =
  let ds = Check.Recipe_check.check (mm_space ()) (point (d2 "i" "i") [] []) in
  Alcotest.(check bool) "BAR021" true (has_code "BAR021" ds)

let test_recipe_unknown_index () =
  let ds = Check.Recipe_check.check (mm_space ()) (point (d2 "z" "i") [] []) in
  Alcotest.(check bool) "BAR022" true (has_code "BAR022" ds)

let test_recipe_red_order () =
  let bad = Check.Recipe_check.check (mm_space ()) (point (d2 "j" "i") [] [ "i" ]) in
  Alcotest.(check bool) "BAR024" true (has_code "BAR024" bad);
  let good = Check.Recipe_check.check (mm_space ()) (point (d2 "j" "i") [] [ "k" ]) in
  Alcotest.(check bool) "source-order permutation ok" false (Check.Diag.has_errors good)

let test_recipe_unroll_bounds () =
  let over = Check.Recipe_check.check (mm_space ()) (point (d2 "j" "i") [ ("k", 64) ] []) in
  Alcotest.(check bool) "BAR025 over extent" true (has_code "BAR025" over);
  let nonpos = Check.Recipe_check.check (mm_space ()) (point (d2 "j" "i") [ ("k", 0) ] []) in
  Alcotest.(check bool) "BAR025 non-positive" true (has_code "BAR025" nonpos)

let test_recipe_enumerated_clean () =
  let s = mm_space () in
  List.iter
    (fun p ->
      let ds = Check.Recipe_check.check s p in
      if Check.Diag.has_errors ds then
        Alcotest.failf "enumerated point %s has recipe errors:\n%s"
          (Tcr.Space.point_key p) (Check.Diag.render_report ds))
    (Tcr.Space.enumerate s)

(* The full rendered text of every finding, in order: sites and messages
   are formatted only in the branch that makes a finding, so a code match
   alone would not notice a message drifting. *)
let check_renders what expected ds =
  Alcotest.(check (list string)) what expected (List.map Check.Diag.render ds)

let test_recipe_findings_pinned () =
  let r ?(space = mm_space ()) p = Check.Recipe_check.check space p in
  check_renders "BAR020"
    [
      "[BAR020] error (recipe) op1(C): reduction index k is mapped to tx: concurrent \
       threads would race on the accumulation";
    ]
    (r (point (d2 "k" "i") [] []));
  check_renders "BAR021"
    [ "[BAR021] error (recipe) op1(C): index i is assigned to both tx and bx" ]
    (r (point (d2 "i" "i") [] []));
  check_renders "BAR022 slot"
    [
      "[BAR022] error (recipe) op1(C): tx is mapped to index z, which the statement \
       does not iterate";
    ]
    (r (point (d2 "z" "i") [] []));
  check_renders "BAR022 unroll"
    [
      "[BAR022] error (recipe) op1(C): unroll names index z, which the statement does \
       not iterate";
    ]
    (r (point (d2 "j" "i") [ ("z", 2) ] []));
  check_renders "BAR023"
    [
      "[BAR023] error (recipe) op1(C): block of 32x1 = 32 threads exceeds the 16-thread \
       limit";
    ]
    (r
       ~space:(Tcr.Space.make ~max_threads_per_block:16 (ir_of matmul_src) 0)
       (point (d2 "j" "i") [] []));
  check_renders "BAR024"
    [
      "[BAR024] error (recipe) op1(C): reduction order (i) is not a permutation of the \
       reduction loops (k)";
    ]
    (r (point (d2 "j" "i") [] [ "i" ]));
  check_renders "BAR025 over the extent"
    [ "[BAR025] error (recipe) op1(C): unroll factor 64 exceeds the extent 32 of loop k" ]
    (r (point (d2 "j" "i") [ ("k", 64) ] []));
  check_renders "BAR025 not positive"
    [ "[BAR025] error (recipe) op1(C): unroll factor 0 of loop k is not positive" ]
    (r (point (d2 "j" "i") [ ("k", 0) ] []));
  check_renders "BAR026 with lints"
    [
      "[BAR026] warning (recipe) op1(C): loop j is mapped to the hardware \
       decomposition; its unroll factor is ignored";
    ]
    (r (point (d2 "j" "i") [ ("j", 2) ] []));
  check_renders "BAR027 with lints"
    [
      "[BAR027] info (recipe) op1(C): unroll factor 5 does not divide the extent 32 of \
       loop k (epilogue iterations remain)";
    ]
    (r (point (d2 "j" "i") [ ("k", 5) ] []));
  (* every check at once: decomposition (unknown, races, duplicates),
     reduction order, then the unrolls in the point's order *)
  check_renders "order across checks"
    [
      "[BAR022] error (recipe) op1(C): ty is mapped to index z, which the statement \
       does not iterate";
      "[BAR020] error (recipe) op1(C): reduction index k is mapped to tx: concurrent \
       threads would race on the accumulation";
      "[BAR020] error (recipe) op1(C): reduction index k is mapped to bx: concurrent \
       threads would race on the accumulation";
      "[BAR021] error (recipe) op1(C): index k is assigned to both tx and bx";
      "[BAR024] error (recipe) op1(C): reduction order (i) is not a permutation of the \
       reduction loops (k)";
      "[BAR022] error (recipe) op1(C): unroll names index z, which the statement does \
       not iterate";
      "[BAR025] error (recipe) op1(C): unroll factor 0 of loop k is not positive";
      "[BAR027] info (recipe) op1(C): unroll factor 3 does not divide the extent 32 of \
       loop j (epilogue iterations remain)";
    ]
    (r
       (point
          { Tcr.Space.tx = "k"; ty = Some "z"; bx = "k"; by = None }
          [ ("z", 2); ("k", 0); ("i", 2); ("j", 3) ]
          [ "i" ]))

(* [~lints:false] means errors only, at both layers: exactly the
   error-severity subset of the lints-on findings, in the same order. *)
let test_lints_off_is_error_subset () =
  let s = mm_space () in
  let hand_made =
    [
      point (d2 "k" "i") [] [];
      point (d2 "i" "i") [] [];
      point (d2 "z" "i") [ ("z", 2) ] [];
      point (d2 "j" "i") [ ("k", 64) ] [ "i" ];
      point (d2 "j" "i") [ ("j", 2); ("k", 5) ] [];
      point (d2 "i" "j") [ ("k", 3) ] [];
      point
        { Tcr.Space.tx = "k"; ty = Some "z"; bx = "k"; by = None }
        [ ("z", 2); ("k", 0); ("i", 2); ("j", 3) ]
        [ "i" ];
    ]
  in
  let renders ds = List.map Check.Diag.render ds in
  List.iter
    (fun p ->
      let key = Tcr.Space.point_key p in
      let on = Check.Recipe_check.check s p in
      Alcotest.(check (list string)) ("recipe " ^ key)
        (renders (Check.Diag.errors on))
        (renders (Check.Recipe_check.check ~lints:false s p));
      let on = Check.Verify.space_point ~arch s p in
      Alcotest.(check (list string)) ("space_point " ^ key)
        (renders (Check.Diag.errors on))
        (renders (Check.Verify.space_point ~lints:false ~arch s p)))
    (hand_made @ Tcr.Space.enumerate s);
  (* the lints this drops do exist with lints on *)
  let p = point (d2 "j" "i") [ ("j", 2); ("k", 5) ] [] in
  Alcotest.(check (list string)) "lint codes with lints on" [ "BAR026"; "BAR027" ]
    (List.map (fun (d : Check.Diag.t) -> d.code) (Check.Verify.space_point ~arch s p));
  check_int "none with lints off" 0
    (List.length (Check.Verify.space_point ~lints:false ~arch s p))

(* ---------------- layer 3: kernel resource analysis ---------------- *)

let mm_kernel () =
  let ir = ir_of matmul_src in
  let s = Tcr.Space.make ir 0 in
  let p = List.hd (Tcr.Space.enumerate s) in
  Codegen.Kernel.lower ~name:"mm_GPU_1" ir (List.hd ir.Tcr.Ir.ops) p

let test_kernel_clean () =
  let k = mm_kernel () in
  Alcotest.(check bool) "no errors" false
    (Check.Diag.has_errors (Check.Kernel_check.check arch k))

let test_kernel_out_of_bounds () =
  let k = mm_kernel () in
  (* doubling blockDim.x drives the tx index past its extent: the max
     linearized offset now provably reaches past the allocation *)
  let bad = { k with Codegen.Kernel.block = (2 * fst k.Codegen.Kernel.block, snd k.block) } in
  let ds = Check.Kernel_check.check ~lints:false arch bad in
  Alcotest.(check bool) "BAR030" true (has_code "BAR030" ds);
  Alcotest.(check bool) "is an error" true (Check.Diag.has_errors ds)

let test_kernel_register_overflow () =
  (* 1024 threads/block at ~40 regs/thread: over Fermi's 32K-register file,
     comfortably inside GTX 980's 64K one *)
  let src = "dims: i=1024 j=2 k=32\nC[i j] = Sum([k], A[i k] * B[k j])" in
  let ir = ir_of src in
  let p = point (d2 "i" "j") [ ("k", 10) ] [] in
  let k = Codegen.Kernel.lower ~name:"big_GPU_1" ir (List.hd ir.Tcr.Ir.ops) p in
  Alcotest.(check bool) "BAR031 on Fermi" true
    (has_code "BAR031" (Check.Kernel_check.check ~lints:false fermi k));
  Alcotest.(check bool) "fits GTX 980" false
    (has_code "BAR031" (Check.Kernel_check.check ~lints:false arch k))

let test_kernel_launch_limits () =
  let k = mm_kernel () in
  let big_x = { k with Codegen.Kernel.grid = (70000, snd k.Codegen.Kernel.grid) } in
  Alcotest.(check bool) "grid.x over Fermi's 65535" true
    (has_code "BAR033" (Check.Kernel_check.check ~lints:false fermi big_x));
  Alcotest.(check bool) "grid.x fine post-Fermi" false
    (has_code "BAR033" (Check.Kernel_check.check ~lints:false arch big_x));
  let big_y = { k with Codegen.Kernel.grid = (fst k.Codegen.Kernel.grid, 70000) } in
  Alcotest.(check bool) "grid.y over 65535 everywhere" true
    (has_code "BAR033" (Check.Kernel_check.check ~lints:false arch big_y));
  let big_block = { k with Codegen.Kernel.block = (2048, 1) } in
  Alcotest.(check bool) "BAR032" true
    (has_code "BAR032" (Check.Kernel_check.check ~lints:false arch big_block));
  let zero = { k with Codegen.Kernel.grid = (0, 1) } in
  Alcotest.(check bool) "BAR034" true
    (has_code "BAR034" (Check.Kernel_check.check ~lints:false arch zero))

let test_kernel_lints () =
  let src = "dims: i=4 j=4 k=4\nC[i j] = Sum([k], A[i k] * B[k j])" in
  let ir = ir_of src in
  let s = Tcr.Space.make ir 0 in
  let p = List.hd (Tcr.Space.enumerate s) in
  let k = Codegen.Kernel.lower ~name:"tiny_GPU_1" ir (List.hd ir.Tcr.Ir.ops) p in
  let ds = Check.Kernel_check.check arch k in
  Alcotest.(check bool) "partial warp lint" true (has_code "BAR074" ds);
  Alcotest.(check bool) "idle SMs lint" true (has_code "BAR075" ds);
  Alcotest.(check bool) "lints are not errors" false (Check.Diag.has_errors ds);
  check_int "lints off: no warnings" 0
    (List.length (Check.Diag.warnings (Check.Kernel_check.check ~lints:false arch k)))

let test_kernel_findings_pinned () =
  let k = mm_kernel () in
  let kc a k = Check.Kernel_check.check ~lints:false a k in
  check_renders "BAR030 out of bounds"
    [
      "[BAR030] error (kernel) mm_GPU_1: out of bounds: max linearized offset 1055 of C \
       reaches past its 1024 elements";
      "[BAR030] error (kernel) mm_GPU_1: out of bounds: max linearized offset 1055 of B \
       reaches past its 1024 elements";
    ]
    (kc arch { k with Codegen.Kernel.block = (2 * fst k.Codegen.Kernel.block, snd k.block) });
  check_renders "BAR030 no extent"
    [
      "[BAR030] error (kernel) mm_GPU_1: cannot bound offsets of A: dimension k has no \
       extent";
      "[BAR030] error (kernel) mm_GPU_1: cannot bound offsets of B: dimension k has no \
       extent";
    ]
    (kc arch
       { k with Codegen.Kernel.extents = List.remove_assoc "k" k.Codegen.Kernel.extents });
  let ir = ir_of "dims: i=1024 j=2 k=32\nC[i j] = Sum([k], A[i k] * B[k j])" in
  let big =
    Codegen.Kernel.lower ~name:"big_GPU_1" ir (List.hd ir.Tcr.Ir.ops)
      (point (d2 "i" "j") [ ("k", 10) ] [])
  in
  check_renders "BAR031"
    [
      "[BAR031] error (kernel) big_GPU_1: register demand 40 regs/thread x 1024 threads \
       = 40960 exceeds the 32768-register file of one Fermi SM";
    ]
    (kc fermi big);
  check_renders "BAR032 (and the offsets it drives out of bounds)"
    [
      "[BAR030] error (kernel) mm_GPU_1: out of bounds: max linearized offset 3039 of C \
       reaches past its 1024 elements";
      "[BAR030] error (kernel) mm_GPU_1: out of bounds: max linearized offset 3039 of B \
       reaches past its 1024 elements";
      "[BAR032] error (kernel) mm_GPU_1: block of 2048x1 = 2048 threads exceeds GTX \
       980's limit of 1024";
    ]
    (kc arch { k with Codegen.Kernel.block = (2048, 1) });
  check_renders "BAR033 x (and the offsets it drives out of bounds)"
    [
      "[BAR030] error (kernel) mm_GPU_1: out of bounds: max linearized offset 2239999 of \
       C reaches past its 1024 elements";
      "[BAR030] error (kernel) mm_GPU_1: out of bounds: max linearized offset 2239999 of \
       A reaches past its 1024 elements";
      "[BAR033] error (kernel) mm_GPU_1: grid x dimension 70000 exceeds Tesla C2050's \
       limit of 65535";
    ]
    (kc fermi { k with Codegen.Kernel.grid = (70000, snd k.Codegen.Kernel.grid) });
  check_renders "BAR033 y"
    [
      "[BAR033] error (kernel) mm_GPU_1: grid y dimension 70000 exceeds GTX 980's limit \
       of 65535";
    ]
    (kc arch { k with Codegen.Kernel.grid = (fst k.Codegen.Kernel.grid, 70000) });
  check_renders "BAR034"
    [ "[BAR034] error (kernel) mm_GPU_1: grid x dimension 0 is not positive" ]
    (kc arch { k with Codegen.Kernel.grid = (0, 1) });
  check_renders "BAR034 on every dimension"
    [
      "[BAR034] error (kernel) mm_GPU_1: grid x dimension 0 is not positive";
      "[BAR034] error (kernel) mm_GPU_1: grid y dimension -1 is not positive";
      "[BAR034] error (kernel) mm_GPU_1: block x dimension 0 is not positive";
      "[BAR034] error (kernel) mm_GPU_1: block y dimension 0 is not positive";
    ]
    (kc arch { k with Codegen.Kernel.grid = (0, -1); block = (0, 0) })

(* The range the bounds proof gives an index: its launch dimension when
   mapped, its loop extent when serial, the larger of both when a
   malformed kernel drives it both ways, and never below 1. *)
let test_kernel_index_range () =
  let k = mm_kernel () in
  let range k i = Codegen.Kernel.range k i in
  check_int "mapped to tx" 32 (range k "j");
  check_int "mapped to bx" 32 (range k "i");
  check_int "serial loop" 32 (range k "k");
  check_int "never driven" 1 (range k "z");
  check_int "empty block" 1 (range { k with Codegen.Kernel.block = (0, 1) } "j");
  let loop_j = { Codegen.Kernel.index = "j"; extent = 48; unroll = 1; parallel = true } in
  check_int "mapped and serial" 48
    (range { k with block = (8, 1); thread_loops = k.thread_loops @ [ loop_j ] } "j");
  check_int "ty and serial" 64
    (range { k with decomp = { k.decomp with ty = Some "k" }; block = (32, 64) } "k")

(* ---------------- the verifier facade ---------------- *)

let test_space_point_stops_on_recipe_error () =
  let ds = Check.Verify.space_point ~arch (mm_space ()) (point (d2 "k" "i") [] []) in
  Alcotest.(check bool) "reduction race reported" true (has_code "BAR020" ds);
  Alcotest.(check bool) "nothing was lowered" true
    (List.for_all (fun (d : Check.Diag.t) -> d.stage = Check.Diag.Recipe) ds)

let test_choice_counts () =
  let ir = ir_of matmul_src in
  let ps = Tcr.Space.of_ir ir in
  let r = Check.Verify.choice ~lints:false ~arch ps in
  check_int "one variant" 1 r.Check.Verify.variants;
  check_int "every point checked" (Tcr.Space.program_count ps) r.points_checked;
  check_int "every point lowered" r.points_checked r.kernels_checked;
  check_int "zero errors" 0 (List.length (Check.Diag.errors r.diags));
  Alcotest.(check bool) "not truncated" false r.truncated;
  let capped = Check.Verify.choice ~lints:false ~max_points_per_op:3 ~arch ps in
  check_int "cap respected" 3 capped.points_checked;
  Alcotest.(check bool) "truncation reported" true capped.truncated

(* Acceptance: the full default search space of the Eqn.(1) fixture -
   every OCTOPI variant, every enumerated point - verifies with zero
   errors. *)
let test_eqn1_full_space_clean () =
  let b = Autotune.Tuner.benchmark_of_dsl ~label:"eqn1" eqn1_src in
  let labeled =
    List.map
      (fun (c : Autotune.Tuner.variant_choice) ->
        (Printf.sprintf "v%s" (String.concat "." (List.map string_of_int c.ids)), c.spaces))
      (Autotune.Tuner.variant_choices b)
  in
  let r = Check.Verify.program ~lints:false ~arch labeled in
  Alcotest.(check bool) "several variants" true (r.Check.Verify.variants > 1);
  Alcotest.(check bool) "thousands of points" true (r.points_checked > 1000);
  check_int "zero errors over the whole space" 0
    (List.length (Check.Diag.errors r.diags))

let test_report_json () =
  let ir = ir_of matmul_src in
  let r = Check.Verify.choice ~lints:false ~arch (Tcr.Space.of_ir ir) in
  match Obs.Json.parse (Obs.Json.to_string (Check.Verify.report_json r)) with
  | Error e -> Alcotest.failf "report JSON does not reparse: %s" e
  | Ok j ->
    let get name =
      match Option.bind (Obs.Json.member name j) Obs.Json.get_num with
      | Some n -> int_of_float n
      | None -> Alcotest.failf "missing %s" name
    in
    check_int "points" r.points_checked (get "points_checked");
    check_int "errors" 0 (get "errors")

(* ---------------- the tuner's pre-evaluation gate ---------------- *)

let tune_eqn1 () =
  let b = Autotune.Tuner.benchmark_of_dsl ~label:"eqn1" eqn1_src in
  let cfg = { Surf.Search.default_config with max_evals = 10 } in
  Autotune.Tuner.tune
    ~strategy:(Autotune.Tuner.Surf_search cfg)
    ~pool_per_variant:40 ~rng:(Util.Rng.create 42) ~arch b

(* Acceptance: the decision algorithm only proposes legal points, so on
   the seed fixture the gate checks the whole pool and rejects nothing. *)
let test_gate_rejects_nothing () =
  let r = tune_eqn1 () in
  Alcotest.(check bool) "gate saw the pool" true (r.gate.checked > 0);
  check_int "gate rejected nothing" 0 r.gate.rejected;
  Alcotest.(check (list (pair string int))) "no error codes" [] r.gate.by_code

let test_build_pool_gate_rejects () =
  let b = Autotune.Tuner.benchmark_of_dsl ~label:"mm" matmul_src in
  let choices = Autotune.Tuner.variant_choices b in
  let rng = Util.Rng.create 7 in
  let pool = Autotune.Tuner.build_pool ~gate:(fun _ _ -> false) rng choices in
  check_int "a rejecting gate empties the pool" 0 (Array.length pool);
  let rng = Util.Rng.create 7 in
  let seen = ref 0 in
  let pool =
    Autotune.Tuner.build_pool
      ~gate:(fun _ _ ->
        incr seen;
        true)
      rng choices
  in
  Alcotest.(check bool) "an accepting gate sees every point" true
    (!seen >= Array.length pool && Array.length pool > 0)

(* The pool's strings are built by concatenation: over the whole eqn1
   fixture space they must equal the Printf formats they replace, so the
   pool's dedup, SURF's schema and the winners digests cannot move. *)
let test_pool_strings_match_printf () =
  let b = Autotune.Tuner.benchmark_of_dsl ~label:"eqn1" eqn1_src in
  let ref_key (p : Tcr.Space.point) =
    let d = p.decomp in
    Printf.sprintf "tx=%s ty=%s bx=%s by=%s %s%s" d.tx
      (Option.value d.ty ~default:"1")
      d.bx
      (Option.value d.by ~default:"1")
      (String.concat " " (List.map (fun (l, f) -> Printf.sprintf "u%s=%d" l f) p.unrolls))
      (match p.red_order with [] | [ _ ] -> "" | o -> " ro=" ^ String.concat "." o)
  in
  let ref_names (c : Autotune.Tuner.variant_choice) points =
    "variant"
    :: List.concat
         (List.mapi
            (fun i (space, point) ->
              List.map
                (fun (name, _) -> Printf.sprintf "op%d_%s" (i + 1) name)
                (Tcr.Space.features space point))
            (List.combine c.spaces.op_spaces points))
  in
  let swept = ref 0 in
  List.iter
    (fun (c : Autotune.Tuner.variant_choice) ->
      let per_op = List.map Tcr.Space.enumerate c.spaces.op_spaces in
      let firsts = List.map List.hd per_op in
      List.iteri
        (fun j points ->
          List.iter
            (fun p ->
              incr swept;
              Alcotest.(check string) "point key" (ref_key p) (Tcr.Space.point_key p);
              let points = List.mapi (fun i q -> if i = j then p else q) firsts in
              let cand = Autotune.Tuner.candidate_of c points in
              Alcotest.(check (list string)) "feature names" (ref_names c points)
                (List.map fst cand.features))
            points)
        per_op)
    (Autotune.Tuner.variant_choices b);
  check_int "every point of the space" 22852 !swept

(* A paper-size eqn1 tune gates every draw, duplicates included, and the
   gate rejects none of them (the decision algorithm only proposes legal
   points); the gated pool is the ungated one, byte for byte. *)
let test_paper_gate_counts_pinned () =
  let b = Benchsuite.Suite.eqn1 ~n:10 () in
  let cfg = { Surf.Search.default_config with max_evals = 10 } in
  let r =
    Autotune.Tuner.tune ~strategy:(Autotune.Tuner.Surf_search cfg)
      ~rng:(Util.Rng.create 42) ~arch b
  in
  check_int "gate checked" 27003 r.gate.checked;
  check_int "gate rejected" 0 r.gate.rejected;
  Alcotest.(check (list (pair string int))) "gate codes" [] r.gate.by_code;
  check_int "pool size" 9000 r.pool_size;
  let gate s p = not (Check.Diag.has_errors (Check.Verify.space_point ~lints:false ~arch s p)) in
  let pool =
    Autotune.Tuner.build_pool ~gate (Util.Rng.create 42) (Autotune.Tuner.variant_choices b)
  in
  let key (c : Autotune.Tuner.candidate) =
    String.concat "." (List.map string_of_int c.variant_ids)
    ^ "/" ^ String.concat "|" (List.map Tcr.Space.point_key c.points)
  in
  Alcotest.(check string) "gated pool digest" "2b7dfd71f0455cc13f9f9027d363fd08"
    (Digest.to_hex
       (Digest.string (String.concat "\n" (Array.to_list (Array.map key pool)))))

(* ---------------- journal plumbing ---------------- *)

let test_journal_gate_fields () =
  let r, entries = Obs.Journal.collect tune_eqn1 in
  match entries with
  | [ e ] -> (
    check_int "entry records gate.checked" r.gate.checked e.Obs.Journal.gate_checked;
    check_int "entry records gate.rejected" 0 e.gate_rejected;
    Alcotest.(check bool) "gate ran" true (e.gate_checked > 0);
    (* codec roundtrip *)
    (match Obs.Json.parse (Obs.Json.to_string (Obs.Journal.to_json e)) with
    | Error msg -> Alcotest.failf "journal JSON does not reparse: %s" msg
    | Ok j -> (
      match Obs.Journal.of_json j with
      | Error msg -> Alcotest.failf "journal entry does not decode: %s" msg
      | Ok e' ->
        check_int "gate_checked roundtrips" e.gate_checked e'.gate_checked;
        check_int "gate_rejected roundtrips" e.gate_rejected e'.gate_rejected;
        Alcotest.(check (list (pair string int))) "gate_diags roundtrip" e.gate_diags
          e'.gate_diags));
    (* entries journaled before the gate existed decode to zero/empty *)
    match Obs.Journal.to_json e with
    | Obs.Json.Obj fields -> (
      let legacy =
        Obs.Json.Obj
          (List.filter
             (fun (name, _) ->
               not
                 (String.length name >= 5 && String.sub name 0 5 = "gate_"))
             fields)
      in
      match Obs.Journal.of_json legacy with
      | Error msg -> Alcotest.failf "legacy entry does not decode: %s" msg
      | Ok e' ->
        check_int "legacy gate_checked defaults to 0" 0 e'.gate_checked;
        check_int "legacy gate_rejected defaults to 0" 0 e'.gate_rejected;
        Alcotest.(check (list (pair string int))) "legacy gate_diags default" []
          e'.gate_diags)
    | _ -> Alcotest.fail "journal entry did not serialize to an object")
  | es -> Alcotest.failf "expected one journal entry, got %d" (List.length es)

(* ---------------- service metrics ---------------- *)

let test_service_gate_metrics () =
  let config =
    { Service.Engine.default_config with max_evals = 8; pool_per_variant = 30 }
  in
  let svc = Service.Engine.create ~config () in
  let _ = Service.Engine.tune_dsl svc matmul_src in
  let m = Service.Engine.metrics svc in
  Alcotest.(check bool) "check.points counted" true
    (Service.Metrics.counter m "check.points" > 0);
  check_int "check.rejected zero on a legal space" 0
    (Service.Metrics.counter m "check.rejected")

(* ---------------- diagnostics type ---------------- *)

let test_diag_render_and_dedup () =
  let d = Check.Diag.error Check.Diag.Recipe ~code:"BAR020" ~site:"op1" "race on %s" "n" in
  Alcotest.(check string) "render" "[BAR020] error (recipe) op1: race on n"
    (Check.Diag.render d);
  let w = Check.Diag.warning Check.Diag.Kernel ~code:"BAR040" ~site:"k" "slow" in
  let deduped = Check.Diag.dedup [ w; d; d; w; w ] in
  check_int "two distinct findings" 2 (List.length deduped);
  (match deduped with
  | [ (first, n_first); (second, n_second) ] ->
    (* first-seen order: the warning appeared before the error *)
    Alcotest.(check string) "first-seen first" "BAR040" first.Check.Diag.code;
    check_int "warning count" 3 n_first;
    Alcotest.(check string) "error second" "BAR020" second.code;
    check_int "error count" 2 n_second
  | _ -> Alcotest.fail "dedup shape");
  Alcotest.(check (list (pair string int))) "by_code" [ ("BAR020", 2); ("BAR040", 3) ]
    (Check.Diag.by_code [ w; d; d; w; w ])

(* ---------------- qcheck properties ---------------- *)

let random_matmul_space seed =
  let rng = Util.Rng.create seed in
  let e () = 8 * (1 + Util.Rng.int rng 8) in
  let src =
    Printf.sprintf "dims: i=%d j=%d k=%d\nC[i j] = Sum([k], A[i k] * B[k j])" (e ())
      (e ()) (e ())
  in
  (rng, Tcr.Space.make (ir_of src) 0)

(* Every point the decision algorithm enumerates is legal end to end:
   recipe checks, lowering, and the kernel resource analysis on GTX 980
   (whose 64K-register file fits any 2-factor point the space proposes). *)
let qcheck_enumerated_space_verifies_clean =
  QCheck.Test.make ~name:"every enumerated point passes the verifier" ~count:25
    QCheck.(int_range 0 100000)
    (fun seed ->
      let _, space = random_matmul_space seed in
      List.for_all
        (fun p ->
          not (Check.Diag.has_errors (Check.Verify.space_point ~lints:false ~arch space p)))
        (Tcr.Space.enumerate space))

(* Pruning only filters: for any policy, the pruned enumeration is exactly
   the [point_ok] subset of the full enumeration, in order. *)
let qcheck_prune_subset_of_space =
  QCheck.Test.make ~name:"Prune.enumerate is a subset of Space.enumerate" ~count:40
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng, space = random_matmul_space seed in
      let policy =
        {
          Tcr.Prune.min_threads_per_block = 1 + Util.Rng.int rng 64;
          max_threads_per_block = 32 + Util.Rng.int rng 1024;
          min_blocks = 1 + Util.Rng.int rng 16;
          require_coalesced_output = Util.Rng.int rng 2 = 0;
          dividing_unrolls_only = Util.Rng.int rng 2 = 0;
        }
      in
      let all = Tcr.Space.enumerate space in
      let pruned = Tcr.Prune.enumerate policy space in
      pruned = List.filter (Tcr.Prune.point_ok policy space) all
      && List.length pruned <= List.length all
      && List.for_all (fun p -> List.mem p all) pruned)

let suite =
  [
    Alcotest.test_case "ir: clean fixtures" `Quick test_ir_clean;
    Alcotest.test_case "ir: broken fixture flags BAR013+BAR014" `Quick
      test_ir_broken_fixture;
    Alcotest.test_case "ir: missing extent" `Quick test_ir_missing_extent;
    Alcotest.test_case "ir: undeclared tensor" `Quick test_ir_undeclared_tensor;
    Alcotest.test_case "ir: self-read accumulation race" `Quick test_ir_self_read_race;
    Alcotest.test_case "recipe: reduction race" `Quick test_recipe_reduction_race;
    Alcotest.test_case "recipe: duplicate slot" `Quick test_recipe_duplicate_slot;
    Alcotest.test_case "recipe: unknown index" `Quick test_recipe_unknown_index;
    Alcotest.test_case "recipe: reduction order" `Quick test_recipe_red_order;
    Alcotest.test_case "recipe: unroll bounds" `Quick test_recipe_unroll_bounds;
    Alcotest.test_case "recipe: enumerated space is clean" `Quick
      test_recipe_enumerated_clean;
    Alcotest.test_case "recipe: rendered findings pinned" `Quick
      test_recipe_findings_pinned;
    Alcotest.test_case "verify: lints off is the error subset" `Quick
      test_lints_off_is_error_subset;
    Alcotest.test_case "kernel: clean lowering" `Quick test_kernel_clean;
    Alcotest.test_case "kernel: out-of-bounds proof" `Quick test_kernel_out_of_bounds;
    Alcotest.test_case "kernel: register overflow per arch" `Quick
      test_kernel_register_overflow;
    Alcotest.test_case "kernel: launch limits" `Quick test_kernel_launch_limits;
    Alcotest.test_case "kernel: quality lints" `Quick test_kernel_lints;
    Alcotest.test_case "kernel: rendered findings pinned" `Quick
      test_kernel_findings_pinned;
    Alcotest.test_case "kernel: index ranges" `Quick test_kernel_index_range;
    Alcotest.test_case "verify: recipe error stops lowering" `Quick
      test_space_point_stops_on_recipe_error;
    Alcotest.test_case "verify: choice counts and caps" `Quick test_choice_counts;
    Alcotest.test_case "verify: eqn1 full space is clean" `Quick
      test_eqn1_full_space_clean;
    Alcotest.test_case "verify: report JSON" `Quick test_report_json;
    Alcotest.test_case "gate: fixed-seed tune rejects nothing" `Quick
      test_gate_rejects_nothing;
    Alcotest.test_case "gate: build_pool composition" `Quick
      test_build_pool_gate_rejects;
    Alcotest.test_case "pool: keys and feature names match Printf" `Quick
      test_pool_strings_match_printf;
    Alcotest.test_case "gate: paper-size eqn1 counts pinned" `Quick
      test_paper_gate_counts_pinned;
    Alcotest.test_case "journal: gate fields and legacy decode" `Quick
      test_journal_gate_fields;
    Alcotest.test_case "service: gate metrics" `Quick test_service_gate_metrics;
    Alcotest.test_case "diag: render, dedup, by_code" `Quick test_diag_render_and_dedup;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ qcheck_enumerated_space_verifies_clean; qcheck_prune_subset_of_space ]
