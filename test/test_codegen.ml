(* Tests for kernel lowering, the kernel interpreter (against the einsum
   oracle) and the CUDA / C / OpenACC emitters. *)

let check_int = Alcotest.(check int)
let contains = Astring_contains.contains

let eqn1_small =
  "dims: i=6 j=6 k=6 l=6 m=6 n=6\nV[i j k] = Sum([l m n], A[l k] * B[m j] * C[n i] * U[l m n])"

let variant_set () =
  match Octopi.Variants.of_string eqn1_small with
  | [ s ] -> s
  | _ -> Alcotest.fail "expected one statement"

let ir_of (v : Octopi.Variants.variant) set =
  Tcr.Ir.of_variant ~label:"ex" set.Octopi.Variants.contraction v

let first_points ir =
  let ps = Tcr.Space.of_ir ir in
  List.map (fun s -> List.hd (Tcr.Space.enumerate s)) ps.op_spaces

let random_inputs ?(seed = 3) (ir : Tcr.Ir.t) =
  let rng = Util.Rng.create seed in
  List.filter_map
    (fun (v : Tcr.Ir.var) ->
      if v.role = Tcr.Ir.Input then
        Some (v.name, Tensor.Dense.random rng (Tcr.Ir.var_shape ir v.name))
      else None)
    ir.vars

(* ---------------- Kernel lowering ---------------- *)

let test_lower_dimensions () =
  let set = variant_set () in
  let ir = ir_of (List.hd set.variants) set in
  let op = List.hd ir.ops in
  let space = Tcr.Space.make ir 0 in
  let point = List.hd (Tcr.Space.enumerate space) in
  let k = Codegen.Kernel.lower ~name:"k1" ir op point in
  let bx, by = k.grid and tx, ty = k.block in
  check_int "grid x" (Tcr.Ir.extent ir point.decomp.bx) bx;
  check_int "block x" (Tcr.Ir.extent ir point.decomp.tx) tx;
  Alcotest.(check bool) "grid y default 1" true (point.decomp.by <> None || by = 1);
  Alcotest.(check bool) "block y default 1" true (point.decomp.ty <> None || ty = 1)

let test_lower_serial_split () =
  let set = variant_set () in
  let ir = ir_of (List.hd set.variants) set in
  let op = List.hd ir.ops in
  let point = List.hd (Tcr.Space.enumerate (Tcr.Space.make ir 0)) in
  let k = Codegen.Kernel.lower ~name:"k1" ir op point in
  (* serial loops: parallel ones first, then reductions *)
  let rec check_order seen_reduction = function
    | [] -> true
    | (l : Codegen.Kernel.loop) :: rest ->
      if l.parallel then (not seen_reduction) && check_order false rest
      else check_order true rest
  in
  Alcotest.(check bool) "parallel loops before reductions" true
    (check_order false k.thread_loops)

let test_lower_rejects_reduction_mapping () =
  let set = variant_set () in
  let ir = ir_of (List.hd set.variants) set in
  (* pick an op that actually has a reduction index *)
  let op = List.find (fun op -> Tcr.Ir.reduction_indices op <> []) ir.ops in
  let bad_point =
    {
      Tcr.Space.decomp =
        (* "n" is a reduction index of the first op of every variant here *)
        (let red = List.hd (Tcr.Ir.reduction_indices op) in
         let par = List.hd op.out_indices in
         { tx = red; ty = None; bx = par; by = None });
      unrolls = [];
      red_order = [];
    }
  in
  Alcotest.(check bool) "reduction index rejected" true
    (try
       ignore (Codegen.Kernel.lower ~name:"bad" ir op bad_point);
       false
     with Invalid_argument _ -> true)

let test_kernel_flops () =
  let set = variant_set () in
  let ir = ir_of (List.hd set.variants) set in
  let points = first_points ir in
  let kernels = Codegen.Kernel.lower_program ir points in
  let total = List.fold_left (fun acc k -> acc + Codegen.Kernel.flops k) 0 kernels in
  check_int "kernel flops = ir flops" (Tcr.Ir.flops ir) total

(* ---------------- Interpreter correctness ---------------- *)

let outputs_match (ir : Tcr.Ir.t) points inputs =
  let got = Codegen.Exec.run_program ir points inputs in
  let want = Codegen.Exec.run_reference ir inputs in
  List.for_all
    (fun (v : Tcr.Ir.var) ->
      v.role <> Tcr.Ir.Output
      || Tensor.Dense.approx_equal ~tol:1e-9 (List.assoc v.name want) (List.assoc v.name got))
    ir.vars

let test_exec_all_variants_default_points () =
  let set = variant_set () in
  List.iter
    (fun (v : Octopi.Variants.variant) ->
      let ir = ir_of v set in
      let inputs = random_inputs ir in
      Alcotest.(check bool)
        (Printf.sprintf "variant %d" v.id)
        true
        (outputs_match ir (first_points ir) inputs))
    set.variants

let test_exec_random_points () =
  let set = variant_set () in
  let rng = Util.Rng.create 17 in
  let v = List.nth set.variants 14 in
  let ir = ir_of v set in
  let ps = Tcr.Space.of_ir ir in
  let inputs = random_inputs ir in
  for _ = 1 to 10 do
    let points = List.map (Tcr.Space.sample rng) ps.op_spaces in
    Alcotest.(check bool) "random point correct" true (outputs_match ir points inputs)
  done

let test_exec_unroll_epilogue () =
  (* extent 7 with unroll 3 exercises main loop + epilogue; unroll 7 and
     unroll > extent exercise the degenerate paths *)
  let src = "dims: i=5 j=4 k=7\nC[i j] = Sum([k], A[i k] * B[k j])" in
  let set = match Octopi.Variants.of_string src with [ s ] -> s | _ -> assert false in
  let ir = ir_of (List.hd set.variants) set in
  let inputs = random_inputs ir in
  let base = List.hd (first_points ir) in
  List.iter
    (fun u ->
      let point = { base with Tcr.Space.unrolls = [ ("k", u) ] } in
      Alcotest.(check bool)
        (Printf.sprintf "unroll %d" u)
        true
        (outputs_match ir [ point ] inputs))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_exec_accumulating_ops () =
  (* two statements accumulating into the same output (lg3t pattern) *)
  let b = Benchsuite.Suite.lg3t ~p:4 ~elems:3 () in
  let choices = Autotune.Tuner.variant_choices b in
  let ir = (List.hd choices).v_ir in
  let inputs = random_inputs ir in
  Alcotest.(check bool) "accumulation correct" true
    (outputs_match ir (first_points ir) inputs)

(* A slot bound by two loop levels keeps its last write, as the generated
   CUDA's index variable would. With bx bound to tx's index j, every block
   sweeps j again, so each output element gets its dot product once per
   block: 5 times the reference. *)
let test_exec_last_write_wins () =
  let src = "dims: i=6 j=5 k=4\nC[i j] = Sum([k], A[i k] * B[k j])" in
  let set = match Octopi.Variants.of_string src with [ s ] -> s | _ -> assert false in
  let ir = ir_of (List.hd set.variants) set in
  let point = List.hd (first_points ir) in
  Alcotest.(check string) "tx binds j" "j" point.decomp.tx;
  let point = { point with decomp = { point.decomp with bx = point.decomp.tx } } in
  let inputs = random_inputs ir in
  let got = List.assoc "C" (Codegen.Exec.run_program ir [ point ] inputs) in
  let want = List.assoc "C" (Codegen.Exec.run_reference ir inputs) in
  Alcotest.(check bool) "5 x reference" true
    (Tensor.Dense.approx_equal (Tensor.Dense.scale 5.0 want) got)

let test_exec_rejects_unbound () =
  let set = variant_set () in
  let ir = ir_of (List.hd set.variants) set in
  Alcotest.(check bool) "unbound tensor raises" true
    (try
       ignore (Codegen.Exec.run_program ir (first_points ir) []);
       false
     with Invalid_argument _ -> true)

(* one qcheck property: arbitrary sampled decomposition/unroll points on a
   3-factor contraction remain correct *)
let qcheck_exec =
  QCheck.Test.make ~name:"kernel interpreter matches einsum on random points" ~count:25
    QCheck.(int_range 0 10000)
    (fun seed ->
      let rng = Util.Rng.create seed in
      let src = "dims: i=4 j=3 k=5 l=2\nY[i j] = Sum([k l], A[i k] * B[k j l])" in
      let set = match Octopi.Variants.of_string src with [ s ] -> s | _ -> assert false in
      let v = List.nth set.variants (Util.Rng.int rng (List.length set.variants)) in
      let ir = ir_of v set in
      let ps = Tcr.Space.of_ir ir in
      let points = List.map (Tcr.Space.sample rng) ps.op_spaces in
      let inputs = random_inputs ~seed ir in
      outputs_match ir points inputs)

(* ---------------- CUDA emitter ---------------- *)

let paper_style_cuda () =
  let set = variant_set () in
  let v = List.nth set.variants 14 in
  let ir = ir_of v set in
  let points = first_points ir in
  (ir, points, Codegen.Cuda.emit_program ir points)

let test_cuda_structure () =
  let _, _, src = paper_style_cuda () in
  check_int "three kernels" 3 (Astring_contains.count src "__global__ void");
  Alcotest.(check bool) "thread index" true (contains src "threadIdx.x");
  Alcotest.(check bool) "block index" true (contains src "blockIdx.x");
  Alcotest.(check bool) "scalar replacement" true (contains src "double nv;");
  Alcotest.(check bool) "host wrapper" true (contains src "cudaMalloc");
  Alcotest.(check bool) "launch syntax" true (contains src "<<<dim3(")

let test_cuda_transfers_once () =
  let ir, points, src = paper_style_cuda () in
  ignore points;
  let h2d = Astring_contains.count src "cudaMemcpyHostToDevice" in
  let d2h = Astring_contains.count src "cudaMemcpyDeviceToHost" in
  check_int "one upload per input" (List.length (Tcr.Ir.inputs ir)) h2d;
  check_int "one download per output" (List.length (Tcr.Ir.outputs ir)) d2h

let test_cuda_unrolled_body () =
  let src = "dims: i=6 j=6 k=6\nC[i j] = Sum([k], A[i k] * B[k j])" in
  let set = match Octopi.Variants.of_string src with [ s ] -> s | _ -> assert false in
  let ir = ir_of (List.hd set.variants) set in
  let base = List.hd (first_points ir) in
  let point = { base with Tcr.Space.unrolls = [ ("k", 3) ] } in
  let cuda = Codegen.Cuda.emit_program ir [ point ] in
  Alcotest.(check bool) "strided loop" true (contains cuda "k += 3");
  Alcotest.(check bool) "offset body" true (contains cuda "(k + 2)");
  (* unroll 3 of extent 6 divides evenly: exactly 3 body statements *)
  check_int "three unrolled bodies" 3 (Astring_contains.count cuda "nv = nv +")

let test_cuda_epilogue () =
  let src = "dims: i=5 j=5 k=5\nC[i j] = Sum([k], A[i k] * B[k j])" in
  let set = match Octopi.Variants.of_string src with [ s ] -> s | _ -> assert false in
  let ir = ir_of (List.hd set.variants) set in
  let base = List.hd (first_points ir) in
  let point = { base with Tcr.Space.unrolls = [ ("k", 2) ] } in
  let cuda = Codegen.Cuda.emit_program ir [ point ] in
  (* extent 5, unroll 2: two bodies in the main loop plus one epilogue body *)
  check_int "two main + one epilogue body" 3 (Astring_contains.count cuda "nv = nv +")

(* ---------------- C / OpenACC emitters ---------------- *)

let test_c_sequential () =
  let set = variant_set () in
  let ir = ir_of (List.hd set.variants) set in
  let c = Codegen.C_emit.emit_program ir in
  Alcotest.(check bool) "loops" true (contains c "for (int");
  Alcotest.(check bool) "no pragmas" true (not (contains c "#pragma"));
  Alcotest.(check bool) "statement comment" true (contains c "/* statement 1 */")

let test_c_openmp () =
  let set = variant_set () in
  let ir = ir_of (List.hd set.variants) set in
  let c = Codegen.C_emit.emit_program ~mode:Codegen.C_emit.Openmp ir in
  check_int "one pragma per statement" (List.length ir.ops)
    (Astring_contains.count c "#pragma omp parallel for");
  Alcotest.(check bool) "no acc pragmas" true (not (contains c "#pragma acc"))

let test_acc_naive () =
  let set = variant_set () in
  let ir = ir_of (List.hd set.variants) set in
  let c = Codegen.C_emit.emit_program ~mode:Codegen.C_emit.Acc_naive ir in
  Alcotest.(check bool) "kernels pragma" true (contains c "#pragma acc kernels loop");
  Alcotest.(check bool) "data region" true (contains c "#pragma acc data copy")

let test_acc_optimized () =
  let set = variant_set () in
  let ir = ir_of (List.hd set.variants) set in
  let points = first_points ir in
  let decomps = List.map (fun (p : Tcr.Space.point) -> p.decomp) points in
  let c = Codegen.C_emit.emit_program ~mode:(Codegen.C_emit.Acc_optimized decomps) ir in
  Alcotest.(check bool) "gang clause" true (contains c "gang(");
  Alcotest.(check bool) "vector clause" true (contains c "vector_length(");
  Alcotest.(check bool) "scalar replacement" true (contains c "double nv =")

let suite =
  [
    ("lower dimensions", `Quick, test_lower_dimensions);
    ("lower serial split", `Quick, test_lower_serial_split);
    ("lower rejects reduction mapping", `Quick, test_lower_rejects_reduction_mapping);
    ("kernel flops", `Quick, test_kernel_flops);
    ("exec all variants", `Slow, test_exec_all_variants_default_points);
    ("exec random points", `Quick, test_exec_random_points);
    ("exec unroll epilogue", `Quick, test_exec_unroll_epilogue);
    ("exec accumulating ops", `Quick, test_exec_accumulating_ops);
    ("exec last write wins on a shared slot", `Quick, test_exec_last_write_wins);
    ("exec rejects unbound tensor", `Quick, test_exec_rejects_unbound);
    QCheck_alcotest.to_alcotest qcheck_exec;
    ("cuda structure", `Quick, test_cuda_structure);
    ("cuda transfers once", `Quick, test_cuda_transfers_once);
    ("cuda unrolled body", `Quick, test_cuda_unrolled_body);
    ("cuda epilogue", `Quick, test_cuda_epilogue);
    ("c sequential", `Quick, test_c_sequential);
    ("c openmp", `Quick, test_c_openmp);
    ("openacc naive", `Quick, test_acc_naive);
    ("openacc optimized", `Quick, test_acc_optimized);
  ]
