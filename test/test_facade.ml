(* Tests for the public Barracuda facade and a golden test pinning the
   exact CUDA text of a small kernel. *)

let check_int = Alcotest.(check int)

let mm = "dims: i=8 j=8 k=8\nC[i j] = Sum([k], A[i k] * B[k j])"

let tuned = lazy (Barracuda.tune ~seed:5 ~max_evals:20 mm)

let test_parse () =
  let b = Barracuda.parse mm in
  check_int "one statement" 1 (List.length b.statements);
  Alcotest.(check string) "default label" "tc" b.label

let test_variants () =
  match Barracuda.variants mm with
  | [ set ] -> check_int "one plan for a binary contraction" 1 (List.length set.variants)
  | _ -> Alcotest.fail "expected one statement"

let test_tune_summary () =
  let r = Lazy.force tuned in
  let s = Barracuda.summarize r in
  Alcotest.(check bool) "gflops positive" true (s.gflops > 0.0);
  Alcotest.(check bool) "search cost positive" true (s.search_seconds > 0.0);
  check_int "one variant" 1 s.variant_count;
  let rendered = Format.asprintf "%a" Barracuda.pp_summary s in
  Alcotest.(check bool) "summary mentions gflops" true
    (Astring_contains.contains rendered "GFlops")

let test_cuda_of () =
  let cuda = Barracuda.cuda_of (Lazy.force tuned) in
  check_int "one kernel" 1 (Astring_contains.count cuda "__global__")

let test_c_of_modes () =
  let r = Lazy.force tuned in
  Alcotest.(check bool) "seq" true
    (Astring_contains.contains (Barracuda.c_of r) "for (int");
  Alcotest.(check bool) "acc" true
    (Astring_contains.contains
       (Barracuda.c_of ~mode:Codegen.C_emit.Acc_naive r)
       "#pragma acc")

let test_run () =
  let r = Lazy.force tuned in
  let rng = Barracuda.Rng.create 3 in
  let shape = Barracuda.Shape.of_list [ 8; 8 ] in
  let a = Barracuda.Tensor.random rng shape and b = Barracuda.Tensor.random rng shape in
  let outputs = Barracuda.run r [ ("A", a); ("B", b) ] in
  let c = List.assoc "C" outputs in
  let want =
    Barracuda.Einsum.contract ~output_indices:[ "i"; "j" ]
      [ Barracuda.Einsum.operand a [ "i"; "k" ]; Barracuda.Einsum.operand b [ "k"; "j" ] ]
  in
  Alcotest.(check bool) "facade run matches oracle" true
    (Barracuda.Tensor.approx_equal want c)

let test_deterministic_across_calls () =
  let r1 = Barracuda.tune ~seed:9 ~max_evals:15 mm in
  let r2 = Barracuda.tune ~seed:9 ~max_evals:15 mm in
  Alcotest.(check (float 0.0)) "same tuned time" r1.time_per_eval_s r2.time_per_eval_s

let test_save_load_tuning () =
  let r = Lazy.force tuned in
  let text = Barracuda.save_tuning r in
  let ir, points = Barracuda.load_tuning r.benchmark text in
  Alcotest.(check string) "reload emits identical CUDA"
    (Barracuda.cuda_of r)
    (Barracuda.Cuda.emit_program ir points)

let test_driver_of () =
  let r = Lazy.force tuned in
  let d = Barracuda.driver_of ~reps:10 r in
  Alcotest.(check bool) "driver has main" true (Astring_contains.contains d "int main(void)")

(* ---------------- Golden CUDA ---------------- *)

let test_golden_cuda_kernel () =
  (* pin the exact kernel text for a fixed decomposition: any unintended
     change to index expressions, unrolling or scalar replacement shows up
     as a diff here *)
  let set =
    match
      Octopi.Variants.of_string "dims: i=4 j=4 k=4\nC[i j] = Sum([k], A[i k] * B[k j])"
    with
    | [ s ] -> s
    | _ -> assert false
  in
  let ir = Tcr.Ir.of_variant ~label:"mm" set.contraction (List.hd set.variants) in
  let point =
    {
      Tcr.Space.decomp = { tx = "j"; ty = None; bx = "i"; by = None };
      unrolls = [ ("k", 2) ];
      red_order = [];
    }
  in
  let kernel = Codegen.Kernel.lower ~name:"mm_GPU_1" ir (List.hd ir.ops) point in
  let expected =
    String.concat "\n"
      [
        "__global__ void mm_GPU_1(double *C, double *A, double *B)";
        "{";
        "  int tx = threadIdx.x;";
        "  int bx = blockIdx.x;";
        "  int k;";
        "  double nv;";
        "  nv = C[bx * 4 + tx];";
        "  for (k = 0; k <= 2; k += 2) {";
        "    nv = nv + A[bx * 4 + k] * B[k * 4 + tx];";
        "    nv = nv + A[bx * 4 + (k + 1)] * B[(k + 1) * 4 + tx];";
        "  }";
        "  C[bx * 4 + tx] = nv;";
        "}";
        "";
      ]
  in
  Alcotest.(check string) "golden kernel text" expected (Codegen.Cuda.emit_kernel kernel)

let suite =
  [
    ("facade parse", `Quick, test_parse);
    ("facade variants", `Quick, test_variants);
    ("facade tune summary", `Quick, test_tune_summary);
    ("facade cuda_of", `Quick, test_cuda_of);
    ("facade c_of modes", `Quick, test_c_of_modes);
    ("facade run matches oracle", `Quick, test_run);
    ("facade deterministic", `Quick, test_deterministic_across_calls);
    ("golden cuda kernel", `Quick, test_golden_cuda_kernel);
    ("facade save/load tuning", `Quick, test_save_load_tuning);
    ("facade driver_of", `Quick, test_driver_of);
  ]
