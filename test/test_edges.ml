(* Final edge-case batch: remaining behaviours at module boundaries. *)

let check_int = Alcotest.(check int)
let contains = Astring_contains.contains

(* ---------------- tensor odds and ends ---------------- *)

let test_rank0_tensor () =
  (* scalars arise from full reductions *)
  let t = Tensor.Dense.create (Tensor.Shape.of_list []) in
  check_int "one element" 1 (Tensor.Dense.num_elements t);
  Tensor.Dense.set t [||] 7.0;
  Alcotest.(check (float 0.0)) "scalar get" 7.0 (Tensor.Dense.get t [||])

(* ---------------- allocate_produced ---------------- *)

let mm_ir () =
  let set =
    match Octopi.Variants.of_string "dims: i=4 j=4 k=4\nC[i j] = Sum([k], A[i k] * B[k j])" with
    | [ s ] -> s
    | _ -> assert false
  in
  Tcr.Ir.of_variant ~label:"mm" set.contraction (List.hd set.variants)

let test_allocate_produced () =
  let ir = mm_ir () in
  let rng = Util.Rng.create 1 in
  let inputs =
    [ ("A", Tensor.Dense.random rng (Tcr.Ir.var_shape ir "A"));
      ("B", Tensor.Dense.random rng (Tcr.Ir.var_shape ir "B")) ]
  in
  let env = Codegen.Exec.allocate_produced ir inputs in
  check_int "inputs + output" 3 (List.length env);
  Alcotest.(check (float 0.0)) "output zeroed" 0.0
    (Tensor.Dense.get (List.assoc "C" env) [| 0; 0 |])

(* ---------------- s1 kernels: empty reduction spaces ---------------- *)

let s1_space () =
  let b = Benchsuite.Nwchem.benchmark ~n:4 Benchsuite.Nwchem.S1 ~index:1 in
  let c = List.hd (Autotune.Tuner.variant_choices b) in
  List.hd c.spaces.op_spaces

let test_s1_no_red_orders () =
  let s = s1_space () in
  Alcotest.(check (list (list string))) "single empty order" [ [] ]
    (Tcr.Space.red_orders s)

let test_s1_annotations_no_permute () =
  let b = Benchsuite.Nwchem.benchmark ~n:4 Benchsuite.Nwchem.S1 ~index:1 in
  let c = List.hd (Autotune.Tuner.variant_choices b) in
  let a = Tcr.Orio.annotations c.spaces in
  Alcotest.(check bool) "no permute directive" true (not (contains a "permute("))

(* ---------------- store header robustness ---------------- *)

let test_store_header_any_order () =
  let text =
    String.concat "\n"
      [ "barracuda-tuning v1"; "gflops: 1.5"; "arch: GTX 980"; "variants: 0";
        "label: mm"; "recipe:"; "cuda(1,block={i,1},thread={j,1})" ]
  in
  let s = Autotune.Store.parse text in
  Alcotest.(check string) "label parsed" "mm" s.label;
  Alcotest.(check (float 1e-9)) "gflops parsed" 1.5 s.gflops

(* ---------------- gemm transpose cost ---------------- *)

let test_transpose_time_monotone () =
  let arch = Gpusim.Arch.gtx980 in
  Alcotest.(check bool) "monotone in bytes" true
    (Gpusim.Gemm.transpose_time arch ~bytes:1_000_000
    < Gpusim.Gemm.transpose_time arch ~bytes:100_000_000)

(* ---------------- multi-statement variant sets ---------------- *)

let test_of_string_multi () =
  let sets =
    Octopi.Variants.of_string
      "dims: i=3 j=3 k=3\nX[i j] = A[i k] * B[k j]\nY[i] = Sum([j], X2[i j])"
  in
  check_int "two statement sets" 2 (List.length sets);
  List.iter
    (fun (s : Octopi.Variants.t) ->
      Alcotest.(check bool) "each validates" true (Octopi.Variants.validate s))
    sets

(* ---------------- driver honors reps ---------------- *)

let test_driver_reps () =
  let ir = mm_ir () in
  let ps = Tcr.Space.of_ir ir in
  let points = List.map (fun s -> List.hd (Tcr.Space.enumerate s)) ps.op_spaces in
  let src = Codegen.Driver.emit ~reps:7 ir points in
  Alcotest.(check bool) "rep count in loop" true (contains src "rep < 7")

let suite =
  [
    ("rank-0 tensor", `Quick, test_rank0_tensor);
    ("allocate produced", `Quick, test_allocate_produced);
    ("s1: no reduction orders", `Quick, test_s1_no_red_orders);
    ("s1: annotations without permute", `Quick, test_s1_annotations_no_permute);
    ("store header order-insensitive", `Quick, test_store_header_any_order);
    ("gemm transpose monotone", `Quick, test_transpose_time_monotone);
    ("variants of multi-statement text", `Quick, test_of_string_multi);
    ("driver honors reps", `Quick, test_driver_reps);
  ]
