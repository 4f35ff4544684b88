(* Tests for the einsum-notation front end, the tuning-result store and
   the standalone driver generator. *)

let check_int = Alcotest.(check int)
let contains = Astring_contains.contains

(* ---------------- Einsum notation ---------------- *)

let test_einsum_parse_matmul () =
  let p = Octopi.Einsum_notation.parse "ik,kj->ij" in
  match p.stmts with
  | [ s ] ->
    Alcotest.(check string) "output" "O" s.lhs.name;
    Alcotest.(check (list string)) "out indices" [ "i"; "j" ] s.lhs.indices;
    check_int "two factors" 2 (List.length s.factors);
    Alcotest.(check (list string)) "A indices" [ "i"; "k" ]
      (List.hd s.factors).indices
  | _ -> Alcotest.fail "expected one statement"

let test_einsum_eqn1 () =
  (* the paper's Eqn.(1) in einsum spelling *)
  let p =
    Octopi.Einsum_notation.parse ~output:"V" ~names:[ "A"; "B"; "C"; "U" ]
      "lk,mj,ni,lmn->ijk"
  in
  match Octopi.Contraction.of_program p with
  | [ c ] ->
    Alcotest.(check (list string)) "summed" [ "l"; "m"; "n" ] c.sum_indices;
    check_int "15 variants" 15
      (List.length (Octopi.Variants.of_contraction c).variants)
  | _ -> Alcotest.fail "expected one contraction"

let test_einsum_to_dsl_roundtrip () =
  let dsl = Octopi.Einsum_notation.to_dsl ~extents:[ ("i", 3); ("j", 4); ("k", 5) ] "ik,kj->ij" in
  let p = Octopi.Parse.program dsl in
  check_int "parses back" 1 (List.length p.stmts);
  Alcotest.(check (list (pair string int))) "extents kept"
    [ ("i", 3); ("j", 4); ("k", 5) ] p.extents

let expect_einsum_error spec =
  Alcotest.(check bool) ("rejects " ^ spec) true
    (try
       ignore (Octopi.Einsum_notation.parse spec);
       false
     with Octopi.Einsum_notation.Error _ -> true)

let test_einsum_errors () =
  expect_einsum_error "ik,kj";  (* implicit mode unsupported *)
  expect_einsum_error "iK,kj->ij";  (* uppercase index *)
  expect_einsum_error "ik,,kj->ij" (* empty factor *)

let tuned_lg3 =
  lazy
    (let b = Benchsuite.Suite.lg3 ~p:8 ~elems:16 () in
     ( b,
       Autotune.Tuner.tune
         ~strategy:
           (Autotune.Tuner.Surf_search
              { Surf.Search.default_config with max_evals = 25 })
         ~pool_per_variant:50 ~rng:(Util.Rng.create 2)
         ~arch:Gpusim.Arch.gtx980 b ))

let test_store_roundtrip () =
  let b, r = Lazy.force tuned_lg3 in
  let text = Autotune.Store.save r in
  let s = Autotune.Store.parse text in
  Alcotest.(check string) "label" "lg3" s.label;
  Alcotest.(check string) "arch" "GTX 980" s.arch_name;
  let ir, points = Autotune.Store.restore b s in
  Alcotest.(check string) "same program" (Tcr.Ir.to_string r.best.ir) (Tcr.Ir.to_string ir);
  List.iter2
    (fun a c ->
      Alcotest.(check string) "same point" (Tcr.Space.point_key a) (Tcr.Space.point_key c))
    r.best.points points

let test_store_restored_cuda_identical () =
  let b, r = Lazy.force tuned_lg3 in
  let ir, points = Autotune.Store.restore b (Autotune.Store.parse (Autotune.Store.save r)) in
  Alcotest.(check string) "identical CUDA re-emitted"
    (Codegen.Cuda.emit_program r.best.ir r.best.points)
    (Codegen.Cuda.emit_program ir points)

let test_store_label_mismatch () =
  let _, r = Lazy.force tuned_lg3 in
  let other = Benchsuite.Suite.eqn1 () in
  Alcotest.(check bool) "label mismatch rejected" true
    (try
       ignore (Autotune.Store.restore other (Autotune.Store.parse (Autotune.Store.save r)));
       false
     with Autotune.Store.Error _ -> true)

let test_store_rejects_garbage () =
  List.iter
    (fun text ->
      Alcotest.(check bool) "rejected" true
        (try
           ignore (Autotune.Store.parse text);
           false
         with Autotune.Store.Error _ -> true))
    [ ""; "not an artifact"; "barracuda-tuning v1\nlabel: x\n" (* no recipe *) ]

(* ---------------- Driver ---------------- *)

(* The driver frees every host buffer it allocates. *)
let check_frees src =
  check_int "one free per host allocation"
    (Astring_contains.count src "malloc(" + Astring_contains.count src "calloc(")
    (Astring_contains.count src "free(")

let test_driver_structure () =
  let set =
    match Octopi.Variants.of_string "dims: i=6 j=6 k=6\nC[i j] = Sum([k], A[i k] * B[k j])" with
    | [ s ] -> s
    | _ -> assert false
  in
  let ir = Tcr.Ir.of_variant ~label:"mm" set.contraction (List.hd set.variants) in
  let ps = Tcr.Space.of_ir ir in
  let points = List.map (fun s -> List.hd (Tcr.Space.enumerate s)) ps.op_spaces in
  let src = Codegen.Driver.emit ~reps:50 ir points in
  Alcotest.(check bool) "has main" true (contains src "int main(void)");
  Alcotest.(check bool) "hosts inputs" true (contains src "double *A_h");
  Alcotest.(check bool) "reference buffer" true (contains src "double *C_ref");
  Alcotest.(check bool) "timing" true (contains src "clock_gettime");
  Alcotest.(check bool) "rep loop" true (contains src "for (int rep = 0; rep < 50");
  Alcotest.(check bool) "runs wrapper" true (contains src "mm_run(A_h, B_h, C_h);");
  Alcotest.(check bool) "reference nest" true (contains src "C_ref[");
  Alcotest.(check bool) "error check drives exit code" true
    (contains src "return max_err < 1e-9");
  check_int "kernel included once" 1 (Astring_contains.count src "__global__");
  check_frees src

let test_driver_multi_statement () =
  let b = Benchsuite.Suite.lg3t ~p:4 ~elems:2 () in
  let c = List.hd (Autotune.Tuner.variant_choices b) in
  let points = List.map (fun s -> List.hd (Tcr.Space.enumerate s)) c.spaces.op_spaces in
  let src = Codegen.Driver.emit c.v_ir points in
  check_int "three kernels" 3 (Astring_contains.count src "__global__");
  check_int "three reference nests" 3 (Astring_contains.count src "/* reference statement");
  check_frees src

let suite =
  [
    ("einsum parse matmul", `Quick, test_einsum_parse_matmul);
    ("einsum eqn1", `Quick, test_einsum_eqn1);
    ("einsum to_dsl roundtrip", `Quick, test_einsum_to_dsl_roundtrip);
    ("einsum errors", `Quick, test_einsum_errors);
    ("store roundtrip", `Quick, test_store_roundtrip);
    ("store restores identical cuda", `Quick, test_store_restored_cuda_identical);
    ("store label mismatch", `Quick, test_store_label_mismatch);
    ("store rejects garbage", `Quick, test_store_rejects_garbage);
    ("driver structure", `Quick, test_driver_structure);
    ("driver multi-statement", `Quick, test_driver_multi_statement);
  ]
