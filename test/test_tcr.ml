(* Tests for the TCR stage: IR construction/printing/parsing, dependence
   analysis, contiguity/coalescing candidates, the GPU decision algorithm
   and the search space. *)

let check_int = Alcotest.(check int)

let eqn1_src = "dims: i=10 j=10 k=10 l=10 m=10 n=10\nV[i j k] = Sum([l m n], A[l k] * B[m j] * C[n i] * U[l m n])"

(* The paper's variant: T1 = C*U, T2 = B*T1, V = A*T2. *)
let paper_ir () =
  match Octopi.Variants.of_string eqn1_src with
  | [ set ] ->
    let v =
      List.find
        (fun (var : Octopi.Variants.variant) ->
          match var.ops with
          | [ o1; o2; _ ] ->
            List.map fst o1.factors = [ "C"; "U" ] && List.map fst o2.factors = [ "B"; "T1" ]
          | _ -> false)
        set.variants
    in
    Tcr.Ir.of_variant ~label:"ex" set.contraction v
  | _ -> Alcotest.fail "expected one statement"

(* ---------------- Ir ---------------- *)

let test_ir_of_variant () =
  let ir = paper_ir () in
  Tcr.Ir.validate ir;
  check_int "three ops" 3 (List.length ir.ops);
  check_int "four inputs" 4 (List.length (Tcr.Ir.inputs ir));
  check_int "two temps" 2 (List.length (Tcr.Ir.temps ir));
  check_int "one output" 1 (List.length (Tcr.Ir.outputs ir))

let test_ir_flops () =
  let ir = paper_ir () in
  (* three N^4 nests, 2 flops per point *)
  check_int "flops" 60_000 (Tcr.Ir.flops ir)

let test_ir_var_shape () =
  let ir = paper_ir () in
  Alcotest.(check (array int)) "U shape" [| 10; 10; 10 |]
    (Tcr.Ir.var_shape ir "U");
  check_int "V bytes" (8 * 1000) (Tcr.Ir.var_bytes ir "V")

let test_ir_reduction_indices () =
  let ir = paper_ir () in
  let op1 = List.hd ir.ops in
  (* T1(i,l,m) += C(n,i) U(l,m,n): reduction over n only *)
  Alcotest.(check (list string)) "reduction" [ "n" ] (Tcr.Ir.reduction_indices op1);
  Alcotest.(check (list string)) "iteration" [ "i"; "l"; "m"; "n" ]
    (Tcr.Ir.iteration_indices op1)

let test_ir_print_format () =
  let s = Tcr.Ir.to_string (paper_ir ()) in
  Alcotest.(check bool) "has access mode" true
    (Astring_contains.contains s "access: linearize");
  Alcotest.(check bool) "has operations" true (Astring_contains.contains s "operations:");
  Alcotest.(check bool) "op syntax" true (Astring_contains.contains s "+= C:(n,i)*U:(l,m,n)")

let test_ir_parse_roundtrip () =
  let ir = paper_ir () in
  let ir2 = Tcr.Read.program (Tcr.Ir.to_string ir) in
  Alcotest.(check string) "roundtrip" (Tcr.Ir.to_string ir) (Tcr.Ir.to_string ir2)

let test_ir_parse_errors () =
  Alcotest.(check bool) "garbage rejected" true
    (try
       ignore (Tcr.Read.program "ex\nnonsense before sections");
       false
     with Tcr.Read.Error _ -> true)

let test_ir_validate_rejects_unknown_extent () =
  let ir = paper_ir () in
  let broken = { ir with Tcr.Ir.extents = List.tl ir.extents } in
  Alcotest.(check bool) "missing extent rejected" true
    (try
       Tcr.Ir.validate broken;
       false
     with Failure _ -> true)

(* ---------------- Access ---------------- *)

let test_contiguous () =
  let lo = [ "i"; "l"; "m"; "n" ] in
  Alcotest.(check bool) "in-order ref" true (Tcr.Access.contiguous ~loop_order:lo [ "l"; "m"; "n" ]);
  Alcotest.(check bool) "out-of-order ref" false (Tcr.Access.contiguous ~loop_order:lo [ "n"; "i" ]);
  Alcotest.(check bool) "scalar ref" true (Tcr.Access.contiguous ~loop_order:lo [])

let test_positions_edges () =
  Alcotest.(check (list int)) "subset in order" [ 0; 2 ]
    (Tcr.Access.positions [ "i"; "j"; "k" ] [ "i"; "k" ]);
  Alcotest.(check (list int)) "empty reference" []
    (Tcr.Access.positions [ "i"; "j" ] []);
  Alcotest.(check (list int)) "repeated index" [ 1; 1 ]
    (Tcr.Access.positions [ "i"; "j" ] [ "j"; "j" ]);
  Alcotest.check_raises "index absent from loop order"
    (Invalid_argument "Access.positions: x not in loop order") (fun () ->
      ignore (Tcr.Access.positions [ "i"; "j" ] [ "i"; "x" ]))

let test_unit_stride_indices () =
  let ir = paper_ir () in
  let op1 = List.hd ir.ops in
  (* refs: T1(i,l,m), C(n,i), U(l,m,n): unit-stride loops are m, i, n *)
  Alcotest.(check (list string)) "last dims" [ "i"; "m"; "n" ]
    (Tcr.Access.unit_stride_indices op1)

let test_classify () =
  let ir = paper_ir () in
  let op1 = List.hd ir.ops in
  let contiguous (_, indices) = Tcr.Access.contiguous ~loop_order:op1.loop_order indices in
  (* not every tensor can be contiguous (Section IV) *)
  Alcotest.(check bool) "some non-contiguous" true
    (List.exists (fun r -> not (contiguous r)) ((op1.out, op1.out_indices) :: op1.factors))

(* ---------------- Decision ---------------- *)

let test_decision_tx_parallel_unit_stride () =
  let ir = paper_ir () in
  let op1 = List.hd ir.ops in
  let c = Tcr.Decision.derive ir op1 in
  (* tx candidates are parallel *and* unit-stride: i (from C) and m (from T1);
     n is unit-stride on U but a reduction index *)
  Alcotest.(check (list string)) "tx" [ "i"; "m" ] (List.sort compare c.tx);
  Alcotest.(check bool) "n excluded" true (not (List.mem "n" c.tx))

let test_decision_ty_by_include_one () =
  let ir = paper_ir () in
  let c = Tcr.Decision.derive ir (List.hd ir.ops) in
  Alcotest.(check bool) "ty has 1" true (List.mem "1" c.ty);
  Alcotest.(check bool) "by has 1" true (List.mem "1" c.by);
  Alcotest.(check bool) "bx lacks 1" true (not (List.mem "1" c.bx))

let test_decision_pool_parallel_only () =
  let ir = paper_ir () in
  let c = Tcr.Decision.derive ir (List.hd ir.ops) in
  let parallel = (List.hd ir.ops).out_indices in
  List.iter
    (fun i ->
      if i <> "1" then
        Alcotest.(check bool) (i ^ " is parallel") true (List.mem i parallel))
    (c.ty @ c.bx @ c.by)

let test_decision_unroll_loops () =
  let ir = paper_ir () in
  let c = Tcr.Decision.derive ir (List.hd ir.ops) in
  (* the reduction loop n is an unroll candidate with factors 1..10 *)
  Alcotest.(check bool) "n unrollable" true (List.mem_assoc "n" c.unroll_loops);
  Alcotest.(check (list int)) "factors" [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    (List.assoc "n" c.unroll_loops)

(* ---------------- Space ---------------- *)

let space_of op_index =
  let ir = paper_ir () in
  Tcr.Space.make ir op_index

let test_space_count_matches_enumerate () =
  let s = space_of 0 in
  check_int "count = |enumerate|" (Tcr.Space.count s) (List.length (Tcr.Space.enumerate s))

let test_space_points_valid () =
  let s = space_of 0 in
  List.iter
    (fun (p : Tcr.Space.point) ->
      let d = p.decomp in
      let chosen = d.tx :: d.bx :: (Option.to_list d.ty @ Option.to_list d.by) in
      check_int "distinct decomposition"
        (List.length chosen)
        (List.length (List.sort_uniq compare chosen)))
    (Tcr.Space.enumerate s)

let test_space_thread_limit () =
  let ir = paper_ir () in
  let s = Tcr.Space.make ~max_threads_per_block:64 ir 0 in
  List.iter
    (fun (p : Tcr.Space.point) ->
      let threads =
        Tcr.Ir.extent ir p.decomp.tx
        * match p.decomp.ty with None -> 1 | Some i -> Tcr.Ir.extent ir i
      in
      Alcotest.(check bool) "fits" true (threads <= 64))
    (Tcr.Space.enumerate s)

let test_space_sample_member () =
  let s = space_of 0 in
  let rng = Util.Rng.create 5 in
  let keys = List.map Tcr.Space.point_key (Tcr.Space.enumerate s) in
  for _ = 1 to 50 do
    let p = Tcr.Space.sample rng s in
    Alcotest.(check bool) "sampled point enumerable" true
      (List.mem (Tcr.Space.point_key p) keys)
  done

let test_space_program_count () =
  let ir = paper_ir () in
  let ps = Tcr.Space.of_ir ir in
  check_int "product of per-op counts"
    (List.fold_left (fun acc s -> acc * Tcr.Space.count s) 1 ps.op_spaces)
    (Tcr.Space.program_count ps)

let test_space_features () =
  let s = space_of 0 in
  let p = List.hd (Tcr.Space.enumerate s) in
  let fs = Tcr.Space.features s p in
  Alcotest.(check bool) "has tx feature" true (List.mem_assoc "tx" fs);
  Alcotest.(check bool) "has unroll feature" true
    (List.exists (fun (n, _) -> String.length n > 7 && String.sub n 0 7 = "unroll_") fs)

let test_point_key_distinct () =
  let s = space_of 0 in
  let pts = Tcr.Space.enumerate s in
  check_int "keys unique" (List.length pts)
    (List.length (List.sort_uniq compare (List.map Tcr.Space.point_key pts)))

let suite =
  [
    ("ir of_variant", `Quick, test_ir_of_variant);
    ("ir flops", `Quick, test_ir_flops);
    ("ir var shape/bytes", `Quick, test_ir_var_shape);
    ("ir reduction indices", `Quick, test_ir_reduction_indices);
    ("ir print format", `Quick, test_ir_print_format);
    ("ir parse roundtrip", `Quick, test_ir_parse_roundtrip);
    ("ir parse errors", `Quick, test_ir_parse_errors);
    ("ir validate missing extent", `Quick, test_ir_validate_rejects_unknown_extent);
    ("access contiguous", `Quick, test_contiguous);
    ("access positions edge cases", `Quick, test_positions_edges);
    ("access unit-stride indices", `Quick, test_unit_stride_indices);
    ("access classify", `Quick, test_classify);
    ("decision tx rule", `Quick, test_decision_tx_parallel_unit_stride);
    ("decision ty/by include 1", `Quick, test_decision_ty_by_include_one);
    ("decision pool parallel only", `Quick, test_decision_pool_parallel_only);
    ("decision unroll candidates", `Quick, test_decision_unroll_loops);
    ("space count = enumerate", `Quick, test_space_count_matches_enumerate);
    ("space points distinct decomposition", `Quick, test_space_points_valid);
    ("space thread limit", `Quick, test_space_thread_limit);
    ("space sample membership", `Quick, test_space_sample_member);
    ("space program count", `Quick, test_space_program_count);
    ("space features", `Quick, test_space_features);
    ("space point keys unique", `Quick, test_point_key_distinct);
  ]
