(* Remaining coverage: smaller helpers and error paths across libraries. *)

let check_int = Alcotest.(check int)
let contains = Astring_contains.contains

(* ---------------- util ---------------- *)

(* The decision algorithm enumerates its reduction orders with
   [permutations], which lists a repeated element's orders once. *)
let test_permutations_collapse () =
  check_int "plain collapses" 3 (List.length (Util.Combinat.permutations [ "a"; "a"; "b" ]))

let test_pick_list_empty () =
  let rng = Util.Rng.create 1 in
  Alcotest.(check bool) "empty rejected" true
    (try
       ignore (Util.Rng.pick_list rng []);
       false
     with Invalid_argument _ -> true)

let test_table_empty () =
  let t = Util.Table.create ~title:"empty" [] in
  Alcotest.(check bool) "renders" true (contains (Util.Table.render t) "empty")

(* ---------------- tcr printing / reading ---------------- *)

let mm_ir () =
  let set =
    match Octopi.Variants.of_string "dims: i=4 j=4 k=4\nC[i j] = Sum([k], A[i k] * B[k j])" with
    | [ s ] -> s
    | _ -> assert false
  in
  Tcr.Ir.of_variant ~label:"mm" set.contraction (List.hd set.variants)

let test_pp_op () =
  let ir = mm_ir () in
  let txt = Format.asprintf "%a" Tcr.Ir.pp_op (List.hd ir.ops) in
  Alcotest.(check string) "figure 2(b) syntax" "C:(i,j) += A:(i,k)*B:(k,j)" txt

let test_read_rejects_bad_operation () =
  Alcotest.(check bool) "no '+=' rejected" true
    (try
       ignore
         (Tcr.Read.program
            "x\naccess: linearize\ndefine:\ni = 2\nvariables:\nA:(i)\noperations:\nA:(i) B:(i)");
       false
     with Tcr.Read.Error _ -> true)

let test_read_rejects_bad_extent () =
  Alcotest.(check bool) "bad extent rejected" true
    (try
       ignore (Tcr.Read.program "x\ndefine:\ni = banana\nvariables:\noperations:\n");
       false
     with Tcr.Read.Error _ -> true)

let test_ir_var_lookup_fails () =
  let ir = mm_ir () in
  Alcotest.(check bool) "unknown var" true
    (try
       ignore (Tcr.Ir.var ir "Z");
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "unknown extent" true
    (try
       ignore (Tcr.Ir.extent ir "z");
       false
     with Invalid_argument _ -> true)

(* ---------------- kernel helpers ---------------- *)

let lowered () =
  let ir = mm_ir () in
  let point =
    {
      Tcr.Space.decomp = { tx = "j"; ty = None; bx = "i"; by = None };
      unrolls = [ ("k", 2) ];
      red_order = [];
    }
  in
  Codegen.Kernel.lower ~name:"k" ir (List.hd ir.ops) point

let test_kernel_helpers () =
  let k = lowered () in
  (* the map's slots: the mapped indices under tx and bx, then the serial loop *)
  Alcotest.(check (list (pair string string)))
    "slots" [ ("j", "tx"); ("i", "bx"); ("k", "k") ]
    (Array.to_list
       (Array.map
          (fun (s : Codegen.Kernel.slot) -> (s.index, s.var))
          (Codegen.Kernel.access k).slots));
  check_int "serial iterations" 4 (Codegen.Kernel.serial_iterations k);
  check_int "threads per block" 4 (Codegen.Kernel.threads_per_block k);
  check_int "blocks" 4 (Codegen.Kernel.num_blocks k);
  check_int "total threads" 16 (Codegen.Kernel.total_threads k);
  check_int "one reduction loop" 1 (List.length (Codegen.Kernel.reduction_loops k))

let test_lower_program_arity () =
  let ir = mm_ir () in
  Alcotest.(check bool) "point count enforced" true
    (try
       ignore (Codegen.Kernel.lower_program ir []);
       false
     with Invalid_argument _ -> true)

(* ---------------- transfer / gemm scaling ---------------- *)

let test_transfer_scales () =
  let arch = Gpusim.Arch.gtx980 in
  let t1 = Gpusim.Transfer.time_of_bytes arch 1_000_000 in
  let t2 = Gpusim.Transfer.time_of_bytes arch 10_000_000 in
  Alcotest.(check bool) "monotone" true (t2 > t1);
  Alcotest.(check bool) "latency floor" true
    (Gpusim.Transfer.time_of_bytes arch 0 >= arch.pcie_latency_us *. 1e-6)

let test_pcie_generation_matters () =
  (* eqn1-style tiny transfer: gen3 (gtx980) beats gen2 (k20) *)
  let b = 100_000 in
  Alcotest.(check bool) "gen3 faster" true
    (Gpusim.Transfer.time_of_bytes Gpusim.Arch.gtx980 b
    < Gpusim.Transfer.time_of_bytes Gpusim.Arch.k20 b)

(* ---------------- haswell details ---------------- *)

let test_haswell_big_tensor_reread () =
  (* a tensor above the LLC with an outer non-dim loop forces DRAM re-reads
     when the varying slice also exceeds the cache *)
  let ir =
    {
      Tcr.Ir.label = "big";
      extents = [ ("i", 4); ("j", 2048); ("k", 2048) ];
      vars =
        [
          { Tcr.Ir.name = "A"; dims = [ "j"; "k" ]; role = Tcr.Ir.Input };
          { Tcr.Ir.name = "Y"; dims = [ "i" ]; role = Tcr.Ir.Output };
        ];
      ops =
        [
          {
            Tcr.Ir.out = "Y";
            out_indices = [ "i" ];
            factors = [ ("A", [ "j"; "k" ]) ];
            loop_order = [ "i"; "j"; "k" ];
          };
        ];
    }
  in
  Tcr.Ir.validate ir;
  let cpu = Cpusim.Haswell.haswell in
  let bytes = Cpusim.Haswell.op_bytes cpu ir (List.hd ir.ops) in
  let tensor = Tcr.Ir.var_bytes ir "A" in
  (* A is 32 MiB > 8 MiB LLC and re-read for each of the 4 i iterations *)
  Alcotest.(check bool) "re-read counted" true (bytes >= 4 * tensor)

let test_haswell_cached_slice_no_reread () =
  let ir = mm_ir () in
  let cpu = Cpusim.Haswell.haswell in
  let bytes = Cpusim.Haswell.op_bytes cpu ir (List.hd ir.ops) in
  (* everything tiny: inputs once + output r/w *)
  check_int "compulsory only"
    (Tcr.Ir.var_bytes ir "A" + Tcr.Ir.var_bytes ir "B" + (2 * Tcr.Ir.var_bytes ir "C"))
    bytes

(* ---------------- openacc model edges ---------------- *)

let test_openacc_overheads_ordered () =
  Alcotest.(check bool) "naive overhead above optimized" true
    (Cpusim.Openacc.naive_overhead > Cpusim.Openacc.optimized_overhead);
  Alcotest.(check bool) "both above 1" true (Cpusim.Openacc.optimized_overhead > 1.0)

let test_openacc_degenerate_detection () =
  let d = { Tcr.Space.tx = "i"; ty = None; bx = "i"; by = None } in
  Alcotest.(check bool) "tx = bx flagged" true (Cpusim.Openacc.degenerate d)

(* ---------------- nwchem dsl text ---------------- *)

let test_nwchem_dsl_text () =
  let src = Benchsuite.Nwchem.dsl Benchsuite.Nwchem.D2 ~index:4 ~n:16 in
  Alcotest.(check bool) "sum over p7" true (contains src "Sum([p7]");
  Alcotest.(check bool) "t2 signature" true (contains src "t2[p7 p5 h1 h2]");
  Alcotest.(check bool) "dims line" true (contains src "h1=16")

let test_nwchem_all_parse () =
  List.iter
    (fun family ->
      List.iteri
        (fun i (b : Autotune.Tuner.benchmark) ->
          check_int
            (Printf.sprintf "%s_%d one statement" (Benchsuite.Nwchem.family_name family)
               (i + 1))
            1
            (List.length b.statements))
        (Benchsuite.Nwchem.benchmarks ~n:4 family))
    Benchsuite.Nwchem.families

(* ---------------- golden sequential C ---------------- *)

let test_golden_sequential_c () =
  let ir = mm_ir () in
  let c = Codegen.C_emit.emit_program ir in
  let expected =
    String.concat "\n"
      [
        "/* Generated by Barracuda (sequential) from TCR program mm */";
        "void mm(double *A, double *B, double *C)";
        "{";
        "  /* statement 1 */";
        "  for (int i = 0; i < 4; i++) {";
        "    for (int j = 0; j < 4; j++) {";
        "      for (int k = 0; k < 4; k++) {";
        "        C[i * 4 + j] = C[i * 4 + j] + A[i * 4 + k] * B[k * 4 + j];";
        "      }";
        "    }";
        "  }";
        "}";
        "";
      ]
  in
  Alcotest.(check string) "golden sequential text" expected c

let suite =
  [
    ("permutations collapse duplicates", `Quick, test_permutations_collapse);
    ("pick_list empty", `Quick, test_pick_list_empty);
    ("table empty", `Quick, test_table_empty);
    ("pp_op syntax", `Quick, test_pp_op);
    ("read rejects bad operation", `Quick, test_read_rejects_bad_operation);
    ("read rejects bad extent", `Quick, test_read_rejects_bad_extent);
    ("ir lookup failures", `Quick, test_ir_var_lookup_fails);
    ("kernel helpers", `Quick, test_kernel_helpers);
    ("lower_program arity", `Quick, test_lower_program_arity);
    ("transfer scales", `Quick, test_transfer_scales);
    ("pcie generation matters", `Quick, test_pcie_generation_matters);
    ("haswell big-tensor re-read", `Quick, test_haswell_big_tensor_reread);
    ("haswell cached slice", `Quick, test_haswell_cached_slice_no_reread);
    ("openacc overheads ordered", `Quick, test_openacc_overheads_ordered);
    ("openacc degenerate detection", `Quick, test_openacc_degenerate_detection);
    ("nwchem dsl text", `Quick, test_nwchem_dsl_text);
    ("nwchem all parse", `Quick, test_nwchem_all_parse);
    ("golden sequential c", `Quick, test_golden_sequential_c);
  ]
