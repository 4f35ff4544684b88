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

(* Digest of [Int64.bits_of_float] over every output element, outputs in
   declaration order. *)
let output_bits (ir : Tcr.Ir.t) env =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (v : Tcr.Ir.var) ->
      if v.role = Tcr.Ir.Output then begin
        Buffer.add_string buf v.name;
        Array.iter
          (fun x -> Buffer.add_string buf (Printf.sprintf "%Ld," (Int64.bits_of_float x)))
          (Tensor.Dense.data (List.assoc v.name env))
      end)
    ir.vars;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Float execution keeps its output bits: an NWChem d1 kernel whose
   reduction unroll (4) leaves an epilogue over its extent (6), and an s1
   kernel with no reduction loop, where each output element is one
   point. *)
let test_exec_float_bits_pinned () =
  List.iter
    (fun (family, n, pick, want) ->
      let b = Benchsuite.Nwchem.benchmark ~n family ~index:1 in
      let c = List.hd (Autotune.Tuner.variant_choices b) in
      let point = pick (Tcr.Space.enumerate (List.hd c.spaces.op_spaces)) in
      let k = Codegen.Kernel.lower ~name:"k" c.v_ir (List.hd c.v_ir.ops) point in
      let reductions = Codegen.Kernel.reduction_loops k in
      (match family with
      | Benchsuite.Nwchem.S1 -> check_int "s1: no reduction loop" 0 (List.length reductions)
      | _ ->
        Alcotest.(check bool)
          "d1: the unroll leaves an epilogue" true
          (List.exists (fun (l : Codegen.Kernel.loop) -> l.extent mod l.unroll <> 0) reductions));
      let env = Codegen.Exec.run_program c.v_ir [ point ] (random_inputs ~seed:2 c.v_ir) in
      Alcotest.(check string) b.label want (output_bits c.v_ir env))
    [
      ( Benchsuite.Nwchem.D1,
        6,
        List.find (fun p -> Tcr.Space.point_key p = "tx=h1 ty=p4 bx=p5 by=p6 uh7=4"),
        "db31b70c1b17a9e6354f5bd6e68b1a87" );
      (Benchsuite.Nwchem.S1, 4, List.hd, "ceb4e5bf285d61a831402d582914c7b9");
    ]

(* ---------------- Kernel consumers ---------------- *)

(* Every tensor of [ir], random: kernels run alone, so temporaries are
   inputs too. *)
let random_env (ir : Tcr.Ir.t) =
  let rng = Util.Rng.create 5 in
  List.map
    (fun (v : Tcr.Ir.var) -> (v.name, Tensor.Dense.random rng (Tcr.Ir.var_shape ir v.name)))
    ir.vars

(* The sweep every consumer of a kernel's addresses is pinned on: kernels,
   each with a random environment when it is small enough to walk, and the
   (benchmark, variant choice, one point per op) candidates to validate.
   Every point of matmul at extents that leave epilogues and of eqn1 at
   n = 4, sampled points of the three NWChem families at n = 4 and of the
   Table II problems at paper size (never walked), and the naive OpenACC
   kernel of a rank-1 program, whose tx and bx bind one index. *)
let consumer_sweep () =
  let rng = Util.Rng.create 26 in
  let kernels = ref [] and candidates = ref [] in
  let add ~walk (b : Autotune.Tuner.benchmark) pick =
    List.iter
      (fun (c : Autotune.Tuner.variant_choice) ->
        let env = if walk then Some (random_env c.v_ir) else None in
        List.iter
          (fun (s : Tcr.Space.t) ->
            let name =
              Printf.sprintf "%s_v%s_GPU_%d" b.label
                (String.concat "_" (List.map string_of_int c.ids))
                (s.op_index + 1)
            in
            List.iter
              (fun p -> kernels := (Codegen.Kernel.lower ~name c.v_ir s.op p, env) :: !kernels)
              (if Tcr.Space.count s = 0 then [] else pick s))
          c.spaces.op_spaces;
        if walk then
          candidates :=
            (b, c, List.map (Tcr.Space.sample rng) c.spaces.op_spaces) :: !candidates)
      (Autotune.Tuner.variant_choices b)
  in
  let every = Tcr.Space.enumerate in
  let sample n s = List.init n (fun _ -> Tcr.Space.sample rng s) in
  List.iter
    (fun dims ->
      add ~walk:true
        (Autotune.Tuner.benchmark_of_dsl ~label:"mm"
           (dims ^ "\nC[i j] = Sum([k], A[i k] * B[k j])"))
        every)
    [ "dims: i=5 j=6 k=7"; "dims: i=9 j=10 k=11" ];
  add ~walk:true (Benchsuite.Suite.eqn1 ~n:4 ()) every;
  List.iter
    (fun f -> List.iter (fun b -> add ~walk:true b (sample 12)) (Benchsuite.Nwchem.benchmarks ~n:4 f))
    Benchsuite.Nwchem.families;
  List.iter (fun b -> add ~walk:false b (sample 8)) (Benchsuite.Suite.all_individual ());
  List.rev !kernels, List.rev !candidates

(* The naive OpenACC strategy on a rank-1 program: its one parallel loop
   is both tx and bx. *)
let naive_rank1 () =
  let set =
    match Octopi.Variants.of_string "dims: i=8 j=6\nC[i] = Sum([j], T[i j] * X[j])" with
    | [ s ] -> s
    | _ -> assert false
  in
  let ir = ir_of (List.hd set.variants) set in
  (ir, Cpusim.Openacc.points ir Cpusim.Openacc.Naive)

let float_bits data =
  let b = Bytes.create (8 * Array.length data) in
  Array.iteri (fun i x -> Bytes.set_int64_le b (8 * i) (Int64.bits_of_float x)) data;
  Digest.to_hex (Digest.bytes b)

(* The walker's float instance on [k] over a copy of [env]'s output: the
   output's bits, or the exception's text. *)
let walk_result env (k : Codegen.Kernel.t) =
  let env =
    List.map (fun (n, t) -> (n, if n = k.op.out then Tensor.Dense.copy t else t)) env
  in
  match Codegen.Exec.run_kernel k env with
  | () -> float_bits (Tensor.Dense.data (List.assoc k.op.out env))
  | exception e -> Printexc.to_string e

(* The walker itself on [k], without run_kernel's shape check of the
   caller's tensors (which a mutation of the layout fails first): a hash
   of every output offset and run it visits, or the exception's text. *)
let walk_trace env (k : Codegen.Kernel.t) =
  let h = ref 0 in
  let mix x = h := ((!h * 31) + x) land 0x3FFFFFFF in
  match
    Codegen.Exec.walk k
      ~elements:(fun name -> Tensor.Dense.num_elements (List.assoc name env))
      ~output:(fun off reduce ->
        mix off;
        reduce ())
      ~run:(fun offs steps len ->
        Array.iter mix offs;
        Array.iter mix steps;
        mix len)
  with
  | () -> string_of_int !h
  | exception e -> Printexc.to_string e

(* Five MD5s over the sweep, one per consumer: the CUDA text; the model's
   times and traffic on the three GPUs with both coalescing counts of every
   reference; the bounds proof's findings with lints on; the walker's
   output bits or exception, and the walk's own trace, on each kernel and
   each mutation of it; and the semantic verdicts of one point per
   variant, with and without each mutation. A change that moves one on
   purpose updates it and names the change in CHANGES.md. *)
let test_kernel_consumers_pinned () =
  let kernels, candidates = consumer_sweep () in
  let rank1_ir, rank1_points = naive_rank1 () in
  let naive = Codegen.Kernel.lower_program rank1_ir rank1_points in
  let kernels =
    kernels @ List.map (fun k -> (k, Some (random_env rank1_ir))) naive
  in
  let cuda = Buffer.create 4096 and model = Buffer.create 4096 in
  let proof = Buffer.create 4096 and walk = Buffer.create 4096 in
  let semantic = Buffer.create 4096 in
  List.iter
    (fun ((k : Codegen.Kernel.t), env) ->
      if env <> None then Buffer.add_string cuda (Codegen.Cuda.emit_kernel k);
      List.iter
        (fun arch ->
          let r = Gpusim.Perf.analyze_kernel arch k in
          Printf.bprintf model "%s %h %h %h %h\n" k.name r.time_s r.t_mem r.dram_bytes
            r.l2_bytes;
          List.iter
            (fun d -> Printf.bprintf proof "%s\n" (Check.Diag.render d))
            (Check.Kernel_check.check arch k))
        Gpusim.Arch.all;
      let a = Codegen.Kernel.access k in
      List.iter
        (fun r ->
          Printf.bprintf model "%h %h\n"
            (Gpusim.Coalesce.exact_transactions_per_warp k a r)
            (Gpusim.Coalesce.transactions_per_warp k a r))
        (a.out :: a.factors);
      Option.iter
        (fun env ->
          Printf.bprintf walk "%s %s %s\n" k.name (walk_result env k) (walk_trace env k);
          List.iter
            (fun m ->
              match Check.Mutate.apply m k with
              | k', true ->
                Printf.bprintf walk "%s %s %s\n" (Check.Mutate.name m) (walk_result env k')
                  (walk_trace env k')
              | _, false -> ())
            Check.Mutate.all)
        env)
    kernels;
  Printf.bprintf model "openacc %h\n"
    (Cpusim.Openacc.kernel_time Gpusim.Arch.gtx980 rank1_ir Cpusim.Openacc.Naive);
  let validate ?mutate_kernel (b : Autotune.Tuner.benchmark) ids ir points =
    let v =
      Check.Semantic.validate ?mutate_kernel ~label:b.label b.statements ~variant_ids:ids ~ir
        ~points
    in
    Printf.bprintf semantic "%s %b %s\n" b.label v.equivalent
      (Option.value ~default:"-" v.failed_stage);
    List.iter (fun (s, d) -> Printf.bprintf semantic "%s:%s\n" s d) v.stages;
    List.iter (fun d -> Printf.bprintf semantic "%s\n" (Check.Diag.render d)) v.diags
  in
  let rank1 =
    ( Autotune.Tuner.benchmark_of_dsl ~label:"rank1"
        "dims: i=8 j=6\nC[i] = Sum([j], T[i j] * X[j])",
      [ 0 ],
      rank1_ir,
      rank1_points )
  in
  List.iter
    (fun (b, ids, ir, points) ->
      validate b ids ir points;
      List.iter
        (fun m -> validate ~mutate_kernel:(fun k -> fst (Check.Mutate.apply m k)) b ids ir points)
        Check.Mutate.all)
    (List.map
       (fun (b, (c : Autotune.Tuner.variant_choice), points) -> (b, c.ids, c.v_ir, points))
       candidates
    @ [ rank1 ]);
  let md5 b = Digest.to_hex (Digest.string (Buffer.contents b)) in
  Alcotest.(check (list string))
    "cuda, model, proof, walk, semantic"
    [
      "5fe6e77df75bfde73b22be39e5d9ae35";
      "b4cf6221a3b35a77c9dfdab05a8680a0";
      "54cab09e6fcc33cd23be5789e997ff7c";
      "299666ad3d5540ef54cf8825f3f8758e";
      "9910839d67f5ee66c20fecd5f384dee1";
    ]
    [ md5 cuda; md5 model; md5 proof; md5 walk; md5 semantic ]

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
    ("exec float bits pinned", `Quick, test_exec_float_bits_pinned);
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
    ("kernel consumers pinned", `Quick, test_kernel_consumers_pinned);
  ]
