(* Spectral-element gradients (the Nekbone kernels Lg3 and Lg3t) tuned for
   all three simulated GPU generations, with CPU baselines - the workload
   class the paper's introduction motivates: thousands of identically-sized
   small tensors.

   Run with: dune exec examples/spectral_element.exe *)

let order = 12
let elements = 512

let () =
  Printf.printf
    "Spectral-element gradient kernels: order %d, %d elements per batch\n\n" order elements;
  List.iter
    (fun (name, (b : Barracuda.Tuner.benchmark)) ->
      Printf.printf "== %s ==\n" name;
      List.iter
        (fun (c : Barracuda.Contraction.t) ->
          Printf.printf "  %s[%s] summed over {%s}\n" c.output
            (String.concat " " c.output_indices)
            (String.concat " " c.sum_indices))
        b.statements;
      let t_seq = Barracuda.Tuner.best_sequential_time b in
      let t_omp = Barracuda.Tuner.best_openmp_time b in
      let flops = float_of_int (Barracuda.Tuner.min_variant_flops b) in
      Printf.printf "  Haswell 1 core : %6.2f GFlops\n" (flops /. t_seq /. 1e9);
      Printf.printf "  OpenMP 4 cores : %6.2f GFlops\n" (flops /. t_omp /. 1e9);
      List.iter
        (fun arch ->
          let rng = Barracuda.Rng.create 42 in
          let r = Barracuda.Tuner.tune ~rng ~arch b in
          Printf.printf "  %-14s : %6.2f GFlops  (speedup %.1fx, %d evals over %d configs)\n"
            arch.Barracuda.Arch.name r.gflops
            (t_seq /. r.time_per_eval_s)
            r.evaluations r.pool_size;
          (* show the decomposition SURF chose for the first kernel *)
          Printf.printf "    best kernel 1: %s\n"
            (Barracuda.Space.point_key (List.hd r.best.points)))
        Barracuda.Arch.all;
      print_newline ())
    [
      ("local_grad3 (Lg3)", Benchsuite.Suite.lg3 ~p:order ~elems:elements ());
      ("local_grad3t (Lg3t)", Benchsuite.Suite.lg3t ~p:order ~elems:elements ());
    ];
  (* functional spot-check at reduced size: translation validation proved
     the tuned Lg3 equal to its DSL *)
  let small = Benchsuite.Suite.lg3 ~p:4 ~elems:3 () in
  let rng = Barracuda.Rng.create 3 in
  let r = Barracuda.Tuner.tune ~rng ~arch:Barracuda.Arch.gtx980 small in
  let proved = match r.semantic with Some v -> v.equivalent | None -> false in
  Printf.printf "functional validation at order 4: %s\n" (if proved then "OK" else "MISMATCH")
