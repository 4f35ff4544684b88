(* Standalone CUDA driver generator: wraps a tuned translation unit in a
   complete, compilable program with a main() that allocates and fills the
   inputs, runs [reps] timed evaluations of the generated host wrapper
   (which includes its transfers), checks the device result against a naive
   CPU reference, and prints the achieved GFlops - the artifact Orio's
   timing harness builds around each code variant. *)

let reference_loops b (ir : Tcr.Ir.t) =
  let line indent s = Buffer.add_string b (String.make indent ' ' ^ s ^ "\n") in
  List.iteri
    (fun i (op : Tcr.Ir.op) ->
      line 2 (Printf.sprintf "/* reference statement %d */" (i + 1));
      let rec nest indent = function
        | [] ->
          let off dims = C_emit.offset_expr ir dims in
          line indent
            (Printf.sprintf "%s_ref[%s] += %s;" op.out (off op.out_indices)
               (String.concat " * "
                  (List.map
                     (fun (name, dims) ->
                       let suffix =
                         match (Tcr.Ir.var ir name).role with
                         | Tcr.Ir.Input -> "_h"
                         | Tcr.Ir.Temp | Tcr.Ir.Output -> "_ref"
                       in
                       Printf.sprintf "%s%s[%s]" name suffix (off dims))
                     op.factors)))
        | idx :: rest ->
          line indent
            (Printf.sprintf "for (int %s = 0; %s < %d; %s++) {" idx idx
               (Tcr.Ir.extent ir idx) idx);
          nest (indent + 2) rest;
          line indent "}"
      in
      nest 2 op.loop_order)
    ir.ops

let emit ?(reps = 100) ?(seed = 1) (ir : Tcr.Ir.t) (points : Tcr.Space.point list) =
  Obs.Trace.with_span ~cat:"codegen"
    ~attrs:(fun () -> [ ("label", ir.label); ("reps", string_of_int reps) ])
    "codegen.driver"
  @@ fun _ ->
  let b = Buffer.create 8192 in
  let line indent s = Buffer.add_string b (String.make indent ' ' ^ s ^ "\n") in
  let elems name = Tensor.Shape.num_elements (Tcr.Ir.var_shape ir name) in
  Buffer.add_string b (Cuda.emit_program ir points);
  Buffer.add_string b "\n#include <stdio.h>\n#include <stdlib.h>\n#include <math.h>\n#include <time.h>\n\n";
  line 0 "int main(void)";
  line 0 "{";
  line 2 (Printf.sprintf "srand(%d);" seed);
  (* host buffers *)
  List.iter
    (fun (v : Tcr.Ir.var) ->
      match v.role with
      | Tcr.Ir.Input ->
        line 2
          (Printf.sprintf "double *%s_h = (double *)malloc(%d * sizeof(double));" v.name
             (elems v.name));
        line 2
          (Printf.sprintf "for (long t = 0; t < %d; t++) %s_h[t] = 2.0 * rand() / RAND_MAX - 1.0;"
             (elems v.name) v.name)
      | Tcr.Ir.Output ->
        line 2
          (Printf.sprintf "double *%s_h = (double *)calloc(%d, sizeof(double));" v.name
             (elems v.name));
        line 2
          (Printf.sprintf "double *%s_ref = (double *)calloc(%d, sizeof(double));" v.name
             (elems v.name))
      | Tcr.Ir.Temp ->
        line 2
          (Printf.sprintf "double *%s_ref = (double *)calloc(%d, sizeof(double));" v.name
             (elems v.name)))
    ir.vars;
  (* timed device runs: the generated <label>_run keeps data resident *)
  line 2 "struct timespec t0, t1;";
  line 2 "clock_gettime(CLOCK_MONOTONIC, &t0);";
  line 2 (Printf.sprintf "for (int rep = 0; rep < %d; rep++) {" reps);
  let run_args =
    String.concat ", "
      (List.map
         (fun (v : Tcr.Ir.var) -> v.name ^ "_h")
         (Tcr.Ir.inputs ir @ Tcr.Ir.outputs ir))
  in
  line 4 (Printf.sprintf "%s_run(%s);" ir.label run_args);
  line 2 "}";
  line 2 "clock_gettime(CLOCK_MONOTONIC, &t1);";
  line 2
    "double elapsed = (t1.tv_sec - t0.tv_sec) + 1e-9 * (t1.tv_nsec - t0.tv_nsec);";
  line 2
    (Printf.sprintf "double gflops = %d.0 * %d / elapsed / 1e9;" (Tcr.Ir.flops ir) reps);
  (* CPU reference + comparison *)
  reference_loops b ir;
  line 2 "double max_err = 0.0;";
  List.iter
    (fun (v : Tcr.Ir.var) ->
      if v.role = Tcr.Ir.Output then begin
        line 2 (Printf.sprintf "for (long t = 0; t < %d; t++) {" (elems v.name));
        line 4
          (Printf.sprintf "double e = fabs(%s_h[t] - %s_ref[t]);" v.name v.name);
        line 4 "if (e > max_err) max_err = e;";
        line 2 "}"
      end)
    ir.vars;
  line 2
    (Printf.sprintf
       "printf(\"%s: %%d reps, %%.3f ms/eval, %%.2f GFlops, max |err| = %%.3e\\n\", %d, 1e3 * elapsed / %d, gflops, max_err);"
       ir.label reps reps);
  (* one free per host buffer allocated above *)
  List.iter
    (fun (v : Tcr.Ir.var) ->
      let suffixes =
        match v.role with
        | Tcr.Ir.Input -> [ "_h" ]
        | Tcr.Ir.Output -> [ "_h"; "_ref" ]
        | Tcr.Ir.Temp -> [ "_ref" ]
      in
      List.iter (fun s -> line 2 (Printf.sprintf "free(%s%s);" v.name s)) suffixes)
    ir.vars;
  line 2 "return max_err < 1e-9 ? 0 : 1;";
  line 0 "}";
  Buffer.contents b
