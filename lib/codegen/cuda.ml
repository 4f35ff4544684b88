(* CUDA C emitter: prints the kernel IR in the style of Figure 2(d), plus a
   host wrapper that allocates device memory, copies inputs once, launches
   the kernel sequence with data resident on the GPU, and copies the output
   back. *)

let buf_add = Buffer.add_string

(* C expression for the linear (row-major) offset of a reference: its
   terms in the kernel's access map, each slot printed by [var]. *)
let offset_expr var (r : Kernel.reference) =
  let term (s, stride) = if stride = 1 then var s else Printf.sprintf "%s * %d" (var s) stride in
  String.concat " + " (List.map term r.terms)

let param_list (k : Kernel.t) =
  String.concat ", " (List.map (fun (name, _) -> "double *" ^ name) k.arrays)

(* The multiply-accumulate statement, slots printed by [var]. *)
let body_stmt (a : Kernel.access) acc_var var =
  let load (r : Kernel.reference) = Printf.sprintf "%s[%s]" r.name (offset_expr var r) in
  Printf.sprintf "%s = %s + %s;" acc_var acc_var (String.concat " * " (List.map load a.factors))

let emit_kernel (k : Kernel.t) =
  let b = Buffer.create 1024 in
  let line indent s = buf_add b (String.make indent ' ' ^ s ^ "\n") in
  line 0 (Printf.sprintf "__global__ void %s(%s)" k.name (param_list k));
  line 0 "{";
  let d = k.decomp in
  line 2 "int tx = threadIdx.x;";
  if d.ty <> None then line 2 "int ty = threadIdx.y;";
  line 2 "int bx = blockIdx.x;";
  if d.by <> None then line 2 "int by = blockIdx.y;";
  let parallel_loops, reduction_loops =
    List.partition (fun (l : Kernel.loop) -> l.parallel) k.thread_loops
  in
  List.iter
    (fun (l : Kernel.loop) -> line 2 (Printf.sprintf "int %s;" l.index))
    k.thread_loops;
  if k.scalar_replaced then line 2 "double nv;";
  let a = Kernel.access k in
  let name s = a.slots.(s).var in
  let out_expr = Printf.sprintf "%s[%s]" a.out.name (offset_expr name a.out) in
  (* reduction loops: each may be unrolled (main loop + epilogue), which
     prints the loop's slot as an offset from its variable or as a
     constant; the renamings compose across nesting levels *)
  let rec emit_reductions indent acc var = function
    | [] -> line indent (body_stmt a acc var)
    | (l : Kernel.loop) :: rest ->
      if l.unroll <= 1 then begin
        line indent
          (Printf.sprintf "for (%s = 0; %s < %d; %s++) {" l.index l.index l.extent l.index);
        emit_reductions (indent + 2) acc var rest;
        line indent "}"
      end
      else begin
        let u = l.unroll and e = l.extent and ls = Kernel.slot a l.index in
        let main = e - (e mod u) in
        if main > 0 then begin
          line indent
            (Printf.sprintf "for (%s = 0; %s <= %d; %s += %d) {" l.index l.index (main - u)
               l.index u);
          for j = 0 to u - 1 do
            let var' s =
              if s <> ls then var s
              else if j = 0 then l.index
              else Printf.sprintf "(%s + %d)" l.index j
            in
            emit_reductions (indent + 2) acc var' rest
          done;
          line indent "}"
        end;
        for i = main to e - 1 do
          let var' s = if s = ls then string_of_int i else var s in
          emit_reductions indent acc var' rest
        done
      end
  in
  (* serial parallel loops enclose one scalar-replaced output element each *)
  let rec emit_parallel indent = function
    | [] ->
      if k.scalar_replaced then begin
        line indent (Printf.sprintf "nv = %s;" out_expr);
        emit_reductions indent "nv" name reduction_loops;
        line indent (Printf.sprintf "%s = nv;" out_expr)
      end
      else
        (* ablation form: accumulate straight into global memory *)
        emit_reductions indent out_expr name reduction_loops
    | (l : Kernel.loop) :: rest ->
      line indent
        (Printf.sprintf "for (%s = 0; %s < %d; %s++) {" l.index l.index l.extent l.index);
      emit_parallel (indent + 2) rest;
      line indent "}"
  in
  emit_parallel 2 parallel_loops;
  line 0 "}";
  Buffer.contents b

(* Host-side driver: allocation, transfers, launches. *)
let emit_host (ir : Tcr.Ir.t) (kernels : Kernel.t list) =
  let b = Buffer.create 2048 in
  let line indent s = buf_add b (String.make indent ' ' ^ s ^ "\n") in
  let elems name = Tensor.Shape.num_elements (Tcr.Ir.var_shape ir name) in
  line 0
    (Printf.sprintf "void %s_run(%s)" ir.label
       (String.concat ", "
          (List.map
             (fun (v : Tcr.Ir.var) -> "double *" ^ v.name ^ "_h")
             (Tcr.Ir.inputs ir @ Tcr.Ir.outputs ir))));
  line 0 "{";
  List.iter
    (fun (v : Tcr.Ir.var) ->
      line 2 (Printf.sprintf "double *%s;" v.name);
      line 2
        (Printf.sprintf "cudaMalloc((void **)&%s, %d * sizeof(double));" v.name
           (elems v.name)))
    ir.vars;
  List.iter
    (fun (v : Tcr.Ir.var) ->
      match v.role with
      | Tcr.Ir.Input ->
        line 2
          (Printf.sprintf
             "cudaMemcpy(%s, %s_h, %d * sizeof(double), cudaMemcpyHostToDevice);" v.name
             v.name (elems v.name))
      | Tcr.Ir.Temp | Tcr.Ir.Output ->
        line 2
          (Printf.sprintf "cudaMemset(%s, 0, %d * sizeof(double));" v.name (elems v.name)))
    ir.vars;
  List.iter
    (fun (k : Kernel.t) ->
      let gx, gy = k.grid and tx, ty = k.block in
      line 2
        (Printf.sprintf "%s<<<dim3(%d, %d), dim3(%d, %d)>>>(%s);" k.name gx gy tx ty
           (String.concat ", " (List.map fst k.arrays))))
    kernels;
  List.iter
    (fun (v : Tcr.Ir.var) ->
      if v.role = Tcr.Ir.Output then
        line 2
          (Printf.sprintf
             "cudaMemcpy(%s_h, %s, %d * sizeof(double), cudaMemcpyDeviceToHost);" v.name
             v.name (elems v.name)))
    ir.vars;
  List.iter (fun (v : Tcr.Ir.var) -> line 2 (Printf.sprintf "cudaFree(%s);" v.name)) ir.vars;
  line 0 "}";
  Buffer.contents b

(* Full translation unit for a tuned program. *)
let emit_program ?scalar_replace (ir : Tcr.Ir.t) (points : Tcr.Space.point list) =
  Obs.Trace.with_span ~cat:"codegen"
    ~attrs:(fun () -> [ ("label", ir.label) ])
    "codegen.cuda"
  @@ fun _ ->
  let kernels = Kernel.lower_program ?scalar_replace ir points in
  let b = Buffer.create 4096 in
  buf_add b "#include <cuda_runtime.h>\n\n";
  buf_add b (Printf.sprintf "/* Generated by Barracuda from TCR program %s */\n\n" ir.label);
  List.iter
    (fun k ->
      buf_add b (emit_kernel k);
      buf_add b "\n")
    kernels;
  buf_add b (emit_host ir kernels);
  Buffer.contents b
