(* Interpreter for the kernel IR.

   [walk] is the one walk over a kernel's iteration space. It executes the
   same structure the CUDA emitter prints - grid x block x parallel loops
   around each output element, reduction loops as the unrolled main loop
   plus epilogue - and leaves the arithmetic to its caller, which passes
   closures over its own arrays and gets each output element's points in
   runs (one per innermost reduction loop). Two instances exist:
   [run_kernel] over floats (checked against the einsum oracle by the
   test-suite) and the prime-field kernel stage of Check.Semantic (checked
   against its own stage evaluators), so the validator proves the
   interpreter that Barracuda.run executes.

   Addresses are formed from the kernel's OWN extents table and
   bounds-checked against the caller's allocation, so corrupted strides
   surface as wrong values or [Out_of_bounds] instead of being normalized
   away. *)

type env = (string * Tensor.Dense.t) list

exception Out_of_bounds of string

let find env name =
  match List.assoc_opt name env with
  | Some t -> t
  | None -> invalid_arg (Printf.sprintf "Exec: unbound tensor %s" name)

(* Walk [k]. Slots hold the decomposition indices first, then the thread
   loops; each reference compiles to per-slot row-major strides over the
   kernel's extents. Offsets are running sums: a slot write moves every
   reference's offset by its stride at that slot times the change in the
   slot's value, so an offset always equals the dot product of strides and
   slot values - also when two loop levels bind one slot (an ill-formed
   decomposition such as tx = bx), where the last write wins. [output off
   reduce] runs once per output element and must call [reduce].

   [run offs steps len] gets the points of one run: point [t] (from 0 to
   [len - 1], in order) reads factor [f] at [offs.(f) + t * steps.(f)].
   The innermost reduction level is one run of its extent: its unrolled
   main loop and epilogue visit 0 .. e-1 in order, so the run covers both,
   and the slot is left at e-1 as the loops leave it. Without reduction
   loops each output element is a run of one. Both arrays are the walker's
   own: read them, never write them. *)
let walk (k : Kernel.t) ~elements ~output ~run =
  let kext i =
    match List.assoc_opt i k.extents with
    | Some e -> e
    | None -> invalid_arg (Printf.sprintf "kernel %s has no extent for index %s" k.name i)
  in
  let slots = Array.of_list (Kernel.mapped_indices k @ Kernel.serial_indices k) in
  let nslots = Array.length slots in
  let slot name =
    let rec go i =
      if i >= nslots then invalid_arg (Printf.sprintf "kernel %s: index %s has no slot" k.name name)
      else if slots.(i) = name then i
      else go (i + 1)
    in
    go 0
  in
  let compile (name, dims) =
    let size = elements name in
    let strides = Tensor.Shape.strides (Array.of_list (List.map kext dims)) in
    let s = Array.make nslots 0 in
    List.iteri (fun pos dim -> s.(slot dim) <- s.(slot dim) + strides.(pos)) dims;
    (name, size, s)
  in
  let out_name, out_size, out_strides = compile (k.op.out, k.op.out_indices) in
  let factor_refs = Array.of_list (List.map compile k.op.factors) in
  let nf = Array.length factor_refs in
  (* column [s]: each factor's stride at slot [s] *)
  let factor_cols =
    Array.init nslots (fun s -> Array.map (fun (_, _, strides) -> strides.(s)) factor_refs)
  in
  let vals = Array.make nslots 0 in
  let out_off = ref 0 in
  let offs = Array.make nf 0 in
  let set s v =
    let d = v - vals.(s) in
    vals.(s) <- v;
    out_off := !out_off + (out_strides.(s) * d);
    let col = factor_cols.(s) in
    for f = 0 to nf - 1 do
      offs.(f) <- offs.(f) + (col.(f) * d)
    done
  in
  let check name size off =
    if off < 0 || off >= size then
      raise
        (Out_of_bounds
           (Printf.sprintf "kernel %s accesses %s at linear offset %d outside its %d elements"
              k.name name off size))
  in
  let sizes = Array.map (fun (_, size, _) -> size) factor_refs in
  (* Offsets are affine along a run, so its two ends bound it. When an end
     is out of bounds, the in-bounds prefix runs and the first failing
     point raises, naming its first failing factor, as a per-point check
     would. *)
  let checked_run steps len =
    let last = len - 1 in
    let ok = ref true in
    for f = 0 to nf - 1 do
      let first = offs.(f) and size = sizes.(f) in
      let final = first + (last * steps.(f)) in
      if first < 0 || first >= size || final < 0 || final >= size then ok := false
    done;
    if !ok then run offs steps len
    else begin
      let rec first_failing t f =
        if f = nf then first_failing (t + 1) 0
        else
          let off = offs.(f) + (t * steps.(f)) in
          if off >= 0 && off < sizes.(f) then first_failing t (f + 1) else (t, f, off)
      in
      let t, f, off = first_failing 0 0 in
      if t > 0 then run offs steps t;
      let name, size, _ = factor_refs.(f) in
      check name size off
    end
  in
  let loops ls =
    List.map (fun (l : Kernel.loop) -> (slot l.index, l.extent, max 1 l.unroll)) ls
  in
  let parallel_loops, reduction_loops =
    List.partition (fun (l : Kernel.loop) -> l.parallel) k.thread_loops
  in
  let parallel_loops = loops parallel_loops and reduction_loops = loops reduction_loops in
  let no_steps = Array.make nf 0 in
  let rec reduce = function
    | [] -> checked_run no_steps 1
    | [ (s, e, _) ] ->
      if e > 0 then begin
        set s 0;
        checked_run factor_cols.(s) e;
        set s (e - 1)
      end
    | (s, e, u) :: rest ->
      let i = ref 0 in
      (* unrolled main loop *)
      while !i + u <= e do
        for j = 0 to u - 1 do
          set s (!i + j);
          reduce rest
        done;
        i := !i + u
      done;
      (* epilogue *)
      while !i < e do
        set s !i;
        reduce rest;
        incr i
      done
  in
  let reductions () = reduce reduction_loops in
  let rec parallel = function
    | [] ->
      check out_name out_size !out_off;
      output !out_off reductions
    | (s, e, _) :: rest ->
      for i = 0 to e - 1 do
        set s i;
        parallel rest
      done
  in
  let d = k.decomp in
  let bx_e, by_e = k.grid and tx_e, ty_e = k.block in
  let tx_s = slot d.tx and bx_s = slot d.bx in
  let ty_s = Option.map slot d.ty and by_s = Option.map slot d.by in
  for by = 0 to by_e - 1 do
    Option.iter (fun s -> set s by) by_s;
    for bx = 0 to bx_e - 1 do
      set bx_s bx;
      for ty = 0 to ty_e - 1 do
        Option.iter (fun s -> set s ty) ty_s;
        for tx = 0 to tx_e - 1 do
          set tx_s tx;
          parallel parallel_loops
        done
      done
    done
  done

(* Run one kernel over its grid. Accumulates into the (pre-zeroed or
   previously accumulated) output tensor, as the generated CUDA does by
   loading the output into the scalar first. *)
let run_kernel (k : Kernel.t) (env : env) =
  let data (name, dims) =
    let tensor = find env name in
    let shape = Tensor.Dense.shape tensor in
    if Tensor.Shape.rank shape <> List.length dims then
      invalid_arg (Printf.sprintf "Exec: rank mismatch for %s" name);
    List.iteri
      (fun pos i ->
        if shape.(pos) <> Kernel.extent k i then
          invalid_arg (Printf.sprintf "Exec: extent mismatch for %s on %s" name i))
      dims;
    Tensor.Dense.data tensor
  in
  let out = data (k.op.out, k.op.out_indices) in
  let factors = Array.of_list (List.map data k.op.factors) in
  let nf = Array.length factors in
  (* the scalar accumulator; a one-cell float array keeps it unboxed *)
  let acc = [| 0.0 |] in
  let output off reduce =
    if k.scalar_replaced then begin
      (* load once, accumulate in the register, store once *)
      acc.(0) <- out.(off);
      reduce ();
      out.(off) <- acc.(0)
    end
    else begin
      (* ablation form: read-modify-write the output every iteration *)
      acc.(0) <- 0.0;
      let saved = out.(off) in
      reduce ();
      out.(off) <- saved +. acc.(0)
    end
  in
  (* one multiply-accumulate per point: each product starts from 1.0 and
     takes the factors in order, and the points accumulate in order *)
  let run offs steps len =
    let a = ref acc.(0) in
    for t = 0 to len - 1 do
      let p = ref 1.0 in
      for f = 0 to nf - 1 do
        p := !p *. factors.(f).(offs.(f) + (t * steps.(f)))
      done;
      a := !a +. !p
    done;
    acc.(0) <- !a
  in
  walk k
    ~elements:(fun name -> Tensor.Dense.num_elements (find env name))
    ~output ~run

(* Allocate zeroed temporaries and outputs for a program. *)
let allocate_produced (ir : Tcr.Ir.t) (inputs : env) : env =
  let produced =
    List.filter (fun (v : Tcr.Ir.var) -> v.role <> Tcr.Ir.Input) ir.vars
  in
  inputs
  @ List.map
      (fun (v : Tcr.Ir.var) -> (v.name, Tensor.Dense.create (Tcr.Ir.var_shape ir v.name)))
      produced

(* Run a whole program: lower each op under its point and execute the
   kernels in sequence (data stays "device-resident" in [env]). Returns the
   extended environment; the output tensor is found under its name. *)
let run_program ?scalar_replace (ir : Tcr.Ir.t) (points : Tcr.Space.point list) (inputs : env) : env =
  let env = allocate_produced ir inputs in
  let kernels = Kernel.lower_program ?scalar_replace ir points in
  List.iter (fun k -> run_kernel k env) kernels;
  env

(* Reference evaluation of a TCR program using the einsum oracle, for
   validation: ops are evaluated in order, accumulating when several ops
   target the same tensor. *)
let run_reference (ir : Tcr.Ir.t) (inputs : env) : env =
  let env = allocate_produced ir inputs in
  List.iter
    (fun (op : Tcr.Ir.op) ->
      let operands =
        List.map (fun (name, idx) -> Tensor.Einsum.operand (find env name) idx) op.factors
      in
      let value = Tensor.Einsum.contract ~output_indices:op.out_indices operands in
      let dest = find env op.out in
      let sum = Tensor.Dense.add dest value in
      Array.blit (Tensor.Dense.data sum) 0 (Tensor.Dense.data dest) 0
        (Tensor.Dense.num_elements dest))
    ir.ops;
  env
