(* Interpreter for the kernel IR. [walk] is the one walk over a kernel's
   iteration space (its contract is in exec.mli); its two instances are
   [run_kernel] over floats, checked against the einsum oracle by the
   test-suite, and the prime-field kernel stage of Check.Semantic, so the
   validator proves the interpreter that Barracuda.run executes.

   Addresses come from the kernel's access map (Kernel.access), formed
   from its OWN extents table, and are bounds-checked against the
   caller's allocation, so corrupted strides surface as wrong values or
   [Out_of_bounds] instead of being normalized away. *)

type env = (string * Tensor.Dense.t) list

exception Out_of_bounds of string

let find env name =
  match List.assoc_opt name env with
  | Some t -> t
  | None -> invalid_arg (Printf.sprintf "Exec: unbound tensor %s" name)

(* Walk [k] over its access map. Each reference's stride at a slot is the
   sum of its terms there. Offsets are running sums: a slot write moves
   every reference's offset by its stride at that slot times the change in
   the slot's value, so an offset always equals the dot product of strides
   and slot values - also when two levels bind one slot (tx = bx), where
   the last write wins. The innermost reduction level is one run of its
   extent, and its slot is left at e-1 as the loop leaves it. *)
let walk (k : Kernel.t) ~elements ~output ~run =
  let a = Kernel.access k in
  let nslots = Array.length a.slots in
  let strides (r : Kernel.reference) =
    let s = Array.make nslots 0 in
    List.iter (fun (slot, stride) -> s.(slot) <- s.(slot) + stride) r.terms;
    s
  in
  let out_strides = strides a.out and out_size = elements a.out.name in
  let factors = Array.of_list a.factors in
  let nf = Array.length factors in
  let factor_strides = Array.map strides factors in
  (* column [s]: each factor's stride at slot [s] *)
  let factor_cols = Array.init nslots (fun s -> Array.map (fun st -> st.(s)) factor_strides) in
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
  let sizes = Array.map (fun (r : Kernel.reference) -> elements r.name) factors in
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
      check factors.(f).name sizes.(f) off
    end
  in
  let slot = Kernel.slot a in
  let loops = List.map (fun (l : Kernel.loop) -> (slot l.index, l.extent)) in
  let parallel_loops, reduction_loops =
    List.partition (fun (l : Kernel.loop) -> l.parallel) k.thread_loops
  in
  let parallel_loops = loops parallel_loops and reduction_loops = loops reduction_loops in
  let no_steps = Array.make nf 0 in
  let rec reduce = function
    | [] -> checked_run no_steps 1
    | [ (s, e) ] ->
      if e > 0 then begin
        set s 0;
        checked_run factor_cols.(s) e;
        set s (e - 1)
      end
    | (s, e) :: rest ->
      for i = 0 to e - 1 do
        set s i;
        reduce rest
      done
  in
  let reductions () = reduce reduction_loops in
  let rec parallel = function
    | [] ->
      check a.out.name out_size !out_off;
      output !out_off reductions
    | (s, e) :: rest ->
      for i = 0 to e - 1 do
        if s >= 0 then set s i;
        parallel rest
      done
  in
  (* by, bx, ty and tx, then the parallel loops; a grid or block dimension
     that the decomposition leaves unmapped binds no slot (-1) *)
  let level i e = ((match i with Some i -> slot i | None -> -1), e) in
  let d = k.decomp and bx_e, by_e = k.grid and tx_e, ty_e = k.block in
  parallel
    ([ level d.by by_e; level (Some d.bx) bx_e; level d.ty ty_e; level (Some d.tx) tx_e ]
    @ parallel_loops)

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
