(* Trace-driven cross-check of the analytic memory model.

   Generates the actual address stream one thread block issues for a given
   array reference - iterating the serial loops in kernel order and the
   block's lanes in warp order, exactly as the interpreter executes - and
   replays it through an LRU cache of the architecture's L1 geometry. The
   test-suite compares the measured hit rate against [Perf]'s analytic
   classification (footprint-resident references must show high reuse; the
   streamed output must show none). *)

let line_bytes = 128

(* Address (in bytes) of reference [r] under slot values [vals]. *)
let address (r : Codegen.Kernel.reference) vals =
  8 * List.fold_left (fun acc (s, stride) -> acc + (vals.(s) * stride)) 0 r.terms

(* Replay one block's accesses to the kernel's reference [(name, dims)]
   through an L1 of [arch]'s geometry, over the kernel's access map, built
   once: block indices stay 0, the serial loops write their slots, then
   each lane writes tx's and ty's. The reference is loaded once per
   iteration of the serial loops it depends on (and all outer ones), per
   thread - mirroring [Coalesce.loads_per_thread]. *)
let replay_block ways (arch : Arch.t) (k : Codegen.Kernel.t) (name, dims) =
  let cache = Cache.create ~bytes:arch.l1_bytes ~line_bytes ~ways in
  let a = Codegen.Kernel.access k in
  let r =
    List.find
      (fun (r : Codegen.Kernel.reference) -> r.name = name && r.dims = dims)
      (a.out :: a.factors)
  in
  let slot = Codegen.Kernel.slot a in
  let vals = Array.make (Array.length a.slots) 0 in
  let tx_e, ty_e = k.block in
  let tx_s = slot k.decomp.tx and ty_s = Option.map slot k.decomp.ty in
  (* serial loops down to the deepest one the reference depends on *)
  let rec drop_unused = function
    | (s, _) :: outer when not (List.mem_assoc s r.terms) -> drop_unused outer
    | loops -> loops
  in
  let loops =
    List.rev_map (fun (l : Codegen.Kernel.loop) -> (slot l.index, l.extent)) k.thread_loops
    |> drop_unused |> List.rev
  in
  let budget = ref 2_000_000 in
  let rec iterate = function
    | [] ->
      (* one warp-wide load: lanes in x-fastest order *)
      if !budget > 0 then
        for ty = 0 to ty_e - 1 do
          for tx = 0 to tx_e - 1 do
            if !budget > 0 then begin
              decr budget;
              Option.iter (fun s -> vals.(s) <- ty) ty_s;
              vals.(tx_s) <- tx;
              ignore (Cache.access cache (address r vals))
            end
          done
        done
    | (s, e) :: rest ->
      for i = 0 to e - 1 do
        vals.(s) <- i;
        iterate rest
      done
  in
  iterate loops;
  cache

(* Measured L1 hit rate of one reference over a block's execution. *)
let block_hit_rate ?(ways = 8) arch k reference =
  Cache.hit_rate (replay_block ways arch k reference)

(* Bytes one block actually moves past the L1 for this reference. *)
let block_miss_bytes ?(ways = 8) arch k reference =
  Cache.miss_bytes (replay_block ways arch k reference)
