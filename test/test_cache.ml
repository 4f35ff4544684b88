(* Tests for the LRU cache simulator and the trace-driven cross-check of
   the analytic memory model. *)

let check_int = Alcotest.(check int)
let arch = Gpusim.Arch.gtx980

(* ---------------- Cache mechanics ---------------- *)

let small_cache () = Gpusim.Cache.create ~bytes:1024 ~line_bytes:128 ~ways:2

let test_cache_cold_miss () =
  let c = small_cache () in
  Alcotest.(check bool) "first access misses" false (Gpusim.Cache.access c 0);
  Alcotest.(check bool) "second access hits" true (Gpusim.Cache.access c 64)

let test_cache_line_granularity () =
  let c = small_cache () in
  ignore (Gpusim.Cache.access c 0);
  Alcotest.(check bool) "same line hits" true (Gpusim.Cache.access c 127);
  Alcotest.(check bool) "next line misses" false (Gpusim.Cache.access c 128)

let test_cache_lru_eviction () =
  (* 1024 B / 128 B lines / 2 ways = 4 sets; addresses 0, 512, 1024 all map
     to set 0: the third evicts the least recently used (0) *)
  let c = small_cache () in
  ignore (Gpusim.Cache.access c 0);
  ignore (Gpusim.Cache.access c 512);
  ignore (Gpusim.Cache.access c 1024);
  Alcotest.(check bool) "0 evicted" false (Gpusim.Cache.access c 0);
  Alcotest.(check bool) "1024 resident" true (Gpusim.Cache.access c 1024)

let test_cache_lru_order_updates () =
  let c = small_cache () in
  ignore (Gpusim.Cache.access c 0);
  ignore (Gpusim.Cache.access c 512);
  ignore (Gpusim.Cache.access c 0);  (* touch 0: now 512 is LRU *)
  ignore (Gpusim.Cache.access c 1024);  (* evicts 512 *)
  Alcotest.(check bool) "0 survived" true (Gpusim.Cache.access c 0);
  Alcotest.(check bool) "512 evicted" false (Gpusim.Cache.access c 512)

let test_cache_stats () =
  let c = small_cache () in
  ignore (Gpusim.Cache.access c 0);
  ignore (Gpusim.Cache.access c 0);
  ignore (Gpusim.Cache.access c 256);
  check_int "accesses" 3 (Gpusim.Cache.accesses c);
  Alcotest.(check (float 1e-9)) "hit rate 1/3" (1.0 /. 3.0) (Gpusim.Cache.hit_rate c);
  check_int "miss bytes" 256 (Gpusim.Cache.miss_bytes c);
  Gpusim.Cache.reset c;
  check_int "reset" 0 (Gpusim.Cache.accesses c)

let test_cache_bad_geometry () =
  Alcotest.(check bool) "rejects zero ways" true
    (try
       ignore (Gpusim.Cache.create ~bytes:1024 ~line_bytes:128 ~ways:0);
       false
     with Invalid_argument _ -> true)

(* ---------------- Trace cross-check ---------------- *)

let kernel_of src ~tx ~ty ~bx =
  let set = match Octopi.Variants.of_string src with [ s ] -> s | _ -> assert false in
  let ir = Tcr.Ir.of_variant ~label:"t" set.contraction (List.hd set.variants) in
  let point =
    { Tcr.Space.decomp = { tx; ty; bx; by = None }; unrolls = []; red_order = [] }
  in
  (ir, Codegen.Kernel.lower ~name:"t" ir (List.hd ir.ops) point)

let test_trace_resident_ref_reuses () =
  (* B(k,j) with j = tx, i = bx: one block touches all of B (32x32 doubles
     = 8 KiB, fits L1) across 32 reloads: simulated hit rate must be high,
     matching the analytic L1_resident class *)
  let _, k = kernel_of "dims: i=32 j=32 k=32\nC[i j] = Sum([k], A[i k] * B[k j])" ~tx:"j" ~ty:None ~bx:"i" in
  let rate = Gpusim.Simtrace.block_hit_rate arch k ("B", [ "k"; "j" ]) in
  Alcotest.(check bool) "resident ref reuses" true (rate > 0.9);
  let r = Gpusim.Perf.analyze_kernel arch k in
  let b_ref = List.nth r.refs 1 in
  Alcotest.(check bool) "analytic model agrees" true
    (b_ref.memory_class = Gpusim.Perf.L1_resident)

let test_trace_streamed_output_no_reuse () =
  (* the output C is touched once per element: no reuse beyond the line *)
  let _, k = kernel_of "dims: i=32 j=32 k=32\nC[i j] = Sum([k], A[i k] * B[k j])" ~tx:"j" ~ty:None ~bx:"i" in
  let rate = Gpusim.Simtrace.block_hit_rate arch k ("C", [ "i"; "j" ]) in
  (* 16 doubles per 128-byte line: spatial hits only, 15/16 within a line *)
  Alcotest.(check bool) "no temporal reuse" true (rate <= 0.95)

let test_trace_miss_bytes_close_to_footprint () =
  (* for a resident reference, miss bytes = compulsory = footprint *)
  let _, k = kernel_of "dims: i=32 j=32 k=32\nC[i j] = Sum([k], A[i k] * B[k j])" ~tx:"j" ~ty:None ~bx:"i" in
  let a = Codegen.Kernel.access k in
  let b = List.nth a.factors 1 in
  Alcotest.(check (list string)) "B's dims" [ "k"; "j" ] b.dims;
  let analytic = Gpusim.Coalesce.footprint_per_block k a b in
  let simulated = Gpusim.Simtrace.block_miss_bytes arch k ("B", [ "k"; "j" ]) in
  Alcotest.(check bool) "within a line-rounding factor" true
    (float_of_int simulated <= 1.25 *. float_of_int analytic
    && float_of_int simulated >= float_of_int analytic /. 1.25)

let test_trace_thrashing_when_oversized () =
  (* a reference whose block footprint exceeds L1 must show misses on
     re-traversal: B(k,j) at 128x128 = 128 KiB > 48 KiB L1 *)
  let _, k = kernel_of "dims: i=128 j=128 k=128\nC[i j] = Sum([k], A[i k] * B[k j])" ~tx:"j" ~ty:None ~bx:"i" in
  let rate = Gpusim.Simtrace.block_hit_rate arch k ("B", [ "k"; "j" ]) in
  (* spatial locality still gives ~15/16; temporal reuse must be gone *)
  Alcotest.(check bool) "bounded by spatial-only rate" true (rate < 0.97);
  let r = Gpusim.Perf.analyze_kernel arch k in
  let b_ref = List.nth r.refs 1 in
  Alcotest.(check bool) "analytic model agrees (not L1 resident)" true
    (b_ref.memory_class <> Gpusim.Perf.L1_resident)

let test_trace_address_function () =
  let _, k = kernel_of "dims: i=8 j=8 k=8\nC[i j] = Sum([k], A[i k] * B[k j])" ~tx:"j" ~ty:None ~bx:"i" in
  (* B(k,j): addr = 8 * (k*8 + j) with bx-fixed i *)
  let a = Codegen.Kernel.access k in
  let vals = Array.make (Array.length a.slots) 0 in
  vals.(Codegen.Kernel.slot a "j") <- 5;
  vals.(Codegen.Kernel.slot a "k") <- 3;
  check_int "b address" (8 * ((3 * 8) + 5)) (Gpusim.Simtrace.address (List.nth a.factors 1) vals)

let suite =
  [
    ("cache cold miss", `Quick, test_cache_cold_miss);
    ("cache line granularity", `Quick, test_cache_line_granularity);
    ("cache lru eviction", `Quick, test_cache_lru_eviction);
    ("cache lru order updates", `Quick, test_cache_lru_order_updates);
    ("cache stats", `Quick, test_cache_stats);
    ("cache bad geometry", `Quick, test_cache_bad_geometry);
    ("trace: resident ref reuses", `Quick, test_trace_resident_ref_reuses);
    ("trace: streamed output no reuse", `Quick, test_trace_streamed_output_no_reuse);
    ("trace: miss bytes near footprint", `Quick, test_trace_miss_bytes_close_to_footprint);
    ("trace: thrashing when oversized", `Quick, test_trace_thrashing_when_oversized);
    ("trace: address function", `Quick, test_trace_address_function);
  ]
