(* Kernel roofline profiler: a global, disabled-by-default sink that
   accumulates one sample per kernel launch the autotuner evaluates
   (Autotune.Evaluator feeds it), plus pure aggregations over the samples:
   per-variant time buckets by roofline bound, top-N kernels by DRAM
   traffic, occupancy histograms and, per architecture, the divergence of
   the roofline from gpusim's simulated measurement. Both numbers are
   modeled: the measurement is the same roofline plus gpusim's +-3%
   structural-hash noise, so the divergence shows that noise, not a
   measured error.

   Obs cannot see Gpusim's types (codegen sits between them), so the
   sample is a flat mirror of the fields of Gpusim.Perf.kernel_report the
   reports care about; the adapter lives in the evaluator.

   Recording is off by default (one atomic load per call) and touches no
   RNG state, so enabling it cannot perturb a tuning run: results are
   bit-identical with profiling on or off. Samples from worker domains
   append under a mutex; all aggregations sort, so reports are
   deterministic for a given sample multiset. *)

type sample = {
  arch : string;
  variant : string;  (* IR label of the program being evaluated *)
  kernel : string;
  bound : string;  (* "dp" | "issue" | "memory" | "launch" *)
  t_dp : float;
  t_issue : float;
  t_mem : float;
  t_launch : float;
  model_s : float;  (* noise-free roofline time *)
  measured_s : float;  (* simulated measurement (model + codegen noise) *)
  dram_bytes : float;
  l2_bytes : float;
  occupancy : float;
}

let on = Atomic.make false
let lock = Mutex.create ()
let sink : sample list ref = ref []

let enabled () = Atomic.get on

let clear () =
  Mutex.protect lock (fun () -> sink := [])

let start () =
  clear ();
  Atomic.set on true

let stop () = Atomic.set on false

let record s =
  if Atomic.get on then Mutex.protect lock (fun () -> sink := s :: !sink)

let samples () = Mutex.protect lock (fun () -> List.rev !sink)

let collect f =
  let was = enabled () in
  start ();
  Fun.protect
    ~finally:(fun () -> if not was then stop ())
    (fun () ->
      let r = f () in
      (r, samples ()))

(* ---------------- aggregations ---------------- *)

let bounds = [ "dp"; "issue"; "memory"; "launch" ]

type bucket = { bound : string; count : int; total_s : float }

let buckets_of ss =
  List.filter_map
    (fun bound ->
      let hits = List.filter (fun (s : sample) -> s.bound = bound) ss in
      match hits with
      | [] -> None
      | _ ->
        Some
          {
            bound;
            count = List.length hits;
            total_s = List.fold_left (fun acc (s : sample) -> acc +. s.measured_s) 0.0 hits;
          })
    bounds

let variant_buckets ss =
  let variants = List.sort_uniq compare (List.map (fun s -> s.variant) ss) in
  List.map (fun v -> (v, buckets_of (List.filter (fun s -> s.variant = v) ss))) variants

(* Top-N distinct kernels by total DRAM traffic across their evaluations. *)
type kernel_traffic = {
  k_kernel : string;
  k_variant : string;
  evals : int;
  total_dram_bytes : float;
  total_l2_bytes : float;
  mean_time_s : float;
}

let top_dram ~n ss =
  let keys = List.sort_uniq compare (List.map (fun s -> (s.variant, s.kernel)) ss) in
  let rows =
    List.map
      (fun (v, k) ->
        let hits = List.filter (fun s -> s.variant = v && s.kernel = k) ss in
        let evals = List.length hits in
        {
          k_kernel = k;
          k_variant = v;
          evals;
          total_dram_bytes = List.fold_left (fun acc s -> acc +. s.dram_bytes) 0.0 hits;
          total_l2_bytes = List.fold_left (fun acc s -> acc +. s.l2_bytes) 0.0 hits;
          mean_time_s =
            List.fold_left (fun acc s -> acc +. s.measured_s) 0.0 hits /. float_of_int evals;
        })
      keys
  in
  let sorted =
    List.sort
      (fun a b ->
        match compare b.total_dram_bytes a.total_dram_bytes with
        | 0 -> compare (a.k_variant, a.k_kernel) (b.k_variant, b.k_kernel)
        | c -> c)
      rows
  in
  List.filteri (fun i _ -> i < n) sorted

(* Histogram of occupancies in [0, 1], ten 0.1-wide bins. *)
let occupancy_histogram ss =
  let counts = Array.make 10 0 in
  List.iter
    (fun s ->
      let bin = min 9 (max 0 (int_of_float (s.occupancy *. 10.0))) in
      counts.(bin) <- counts.(bin) + 1)
    ss;
  List.init 10 (fun i ->
      (Printf.sprintf "%.1f-%.1f" (0.1 *. float_of_int i) (0.1 *. float_of_int (i + 1)), counts.(i)))

(* Roofline vs simulated measurement divergence, per architecture: the
   relative error |measured/model - 1| over every sample on that arch. *)
type divergence = { n : int; mean_rel : float; max_rel : float }

let divergence_by_arch ss =
  let archs = List.sort_uniq compare (List.map (fun s -> s.arch) ss) in
  List.map
    (fun a ->
      let rels =
        List.filter_map
          (fun s ->
            if s.arch = a && s.model_s > 0.0 then
              Some (abs_float ((s.measured_s /. s.model_s) -. 1.0))
            else None)
          ss
      in
      ( a,
        {
          n = List.length rels;
          mean_rel = Util.Stats.mean rels;
          max_rel = (match rels with [] -> nan | _ -> Util.Stats.max_list rels);
        } ))
    archs

(* ---------------- report ---------------- *)

let render ?(top = 10) ss =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "Kernel roofline profile: %d kernel evaluations, %d variants, %d arch(s)"
    (List.length ss)
    (List.length (List.sort_uniq compare (List.map (fun s -> s.variant) ss)))
    (List.length (List.sort_uniq compare (List.map (fun s -> s.arch) ss)));
  if ss <> [] then begin
    line "";
    line "Per-variant time by roofline bound:";
    List.iter
      (fun (v, bks) ->
        let total = List.fold_left (fun acc b -> acc +. b.total_s) 0.0 bks in
        line "  %s" v;
        List.iter
          (fun b ->
            line "    %-7s %5d evals  %10.3gs  (%4.1f%%)" b.bound b.count b.total_s
              (100.0 *. b.total_s /. total))
          bks)
      (variant_buckets ss);
    line "";
    line "Top %d kernels by DRAM traffic:" top;
    line "  %-28s %-14s %6s %12s %12s %12s" "kernel" "variant" "evals" "DRAM MB" "L2 MB"
      "mean time s";
    List.iter
      (fun t ->
        line "  %-28s %-14s %6d %12.2f %12.2f %12.3g" t.k_kernel t.k_variant t.evals
          (t.total_dram_bytes /. 1e6) (t.total_l2_bytes /. 1e6) t.mean_time_s)
      (top_dram ~n:top ss);
    line "";
    line "Occupancy histogram (fraction of peak resident warps):";
    List.iter
      (fun (label, count) ->
        if count > 0 then
          line "  %s %6d %s" label count (String.make (min 60 count) '#'))
      (occupancy_histogram ss);
    line "";
    line "Roofline vs simulated measurement (gpusim noise) divergence per arch:";
    List.iter
      (fun (a, d) ->
        line "  %-12s n=%-6d mean |rel| %.3f%%  max |rel| %.3f%%" a d.n
          (100.0 *. d.mean_rel) (100.0 *. d.max_rel))
      (divergence_by_arch ss)
  end;
  Buffer.contents buf
