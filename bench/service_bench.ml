(* Throughput experiment for the tuning service: the same batch of NWChem
   CCSD(T) kernels served three ways.

   The batch deliberately contains equivalent requests under different
   index/tensor names - exactly what a long-lived service sees when many
   clients submit the same contraction with their own naming conventions:

     cold sequential   every request tuned from scratch, one after another
                       (the pre-service behavior of Barracuda.tune)
     service, cold     canonicalization deduplicates the batch, the unique
                       remainder is tuned across worker domains
     service, warm     an identical second batch: every request is a cache
                       hit (restore + one re-measurement, no search)

   Reported: wall time per path, speedups against the cold sequential
   baseline, and the service's hit/miss counters. *)

let arch = Gpusim.Arch.k20
let evals = 16
let n = 8
let domains = 4

(* Alpha-rename a program the way an unrelated client would write it. *)
let relabeled dsl =
  Octopi.Parse.program dsl
  |> Service.Canonical.relabel
       ~index:(fun i -> "q" ^ i)
       ~tensor:(fun t -> String.capitalize_ascii t ^ "x")
  |> Octopi.Ast.to_string

let requests () =
  let base =
    [
      ("s1_1", Benchsuite.Nwchem.dsl Benchsuite.Nwchem.S1 ~index:1 ~n);
      ("d1_1", Benchsuite.Nwchem.dsl Benchsuite.Nwchem.D1 ~index:1 ~n);
      ("d1_2", Benchsuite.Nwchem.dsl Benchsuite.Nwchem.D1 ~index:2 ~n);
      ("d2_1", Benchsuite.Nwchem.dsl Benchsuite.Nwchem.D2 ~index:1 ~n);
    ]
  in
  List.concat_map
    (fun (label, dsl) ->
      [
        { Service.Engine.label; src = dsl };
        { Service.Engine.label = label ^ "-alias"; src = relabeled dsl };
        { Service.Engine.label = label ^ "-alias2"; src = relabeled (relabeled dsl) };
      ])
    base

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* The pre-service baseline: every request is its own full tune. *)
let cold_sequential reqs =
  List.iter
    (fun (r : Service.Engine.request) ->
      let b = Autotune.Tuner.benchmark_of_dsl ~label:r.label r.src in
      let cfg = { Surf.Search.default_config with max_evals = evals } in
      ignore
        (Autotune.Tuner.tune
           ~strategy:(Autotune.Tuner.Surf_search cfg)
           ~rng:(Util.Rng.create 42) ~arch b))
    reqs

(* Per-timer latency quantiles of the service metrics, for the benchmark
   artifact: cache hits land in the microsecond buckets, cold tunes in the
   second buckets, so p50/p99 of request.wall summarize the mix. *)
let quantiles_of svc =
  List.map
    (fun ((name, s) : string * Obs.Sketch.summary) ->
      (name, { Obs.Bench_log.q50 = s.p50; q90 = s.p90; q99 = s.p99 }))
    (Service.Metrics.summaries (Service.Engine.metrics svc))

let table () =
  let reqs = requests () in
  let nreq = List.length reqs in
  let (), t_cold = wall (fun () -> cold_sequential reqs) in
  let config =
    { Service.Engine.default_config with arch; domains; max_evals = evals; seed = 42 }
  in
  let svc = Service.Engine.create ~config () in
  let first, t_service = wall (fun () -> Service.Engine.batch svc reqs) in
  let second, t_warm = wall (fun () -> Service.Engine.batch svc reqs) in
  let count served l =
    List.length (List.filter (fun (r : Service.Engine.response) -> r.served = served) l)
  in
  let s = Service.Engine.cache_stats svc in
  let row name requests tunes t =
    [ name; string_of_int requests; string_of_int tunes; Util.Table.cell_f ~digits:3 t;
      Util.Table.cell_f ~digits:1 (t_cold /. t) ^ "x" ]
  in
  let t =
    Util.Table.create
      ~title:
        (Printf.sprintf
           "Tuning service throughput (%d NWChem requests, %d unique, %d domains [%d effective], %s)"
           nreq
           (count Service.Engine.Tuned first + count Service.Engine.Memory_hit first
          + count Service.Engine.Disk_hit first)
           domains
           (Service.Engine.effective_domains svc)
           arch.Gpusim.Arch.name)
      [
        [ "path"; "requests"; "tunes"; "wall s"; "speedup" ];
        row "cold sequential (no service)" nreq nreq t_cold;
        row "service, cold batch" nreq (count Service.Engine.Tuned first) t_service;
        row "service, warm batch" nreq (count Service.Engine.Tuned second) t_warm;
      ]
  in
  let lines =
    [
      Printf.sprintf
        "first batch:  %d tuned, %d deduplicated; second batch: %d memory hits, %d deduplicated"
        (count Service.Engine.Tuned first)
        (count Service.Engine.Deduplicated first)
        (count Service.Engine.Memory_hit second)
        (count Service.Engine.Deduplicated second);
      Printf.sprintf "cache counters: hits %d, misses %d, stores %d, corrupt %d" s.hits
        s.misses s.stores s.corrupt;
      Printf.sprintf "criteria: service cold %.1fx (>= 2x), warm vs cold batch %.1fx (>= 10x)"
        (t_cold /. t_service) (t_service /. t_warm);
    ]
  in
  (t, lines, quantiles_of svc)

(* Print the experiment and return the service latency quantiles for the
   benchmark artifact. *)
let run () =
  let t, lines, quantiles = table () in
  Util.Table.print t;
  List.iter print_endline lines;
  print_newline ();
  quantiles
