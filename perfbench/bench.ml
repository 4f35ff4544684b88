(* The untraced run: end-to-end metrics.

   bench.exe --workload NAME --seed N --seconds S

   It calls only the program's entry points (see workload.ml). Standard
   output ends with one JSON line holding every end-to-end metric. See
   README.md for why each workload exists and what each metric should
   move. *)

(* setup_s. Both workloads set up in well under a millisecond, and a
   set-up timed once, or in a burst, moves with the VM's fast and slow
   stretches, which last seconds. So set-up runs again in blocks of this
   many rounds, one block before every op, and setup_s is the median
   block's mean round: the blocks see the stretches the ops see. The
   blocks stay out of every op's latency and out of the timed phase's wall
   time. *)
let setup_rounds = function "offline-paper" -> 400 | _ -> 200

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = Float.to_int pos in
    if i >= n - 1 then sorted.(n - 1)
    else sorted.(i) +. ((pos -. float_of_int i) *. (sorted.(i + 1) -. sorted.(i)))

let sorted_array l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let geomean a = exp (Array.fold_left (fun acc x -> acc +. log x) 0.0 a /. float_of_int (Array.length a))

(* [stat] of each problem's values, geometric-meaned over problems: every
   problem weighs the same, however many ops it got. A serve-cold problem
   is a kernel family, so its median is taken over the whole run. *)
let per_problem (values : (Workload.outcome * float) list) stat =
  let by_problem = Hashtbl.create 64 in
  List.iter
    (fun ((o : Workload.outcome), x) ->
      Hashtbl.replace by_problem o.family
        (x :: Option.value ~default:[] (Hashtbl.find_opt by_problem o.family)))
    values;
  Hashtbl.fold (fun p xs acc -> (p, stat (sorted_array xs)) :: acc) by_problem []
  |> List.sort compare |> List.map snd |> Array.of_list |> geomean

let () =
  Harness.main ~exe:"bench.exe" @@ fun ~workload ~seed ~make ->
  let (w : Workload.t) = make () in
  let rounds = setup_rounds workload in
  let blocks = ref [] in
  let setup_block () =
    let t0 = Harness.now () in
    for _ = 1 to rounds do
      ignore (Sys.opaque_identity (make ()))
    done;
    blocks := (Harness.now () -. t0) :: !blocks
  in
  (* peak_heap_mb is the process's peak major heap, Gc's top_heap_words.
     Set-up's own peak is printed beside it: under 1 MB on both workloads,
     so the figure is the timed phase's. *)
  let top_heap_words () = (Gc.quick_stat ()).top_heap_words in
  let setup_peak = top_heap_words () in
  let r =
    Harness.run_ops ~attempted:w.ops (fun i ->
        setup_block ();
        let job = w.job i in
        fun () -> Workload.perform job)
  in
  let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6 in
  Harness.report ~workload ~seed r;
  Printf.printf "peak heap: set-up %.2f MB, whole run %.1f MB\n" (mb setup_peak)
    (mb (top_heap_words ()));
  let setup_s =
    percentile (sorted_array (List.map (fun b -> b /. float_of_int rounds) !blocks)) 0.5
  in
  let wall = r.wall -. List.fold_left ( +. ) 0.0 !blocks in
  let completed = List.length r.results in
  Harness.print_json r
    [
      ("setup_s", setup_s, "s");
      ("ops_per_s", float_of_int completed /. wall, "1/s");
      ("op_s_p50", per_problem r.results (fun a -> percentile a 0.5), "s");
      ("op_s_geomean", per_problem r.results geomean, "s");
      ( "kernel_gflops_model_geomean",
        per_problem (List.map (fun ((o : Workload.outcome), _) -> (o, o.gflops)) r.results) geomean,
        "GFLOP/s-model" );
      ( "validated_ratio",
        float_of_int
          (List.length (List.filter (fun ((o : Workload.outcome), _) -> o.validated) r.results))
        /. float_of_int r.attempted,
        "ratio" );
      ("peak_heap_mb", mb (top_heap_words ()), "MB");
    ]
