(* What the untraced and the traced run share: the command line, the timed
   loop over a workload's ops, the per-op rows, the winners digest and the
   JSON result line.

   Each workload is one client on one domain in a closed loop. It runs a
   fixed list of ops generated from --seed to completion; it is never
   time-boxed, so every count repeats exactly. --seconds only sets how
   many ops the list holds, from a nominal rate. *)

let now = Unix.gettimeofday

type run = {
  attempted : int;
  failed : int;
  results : (Workload.outcome * float) list;  (** completed ops and their latencies, in op order *)
  wall : float;  (** of the timed phase *)
}

(* [op i] performs the [i]th op and returns the check of its result. A
   failed op - an exception, a failed check - is counted, not raised. *)
let run_ops ~attempted (op : int -> unit -> unit -> Workload.outcome) =
  let outcomes = Array.make attempted None and latencies = Float.Array.make attempted 0.0 in
  let failed = ref 0 in
  let t_start = now () in
  for i = 0 to attempted - 1 do
    let op = op i in
    let report e =
      incr failed;
      Printf.eprintf "op %d failed: %s\n%!" i
        (match e with Workload.Check_failed m -> m | e -> Printexc.to_string e)
    in
    let t0 = now () in
    match op () with
    | check -> (
      Float.Array.set latencies i (now () -. t0);
      match check () with o -> outcomes.(i) <- Some o | exception e -> report e)
    | exception e -> report e
  done;
  let wall = now () -. t_start in
  let results =
    List.filter_map
      (fun i -> Option.map (fun o -> (o, Float.Array.get latencies i)) outcomes.(i))
      (List.init attempted Fun.id)
  in
  { attempted; failed = !failed; results; wall }

(* Per-op rows, for runs short enough to read, and the winners digest:
   every op's problem, GPU, variant ids and point keys, in op order. *)
let report ~workload ~seed (r : run) =
  if List.length r.results <= 64 then
    List.iteri
      (fun i ((o : Workload.outcome), latency) ->
        Printf.printf "op %2d  %-24s %9.4f s  %9.3f GFLOP/s (modeled)  %s\n" i
          (o.problem ^ "@" ^ o.gpu) latency o.gflops
          (if o.validated then "validated" else "not validated"))
      r.results;
  let digest =
    List.fold_left
      (fun d ((o : Workload.outcome), _) ->
        Digest.string (String.concat " " [ d; o.problem; o.gpu; o.winner ]))
      "" r.results
  in
  Printf.printf "workload %s  seed %d  ops %d  failed %d  winners digest %s\n" workload seed
    r.attempted r.failed (Digest.to_hex digest)

let print_json (r : run) metrics =
  let metric (name, value, unit) =
    let value = if Float.is_finite value then value else 0.0 in
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (r.failed = 0) r.attempted r.failed
    (String.concat ", " (List.map metric metrics))

(* Parses --workload, --seed and --seconds, and calls [f] with the
   workload's maker. *)
let main ~exe f =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 in
  let usage =
    Printf.sprintf "%s --workload (%s) --seed N --seconds S" exe
      (String.concat "|" (List.map fst Workload.all))
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " workload name");
      ("--seed", Arg.Set_int seed, " workload seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, " nominal run length");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match List.assoc_opt !workload Workload.all with
  | Some make when !seed >= 0 && !seconds >= 1 ->
    let make () = make ~rand:(Random.State.make [| !seed |]) ~seconds:(float_of_int !seconds) in
    f ~workload:!workload ~seed:!seed ~make
  | _ ->
    prerr_endline usage;
    exit 2
