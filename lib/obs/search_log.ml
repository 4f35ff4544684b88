(* SURF convergence telemetry: one record per search iteration (iteration 0
   is the initial random batch, the rest are model-guided refits), carrying
   the best-so-far objective, pool coverage and the surrogate's predictive
   quality on the batch it proposed - the data needed to see *how* a search
   converged, not just where it ended. *)

type iteration = {
  iter : int;  (* 0 = initial random batch *)
  batch : int;  (* configurations evaluated this iteration *)
  evaluations : int;  (* cumulative, after this iteration *)
  pool_size : int;
  best_so_far : float;
  batch_best : float;
  batch_mean : float;
  r2 : float option;  (* forest predictions vs measured; None for iter 0 *)
  pred_std : float option;
      (* mean ensemble std over the proposed batch - surrogate confidence
         at proposal time; None for the initial random batch *)
}

let coverage it =
  if it.pool_size = 0 then 0.0
  else float_of_int it.evaluations /. float_of_int it.pool_size

(* The logged best-so-far sequence must never increase: each iteration's
   best is the minimum over all evaluations so far. *)
let monotone iterations =
  let rec go prev = function
    | [] -> true
    | it :: rest -> it.best_so_far <= prev && go it.best_so_far rest
  in
  go infinity iterations

let render ~label iterations =
  let b = Buffer.create 512 in
  Buffer.add_string b (Printf.sprintf "convergence: %s\n" label);
  Buffer.add_string b
    (Printf.sprintf "%-5s %6s %6s %9s %12s %12s %12s %7s %10s\n" "iter" "batch" "evals"
       "coverage" "batch-best" "batch-mean" "best-so-far" "R2" "pred-std");
  List.iter
    (fun it ->
      Buffer.add_string b
        (Printf.sprintf "%-5d %6d %6d %8.1f%% %12.4g %12.4g %12.4g %7s %10s\n" it.iter
           it.batch it.evaluations
           (100.0 *. coverage it)
           it.batch_best it.batch_mean it.best_so_far
           (match it.r2 with None -> "-" | Some r -> Printf.sprintf "%.3f" r)
           (match it.pred_std with None -> "-" | Some s -> Printf.sprintf "%.3g" s)))
    iterations;
  (match iterations with
  | [] -> Buffer.add_string b "  (no iterations logged)\n"
  | _ ->
    let last = List.nth iterations (List.length iterations - 1) in
    Buffer.add_string b
      (Printf.sprintf "final: best %.4g after %d/%d evaluations (%.1f%% of pool)\n"
         last.best_so_far last.evaluations last.pool_size (100.0 *. coverage last)));
  Buffer.contents b

(* Span attributes for one iteration, attached by Surf.Search to its
   per-iteration trace span. *)
let span_attrs it =
  [
    ("iter", string_of_int it.iter);
    ("batch", string_of_int it.batch);
    ("evaluations", string_of_int it.evaluations);
    ("coverage", Printf.sprintf "%.4f" (coverage it));
    ("best_so_far", Printf.sprintf "%.6g" it.best_so_far);
    ("batch_best", Printf.sprintf "%.6g" it.batch_best);
  ]
  @ (match it.r2 with None -> [] | Some r -> [ ("r2", Printf.sprintf "%.4f" r) ])
  @ match it.pred_std with None -> [] | Some s -> [ ("pred_std", Printf.sprintf "%.6g" s) ]
