(* SURF - search using random forest (Algorithm 2) - plus the baseline
   strategies it is compared against.

   The search minimizes an objective (simulated execution time) over a
   finite configuration pool:
   1. sample and evaluate an initial batch,
   2. fit the forest surrogate on (features, objective) pairs,
   3. repeatedly evaluate the [batch_size] unevaluated pool positions the
      model predicts best, refit, until [max_evals].

   Each position is encoded once, at the first refit, and kept sparse.
   Each refit ranks only the [batch_size + rivals] positions that can
   still win: once that many are held, a position's trees are summed only
   until an exact lower bound on its prediction rules it out. *)

type 'a evaluation = { config : 'a; objective : float }

(* Surrogate explainability, built from the *final* refit of the search:
   what the model learned (per-column split-gain importance), how well it
   predicted what it proposed (residuals over every model-guided
   evaluation), and what it pruned (the best-predicted configurations the
   budget never reached). *)
type 'a explain = {
  importance : float array;  (* per encoded feature column, sums to 1 *)
  residuals : ('a * float * float) list;  (* config, predicted, measured *)
  rivals : ('a * float * float) list;
      (* unevaluated configs the final model ranked best:
         config, predicted objective, ensemble std *)
}

type 'a result = {
  best : 'a evaluation;
  history : 'a evaluation list;  (* in evaluation order *)
  evaluations : int;
  pool_size : int;
  iterations : Obs.Search_log.iteration list;  (* per-batch telemetry *)
  explain : 'a explain option;  (* None until a surrogate was ever fit *)
}

type config = {
  batch_size : int;
  max_evals : int;
  rivals : int;  (* rejected rivals kept on [explain] *)
  forest : Forest.params;
}

let default_config =
  { batch_size = 10; max_evals = 100; rivals = 10; forest = Forest.default_params }

let best_of history =
  match history with
  | [] -> invalid_arg "Search: no evaluations"
  | e :: rest ->
    List.fold_left (fun acc e -> if e.objective < acc.objective then e else acc) e rest

let make_result ?(iterations = []) ?explain ~pool_size history =
  {
    best = best_of history;
    history = List.rev history;
    evaluations = List.length history;
    pool_size;
    iterations;
    explain;
  }

(* Exhaustive evaluation: the brute-force baseline of prior work [25]. *)
let exhaustive ~pool ~eval =
  let history =
    Array.to_list pool |> List.rev_map (fun c -> { config = c; objective = eval c })
  in
  make_result ~pool_size:(Array.length pool) history

(* Uniform random search without replacement. *)
let random_search rng ~pool ~eval ~max_evals =
  let n = min max_evals (Array.length pool) in
  let chosen = Util.Rng.sample_without_replacement rng n pool in
  let history =
    Array.to_list chosen |> List.rev_map (fun c -> { config = c; objective = eval c })
  in
  make_result ~pool_size:(Array.length pool) history

(* A pool position's encoded row, kept as its entries whose bits are not
   +0.0: scattering them over a zeroed row rebuilds the row bit for bit. *)
type row = { cols : int array; vals : float array }

(* Encode every pool position once, in position order. *)
let sparse_rows ~encode pool =
  let width = ref (-1) in
  let rows =
    Array.map
      (fun c ->
        let dense = encode c in
        if !width < 0 then width := Array.length dense
        else if Array.length dense <> !width then
          invalid_arg "Search.surf: encoded rows differ in width";
        let nz = ref [] in
        for j = Array.length dense - 1 downto 0 do
          if Int64.bits_of_float dense.(j) <> 0L then nz := j :: !nz
        done;
        let cols = Array.of_list !nz in
        { cols; vals = Array.map (fun j -> dense.(j)) cols })
      pool
  in
  (!width, rows)

(* A sparse row scattered over a zeroed dense row, and cleared again. *)
let scatter x { cols; vals } =
  for j = 0 to Array.length cols - 1 do
    x.(cols.(j)) <- vals.(j)
  done

let clear x { cols; _ } = Array.iter (fun c -> x.(c) <- 0.0) cols

(* The [k] unevaluated positions the model predicts lowest, as (position,
   prediction) in order of (prediction, position) under [Float.compare]:
   exactly the first [k] of a stable sort of every unevaluated prediction,
   ties and NaN included. One pass over the pool keeps the best so far in a
   small sorted buffer, scattering each row into [scratch]. Once the buffer
   holds [k], a position is summed only while it can still beat the last
   one held ({!Forest.predict_below}); a position that ties the last goes
   after it, so a bound that reaches the last rules the position out. *)
let rank model ~k ~evaluated ~rows ~scratch =
  let pos = Array.make k 0 and score = Array.make k 0.0 and m = ref 0 in
  for p = 0 to Array.length rows - 1 do
    if not evaluated.(p) then begin
      scatter scratch rows.(p);
      let s =
        if !m < k then Forest.predict model scratch
        else Forest.predict_below model scratch ~cutoff:score.(k - 1)
      in
      clear scratch rows.(p);
      if !m < k || Float.compare s score.(k - 1) < 0 then begin
        let i = ref (min !m (k - 1)) in
        while !i > 0 && Float.compare score.(!i - 1) s > 0 do
          pos.(!i) <- pos.(!i - 1);
          score.(!i) <- score.(!i - 1);
          decr i
        done;
        pos.(!i) <- p;
        score.(!i) <- s;
        if !m < k then incr m
      end
    end
  done;
  List.init !m (fun i -> (pos.(i), score.(i)))

(* SURF, Algorithm 2, over pool positions. [encode] maps a configuration to
   its binarized feature vector; the search calls it once per position, at
   the first refit, and keeps the rows sparse.

   [eval_batch] evaluates one iteration's batch as a unit - the paper runs
   "up to ten evaluations concurrently" - and defaults to the sequential
   [List.map eval]. A parallel evaluator must return the objectives in
   input order; the search itself stays deterministic either way because
   batch membership never depends on how the batch is executed. *)
let surf ?(config = default_config) ?eval_batch rng ~pool ~encode ~eval =
  let pool_size = Array.length pool in
  if pool_size = 0 then invalid_arg "Search.surf: empty pool";
  let eval_batch = match eval_batch with Some f -> f | None -> List.map eval in
  let nmax = min config.max_evals pool_size in
  let bs = max 1 (min config.batch_size nmax) in
  Obs.Trace.with_span ~cat:"surf"
    ~attrs:(fun () ->
      [
        ("pool_size", string_of_int pool_size);
        ("max_evals", string_of_int nmax);
        ("batch_size", string_of_int bs);
      ])
    "surf.search"
  @@ fun search_span ->
  let evaluated = Array.make pool_size false in
  let positions = ref [] in  (* evaluated positions, newest first *)
  let history = ref [] in
  let evaluations = ref 0 in
  let iterations = ref [] in
  let iter_no = ref 0 in
  (* Hard budget clamp: however a batch was proposed, never evaluate past
     [nmax], so [batch_size] exceeding the remaining budget cannot
     overshoot [max_evals]. Returns the objectives actually evaluated. *)
  let evaluate batch =
    let batch = List.filteri (fun i _ -> i < nmax - !evaluations) batch in
    let objectives = eval_batch (List.map (fun p -> pool.(p)) batch) in
    List.iter2
      (fun p objective ->
        evaluated.(p) <- true;
        incr evaluations;
        positions := p :: !positions;
        history := { config = pool.(p); objective } :: !history)
      batch objectives;
    objectives
  in
  (* Convergence telemetry: one record per batch. [predicted], when given,
     is the surrogate's prediction for each evaluated configuration, in
     batch order; its agreement with the measured objectives
     (Util.Stats.r_squared) is the logged surrogate quality. *)
  let log_iteration ?predicted ?pred_std span objectives =
    match objectives with
    | [] -> ()
    | _ ->
      let best_so_far =
        List.fold_left (fun acc e -> min acc e.objective) infinity !history
      in
      let r2 =
        Option.map
          (fun preds ->
            let preds = List.filteri (fun i _ -> i < List.length objectives) preds in
            Util.Stats.r_squared ~actual:objectives ~predicted:preds)
          predicted
      in
      let it =
        {
          Obs.Search_log.iter = !iter_no;
          batch = List.length objectives;
          evaluations = !evaluations;
          pool_size;
          best_so_far;
          batch_best = Util.Stats.min_list objectives;
          batch_mean = Util.Stats.mean objectives;
          r2;
          pred_std;
        }
      in
      iterations := it :: !iterations;
      incr iter_no;
      Obs.Trace.add_attrs span (Obs.Search_log.span_attrs it)
  in
  (* line 1-2: initial random batch *)
  Obs.Trace.with_span ~cat:"surf" "surf.iteration" (fun span ->
      let initial =
        Util.Rng.sample_without_replacement rng bs (Array.init pool_size Fun.id)
      in
      log_iteration span (evaluate (Array.to_list initial)));
  (* lines 5-12: iterative model-guided batches, one span per refit. The
     last fitted model and the (predicted, measured) pair of every
     model-guided evaluation feed the explainability report. *)
  let explain =
    if !evaluations >= nmax then None
    else begin
      let width, rows =
        Obs.Trace.with_span ~cat:"surf"
          ~attrs:(fun () -> [ ("points", string_of_int pool_size) ])
          "surf.encode"
          (fun _ -> sparse_rows ~encode pool)
      in
      let dense p =
        let x = Array.make width 0.0 in
        scatter x rows.(p);
        x
      in
      let scratch = Array.make width 0.0 in
      let std model p =
        scatter scratch rows.(p);
        let v = Forest.predict_std model scratch in
        clear scratch rows.(p);
        v
      in
      (* Each refit ranks the [bs + rivals] best unevaluated positions: the
         batch is the first [bs] of them, and the final refit's rivals are
         the first [rivals] its batch left unevaluated. *)
      let k = bs + max 0 config.rivals in
      let final = ref None in
      let residuals = ref [] in
      while !evaluations < nmax do
        Obs.Trace.with_span ~cat:"surf" "surf.iteration" (fun span ->
            let x = Array.of_list (List.rev_map dense !positions) in
            let y = Array.of_list (List.rev_map (fun e -> e.objective) !history) in
            let model =
              Obs.Trace.with_span ~cat:"surf"
                ~attrs:(fun () ->
                  [ ("points", string_of_int (Array.length x)) ])
                "surf.fit"
                (fun _ -> Forest.fit ~params:config.forest (Util.Rng.split rng) x y)
            in
            let ranked =
              Obs.Trace.with_span ~cat:"surf"
                ~attrs:(fun () ->
                  [ ("points", string_of_int (pool_size - !evaluations)) ])
                "surf.predict"
                (fun _ -> rank model ~k ~evaluated ~rows ~scratch)
            in
            final := Some (model, ranked);
            let batch = List.filteri (fun i _ -> i < bs) ranked in
            let objectives = evaluate (List.map fst batch) in
            let n = List.length objectives in
            let evaluated_batch = List.filteri (fun i _ -> i < n) batch in
            List.iter2
              (fun (p, pred) o -> residuals := (pool.(p), pred, o) :: !residuals)
              evaluated_batch objectives;
            let pred_std =
              match evaluated_batch with
              | [] -> None
              | _ ->
                Some (Util.Stats.mean (List.map (fun (p, _) -> std model p) evaluated_batch))
            in
            log_iteration ~predicted:(List.map snd batch) ?pred_std span objectives)
      done;
      Option.map
        (fun (model, ranked) ->
          let rivals =
            List.filter (fun (p, _) -> not evaluated.(p)) ranked
            |> List.filteri (fun i _ -> i < config.rivals)
            |> List.map (fun (p, pred) -> (pool.(p), pred, std model p))
          in
          { importance = Forest.importance model ~dims:width;
            residuals = List.rev !residuals;
            rivals })
        !final
    end
  in
  let result = make_result ~iterations:(List.rev !iterations) ?explain ~pool_size !history in
  Obs.Trace.add_attrs search_span
    [
      ("evaluations", string_of_int result.evaluations);
      ("best", Printf.sprintf "%.6g" result.best.objective);
    ];
  result

(* Best objective after each evaluation; used to compare convergence of
   search strategies. *)
let convergence_curve result =
  let rec go best acc = function
    | [] -> List.rev acc
    | e :: rest ->
      let best = min best e.objective in
      go best (best :: acc) rest
  in
  go infinity [] result.history
