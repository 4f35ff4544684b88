(* Replay-drift gate: re-run a journaled tune from its recorded inputs and
   compare what comes out.

   The whole pipeline is deterministic given the seed - parsing, variant
   enumeration, pool construction, SURF, and the simulated measurements -
   so a faithful replay reproduces the winning kernel hash exactly and a
   time ratio of 1. Drift means something in the toolchain changed the
   outcome for the same inputs: a codegen change (kernel hash differs with
   equal recipe hash), a search change (lineage diverges earlier), or a
   performance-model change (same kernel, different measured time). *)

type verdict = {
  recorded : Obs.Journal.entry;
  replayed : Obs.Journal.entry;
  kernel_match : bool;  (* winning variant's full lineage hash matches *)
  time_ratio : float;  (* replayed winner time / recorded winner time *)
  time_ok : bool;  (* ratio within the tolerance band *)
}

let ok v = v.kernel_match && v.time_ok

let ratio ~recorded ~replayed =
  if recorded = replayed then 1.0
  else if recorded = 0.0 then infinity
  else replayed /. recorded

(* Re-tune from the journal entry's own inputs: DSL source, seed, budget,
   pool size, reps. [prune], which the journal does not record, must be
   re-supplied when the original tune used it. The replay runs under
   {!Obs.Journal.collect}, so the caller's sink state is untouched. *)
let replay ?prune ?(time_tolerance = 0.05) ~arch (recorded : Obs.Journal.entry) =
  if recorded.seed < 0 then
    Error "entry was journaled without a seed and cannot be replayed"
  else if Gpusim.Arch.fingerprint arch <> recorded.arch then
    Error
      (Printf.sprintf
         "device identity drift: entry was tuned on %s, replaying on %s"
         recorded.arch
         (Gpusim.Arch.fingerprint arch))
  else begin
    let b = Tuner.benchmark_of_dsl ~label:recorded.label recorded.dsl in
    let cfg =
      {
        Surf.Search.default_config with
        max_evals = recorded.max_evals;
        batch_size = recorded.batch_size;
      }
    in
    let _, entries =
      Obs.Journal.collect (fun () ->
          Tuner.tune ~strategy:(Tuner.Surf_search cfg) ~reps:recorded.reps
            ~pool_per_variant:recorded.pool_per_variant ?prune
            ~journal_key:recorded.key ~journal_seed:recorded.seed
            ~rng:(Util.Rng.create recorded.seed) ~arch b)
    in
    match entries with
    | [ replayed ] ->
      let time_ratio =
        ratio ~recorded:recorded.winner.measured ~replayed:replayed.winner.measured
      in
      Ok
        {
          recorded;
          replayed;
          kernel_match =
            replayed.winner.lineage.kernel_hash
            = recorded.winner.lineage.kernel_hash;
          time_ratio;
          time_ok = abs_float (time_ratio -. 1.0) <= time_tolerance;
        }
    | es ->
      Error
        (Printf.sprintf "replay journaled %d entries instead of one"
           (List.length es))
  end

let render v =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "replay of %s (%s, seed %d)\n"
       (Obs.Journal.short v.recorded.run_id)
       v.recorded.label v.recorded.seed);
  (if v.kernel_match then
     Buffer.add_string b
       (Printf.sprintf "  winner kernel: match (%s)\n"
          (Obs.Journal.short v.recorded.winner.lineage.kernel_hash))
   else begin
     Buffer.add_string b "  winner kernel: DRIFT\n";
     Buffer.add_string b
       (Printf.sprintf "    recorded %s (%s)\n"
          (Obs.Journal.short v.recorded.winner.lineage.kernel_hash)
          v.recorded.winner.label);
     Buffer.add_string b
       (Printf.sprintf "    replayed %s (%s)\n"
          (Obs.Journal.short v.replayed.winner.lineage.kernel_hash)
          v.replayed.winner.label);
     match
       Obs.Journal.first_divergence v.recorded.winner.lineage v.replayed.winner.lineage
     with
     | Some stage ->
       Buffer.add_string b
         (Printf.sprintf "    lineage diverges at the %s stage\n" stage)
     | None -> ()
   end);
  Buffer.add_string b
    (Printf.sprintf "  winner time: recorded %.4e s, replayed %.4e s (ratio %.3f)%s\n"
       v.recorded.winner.measured v.replayed.winner.measured v.time_ratio
       (if v.time_ok then "" else "  DRIFT"));
  Buffer.add_string b
    (Printf.sprintf "  verdict: %s\n" (if ok v then "ok" else "DRIFT"));
  Buffer.contents b
