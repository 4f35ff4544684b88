(* The benchmark's two workloads, built from the workload seed.

   Every op goes through the program's top-level entry points only:
   Autotune.Tuner.tune and emit_cuda, Service.Engine.create and batch, the
   Benchsuite problems, and Service.Canonical.relabel for the client
   spellings. A change to a layer's internals therefore cannot break the
   untraced run (bench.ml); the traced run (traced.ml) wraps these same
   ops in its mirror of those internals. *)

(* The paper's budget (Section V): SURF with 100 evaluations in batches of
   10, 600 candidates per variant, 100 timed repetitions. *)
let budget = Surf.Search.default_config
let pool_per_variant = 600
let reps = 100

(* Every tune, offline or in an engine, starts from this fixed seed: the
   SURF winner's modeled speed varies up to 30x between tuner seeds (tce_ex
   on 9000-candidate pools; 25 vs 46 GFLOP/s for d1/d2 kernels on the K20),
   which would bury a changed winner in seed noise. Which problems a run
   tunes, and in what order, is fixed too: the peak heap depends on the
   order. The workload seed drives what the client sends: the spellings. *)
let tuner_seed = 42

(* Nominal ops per second on a 2-vCPU VM with a busy host (up to about
   twice as many when the host is quiet): a run's op list holds about
   --seconds worth of ops there, in whole passes over the workload's
   problems. *)
let offline_rate = 0.3
let cold_rate = 0.65

type outcome = {
  problem : string;  (** Table II problem or NWChem kernel *)
  family : string;
      (** what per-problem statistics group by: the Table II problem, or
          the NWChem kernel's family (s1, d1, d2) *)
  gpu : string;
  winner : string;  (** variant ids and point keys *)
  gflops : float;  (** modeled by lib/gpusim *)
  validated : bool;  (** proven equivalent by Check.Semantic *)
}

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

let winner_of ids points =
  String.concat "." (List.map string_of_int ids)
  ^ "/" ^ String.concat "|" (List.map Tcr.Space.point_key points)

let proven = function
  | Some (v : Check.Semantic.verdict) when not v.equivalent ->
    fail "winner failed translation validation at the %s stage"
      (Option.value ~default:"?" v.failed_stage)
  | Some _ -> true
  | None -> false

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let rec take n = function x :: rest when n > 0 -> x :: take (n - 1) rest | _ -> []

let ops_for seconds rate = max 1 (Float.to_int (Float.round (seconds *. rate)))

(* One engine per GPU of the fleet. *)
type server = {
  arch : Gpusim.Arch.t;
  config : Service.Engine.config;
  engine : Service.Engine.t;
}

type job =
  | Tune of { problem : string; bench : Autotune.Tuner.benchmark; arch : Gpusim.Arch.t }
      (** one [Tuner.tune] plus one [Tuner.emit_cuda] *)
  | Serve of {
      server : server;
      req : Service.Engine.request;
      check : Service.Engine.response -> outcome;
    }  (** one single-request [Engine.batch] *)

type t = {
  ops : int;
  job : int -> job;  (** the [i]th op *)
}

let tune ~bench ~arch =
  let r =
    Autotune.Tuner.tune ~strategy:(Autotune.Tuner.Surf_search budget) ~pool_per_variant ~reps
      ~rng:(Util.Rng.create tuner_seed) ~arch bench
  in
  (r, Autotune.Tuner.emit_cuda r)

let tune_outcome ~problem ~(arch : Gpusim.Arch.t) ((r : Autotune.Tuner.result), cuda) =
  if not (contains cuda "__global__") then
    fail "%s@%s: emitted CUDA has no kernel" problem arch.name;
  {
    problem;
    family = problem;
    gpu = arch.name;
    winner = winner_of r.best.variant_ids r.best.points;
    gflops = r.gflops;
    validated = proven r.semantic;
  }

let serve (s : server) (req : Service.Engine.request) =
  match Service.Engine.batch s.engine [ req ] with
  | [ r ] -> r
  | rs -> fail "one request answered with %d responses" (List.length rs)

(* The untraced op: performs the job and returns the check of its result,
   so the check stays outside the op's latency. *)
let perform = function
  | Tune { problem; bench; arch } ->
    let u = tune ~bench ~arch in
    fun () -> tune_outcome ~problem ~arch u
  | Serve { server; req; check } ->
    let r = serve server req in
    fun () -> check r

(* ------------------------------------------------------------------ *)
(* offline-paper: the four Table II problems at paper sizes, tuned and
   emitted to CUDA on the paper's three GPUs. *)

let paper_gpus = Gpusim.Arch.[ gtx980; k20; c2050 ]

let offline_paper ~rand:_ ~seconds =
  let problems =
    Benchsuite.Suite.
      [
        ("eqn1", eqn1 ~n:10 ());
        ("lg3", lg3 ~p:12 ~elems:512 ());
        ("lg3t", lg3t ~p:12 ~elems:512 ());
        ("tce_ex", tce_ex ~n:16 ());
      ]
  in
  (* GPU-major: a problem's ops lie about a third of a run apart, so its
     per-problem statistics do not all come from one stretch of the VM's
     speed *)
  let pairs =
    List.concat_map
      (fun arch -> List.map (fun (problem, bench) -> Tune { problem; bench; arch }) problems)
      paper_gpus
  in
  let passes = ops_for seconds (offline_rate /. float_of_int (List.length pairs)) in
  let jobs = Array.of_list (List.concat (List.init passes (fun _ -> pairs))) in
  { ops = Array.length jobs; job = Array.get jobs }

(* ------------------------------------------------------------------ *)
(* serve-cold: one engine per Figure 3 GPU, fed NWChem CCSD(T) triples
   kernels under client spellings of their own. *)

let fleet = Gpusim.Arch.[ c2050; k20 ]

let make_fleet () =
  List.map
    (fun arch ->
      let config =
        {
          Service.Engine.default_config with
          arch;
          domains = 1;
          seed = tuner_seed;
          max_evals = budget.max_evals;
          batch_size = budget.batch_size;
          pool_per_variant;
          reps;
          cache_dir = None;
        }
      in
      { arch; config; engine = Service.Engine.create ~config () })
    fleet

(* A client's own spelling of a kernel: every index and tensor renamed
   under a seeded prefix (the canonical key must not change). *)
let respell rand ~tag dsl =
  let prefix = Printf.sprintf "%s%d" tag (Random.State.int rand 1000) in
  Octopi.Parse.program dsl
  |> Service.Canonical.relabel ~index:(( ^ ) prefix) ~tensor:(( ^ ) (String.uppercase_ascii prefix))
  |> Octopi.Ast.to_string

(* serve-cold: kernels at trip count 8, walked round-robin over the s1, d1
   and d2 families; each is sent to both engines back to back under two
   seeded spellings, so every op is a new key. *)
let serve_cold ~rand ~seconds =
  let servers = make_fleet () in
  let round_robin =
    List.concat
      (List.init 9 (fun i -> List.map (fun fam -> (fam, i + 1)) Benchsuite.Nwchem.families))
  in
  (* a pass is one kernel per family on both engines: 6 ops *)
  let kernels = take (3 * ops_for seconds (cold_rate /. 6.0)) round_robin in
  let seen = Hashtbl.create 64 in
  let jobs =
    List.concat_map
      (fun (fam, index) ->
        let label = Benchsuite.Nwchem.kernel_label fam index in
        let dsl = Benchsuite.Nwchem.dsl fam ~index ~n:8 in
        List.mapi
          (fun i (server : server) ->
            let src = respell rand ~tag:(if i = 0 then "a" else "b") dsl in
            let check (r : Service.Engine.response) =
              if r.served <> Service.Engine.Tuned then
                fail "%s@%s: served %s, expected tuned" label server.arch.name
                  (Service.Engine.served_name r.served);
              if Hashtbl.mem seen r.key then fail "%s: key %s was served before" label r.key;
              Hashtbl.add seen r.key ();
              {
                problem = label;
                family = Benchsuite.Nwchem.family_name fam;
                gpu = server.arch.name;
                winner = winner_of r.result.best.variant_ids r.result.best.points;
                gflops = r.result.gflops;
                validated = proven r.result.semantic;
              }
            in
            Serve { server; req = { label; src }; check })
          servers)
      kernels
  in
  let jobs = Array.of_list jobs in
  { ops = Array.length jobs; job = Array.get jobs }

let all = [ ("offline-paper", offline_paper); ("serve-cold", serve_cold) ]
