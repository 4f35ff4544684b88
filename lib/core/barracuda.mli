(** Barracuda: the public facade over the full pipeline of the paper
    (Figure 1) - OCTOPI tensor DSL -> strength reduction -> TCR -> GPU
    decision algorithm -> SURF autotuning -> CUDA emission - together with
    the simulated devices it is evaluated on.

    Typical use:

    {[
      let result =
        Barracuda.tune ~arch:Barracuda.Arch.gtx980
          "V[i j k] = Sum([l m n], A[l k] * B[m j] * C[n i] * U[l m n])"
      in
      Format.printf "%a@." Barracuda.pp_summary (Barracuda.summarize result);
      print_string (Barracuda.cuda_of result)
    ]}

    Below, the twelve library modules that callers reach through the
    facade are re-exported: [Shape], [Einsum], [Tensor], [Contraction],
    [Space], [Orio], [Tcr], [Cuda], [Arch], [Openacc], [Tuner] and [Rng].
    The [module type of struct include ... end] idiom preserves type
    equalities with the underlying libraries, so facade values
    interoperate with direct library calls (e.g. [Benchsuite]). *)

type tuned = Autotune.Tuner.result

(** {1 One-call pipeline entry points} *)

(** Parse a DSL program (Figure 2(a) syntax) into a tunable benchmark. *)
val parse : ?label:string -> string -> Autotune.Tuner.benchmark

(** The OCTOPI strength-reduction variants of each statement. *)
val variants : string -> Octopi.Variants.t list

(** Run the full pipeline: OCTOPI variants, decision-algorithm search
    space, SURF search with [max_evals] evaluations (default 100, the
    paper's budget) on the simulated [arch] (default GTX 980).
    Deterministic for a fixed [seed]. *)
val tune :
  ?label:string -> ?seed:int -> ?max_evals:int -> ?arch:Gpusim.Arch.t -> string -> tuned

(** The tuned CUDA translation unit (kernels in the style of Figure 2(d)
    plus a host wrapper). *)
val cuda_of : tuned -> string

(** Sequential C / OpenMP / OpenACC renderings of the best variant. *)
val c_of : ?mode:Codegen.C_emit.mode -> tuned -> string

(** Execute the tuned program on named input tensors; returns the output
    tensors. Bit-exact what the emitted CUDA computes. *)
val run : tuned -> (string * Tensor.Dense.t) list -> (string * Tensor.Dense.t) list

(** Serialize the winning configuration (variant ids + Figure 2(c) recipe)
    to a small text artifact. *)
val save_tuning : tuned -> string

(** Reload an artifact produced by {!save_tuning}: returns the merged TCR
    program and per-kernel points, ready for {!Cuda.emit_program}. *)
val load_tuning :
  Autotune.Tuner.benchmark -> string -> Tcr.Ir.t * Tcr.Space.point list

(** Standalone CUDA driver (main + timing loop + CPU reference check). *)
val driver_of : ?reps:int -> tuned -> string

(** {1 Summaries} *)

type summary = {
  gflops : float;
  time_per_eval_s : float;
  speedup_vs_sequential : float;
  search_seconds : float;
  variant_count : int;
  space_size : int;
}

val summarize : tuned -> summary
val pp_summary : Format.formatter -> summary -> unit

(** {1 Pipeline stages} *)

module Shape : module type of struct include Tensor.Shape end
module Einsum : module type of struct include Tensor.Einsum end

(** Dense row-major tensors ({!Tensor.Dense}). *)
module Tensor : module type of struct include Tensor.Dense end

module Contraction : module type of struct include Octopi.Contraction end
module Space : module type of struct include Tcr.Space end

(** The Orio/CHiLL annotation layer of Figure 2(c) ({!Tcr.Orio}). *)
module Orio : module type of struct include Tcr.Orio end

(** The intermediate representation of Figure 2(b) ({!Tcr.Ir}). *)
module Tcr : module type of struct include Tcr.Ir end

module Cuda : module type of struct include Codegen.Cuda end
module Arch : module type of struct include Gpusim.Arch end
module Openacc : module type of struct include Cpusim.Openacc end
module Tuner : module type of struct include Autotune.Tuner end
module Rng : module type of struct include Util.Rng end
