(** Replay-drift gate: re-run a journaled tune from its recorded inputs
    (DSL source, seed, budget, pool size, reps) and compare the winning
    variant's lineage hash and measured time. The pipeline is
    deterministic given the seed, so a faithful replay matches the kernel
    hash exactly with a time ratio of 1; anything else is toolchain
    drift. *)

type verdict = {
  recorded : Obs.Journal.entry;
  replayed : Obs.Journal.entry;
  kernel_match : bool;  (** winning variant's kernel lineage hash matches *)
  time_ratio : float;  (** replayed winner time / recorded winner time *)
  time_ok : bool;  (** ratio within the tolerance band *)
}

val ok : verdict -> bool

(** Re-tune and compare. [time_tolerance] (default 0.05) bounds
    [|ratio - 1|]. [prune] is not journaled and must be re-supplied when
    the original tune used it. [Error] on a seedless entry, a device
    identity (fingerprint) mismatch, or an unexpected journal shape; the
    caller's journal sink state is untouched either way. *)
val replay :
  ?prune:Tcr.Prune.policy ->
  ?time_tolerance:float ->
  arch:Gpusim.Arch.t ->
  Obs.Journal.entry ->
  (verdict, string) result

val render : verdict -> string
