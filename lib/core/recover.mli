(** Resumable collection and checkpointed streaming analysis.

    Both entry points rest on determinism already guaranteed
    elsewhere: a collection is a pure function of (workload, config),
    and {!Pipeline.Partial.merge} is associative over integer
    accumulators — so re-running the missing suffix of an interrupted
    run converges to output {e byte-identical} to the uninterrupted
    one (the kill-chaos suite enforces this). *)

open Hbbp_collector

(** Raised when [should_stop] reported true at a safe point; all
    progress up to that point has been durably published (manifest /
    checkpoint), so a later [--resume] continues from it. *)
exception Interrupted

(** How one shard was settled: [Reused] — the on-disk file already
    held the exact bytes; [Written] — it was (re)published. *)
type shard_status = Reused | Written

(** The shard files [collect_sharded ~shards ~path] publishes. *)
val shard_paths : shards:int -> path:string -> string list

(** [collect_sharded ~shards ~path w] — collect [w] and publish its
    shards with a progressive {!Manifest} sidecar.

    With [resume]: a complete manifest whose shards all verify (size +
    CRC) skips the collection entirely; otherwise stale staging files
    are removed, the workload is re-collected, and each shard is
    byte-compared against disk — identical files are kept ([Reused],
    counted in [recover.shards_reused]), everything else is atomically
    (re)written ([Written], counted in [recover.shards_rewritten]).

    [should_stop] is polled at shard boundaries; when it reports true
    the manifest so far is saved and {!Interrupted} raised.
    [inter_shard_delay_s] widens the publication window (chaos
    testing). *)
val collect_sharded :
  ?config:Pipeline.config ->
  ?version:int ->
  ?resume:bool ->
  ?should_stop:(unit -> bool) ->
  ?inter_shard_delay_s:float ->
  shards:int ->
  path:string ->
  Workload.t ->
  string list * shard_status list

val default_checkpoint_every : int

(** [analyze_archives ~checkpoint paths] —
    {!Pipeline.analyze_archives} with a {!Checkpoint} saved after
    every [checkpoint_every] consumed archives (default
    {!default_checkpoint_every}).

    With [resume], a checkpoint at [checkpoint] that loads cleanly,
    restores cleanly against the first archive's static view, and
    names a prefix of [paths] is continued from ([checkpoint.restores]
    metric); any damage or mismatch silently falls back to a full
    run.  [should_stop] is polled between archives; when it reports
    true the current state is checkpointed and {!Interrupted} raised.
    On success the checkpoint file is deleted and the result is
    byte-identical to the uninterrupted analysis.  Each archive is
    opened once (the first one also supplies the metadata). *)
val analyze_archives :
  ?criteria:Criteria.t ->
  ?thresholds:Pipeline.thresholds ->
  ?repair:Pipeline.repair_mode ->
  ?chunk_records:int ->
  ?checkpoint_every:int ->
  ?resume:bool ->
  ?should_stop:(unit -> bool) ->
  checkpoint:string ->
  string list ->
  (Perf_data.t * Pipeline.reconstruction, string) result
