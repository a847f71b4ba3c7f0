(** Resumable collection.

    It rests on determinism already guaranteed elsewhere: a collection
    is a pure function of (workload, config), so re-running an
    interrupted collection converges to archives {e byte-identical} to
    the uninterrupted one (the kill-chaos suite enforces this).
    Checkpointed analysis is {!Pipeline.analyze_archives}'s
    [?checkpoint] argument. *)

(** How one shard was settled: [Reused] — the on-disk file already
    held the exact bytes; [Written] — it was (re)published. *)
type shard_status = Reused | Written

(** [collect_sharded ~shards ~path w] — collect [w] and publish its
    shards with a progressive {!Manifest} sidecar.

    With [resume]: a complete manifest that names exactly the shards
    this call writes (indices [0 .. shards - 1] in order, each under
    its {!Hbbp_collector.Perf_data.shard_path} name), all of which
    verify (size + CRC), skips the collection entirely; otherwise
    stale staging files are removed, the workload is re-collected, and
    each shard is byte-compared against disk — identical files are
    kept ([Reused]), everything else is atomically (re)written
    ([Written]).  The status
    list is the resume's accounting, one entry per shard.

    [should_stop] is polled at shard boundaries; when it reports true
    the manifest so far is saved and {!Pipeline.Interrupted} raised.
    [inter_shard_delay_s] widens the publication window (chaos
    testing). *)
val collect_sharded :
  ?config:Pipeline.config ->
  ?resume:bool ->
  ?should_stop:(unit -> bool) ->
  ?inter_shard_delay_s:float ->
  shards:int ->
  path:string ->
  Workload.t ->
  string list * shard_status list
