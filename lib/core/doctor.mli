(** Parallel-efficiency attribution for the sharded analysis path
    ([hbbp doctor]).

    {!run} collects one archive, shards it, then replays the
    shard-stream → merge → finalize analysis at every job count from 1
    to [max_jobs], measuring where the wall clock goes: the parallel
    stream phase vs the serial merge tail, per-worker busy/wait
    (utilization, busy-time imbalance), per-domain GC activity
    (domain-local [Gc.quick_stat] bracketed around each task — OCaml
    exposes GC event/word counts, not GC time, so counts are the
    attribution unit), task-size statistics, and the runtime profiler's
    exclusive per-span allocation accounting.

    Each pass maps the per-archive step of the analysis drivers
    ({!Pipeline.open_archive}, {!Pipeline.archive_partial}, metadata
    check included) over the shards on the pool, then merges and
    finalizes, so the doctor measures the code [hbbp analyze] runs.

    The doctor also cross-checks the pool's determinism contract: every
    job count must produce an identical reconstruction
    ([rep_consistent]). *)

type domain_gc = {
  dg_domain : int;  (** Runtime domain id ([Domain.self]). *)
  dg_tasks : int;
  dg_busy_s : float;  (** Sum of this domain's task wall clocks. *)
  dg_minor : int;  (** Minor collections during this domain's tasks. *)
  dg_major : int;
  dg_allocated_words : float;
}

(** One analysis pass at a fixed job count. *)
type jobs_run = {
  jr_jobs : int;
  jr_wall_s : float;  (** Stream + merge + finalize, end to end. *)
  jr_stream_s : float;  (** Parallel shard-stream phase. *)
  jr_merge_s : float;  (** Serial merge + finalize tail (Amdahl term). *)
  jr_speedup : float;  (** [t1 / tj]. *)
  jr_efficiency : float;  (** [t1 / (jobs * tj)]; 1.0 is perfect scaling. *)
  jr_utilization : float;  (** busy / (busy + wait) over active workers. *)
  jr_imbalance : float;
      (** max worker busy / mean worker busy; 1.0 is a perfectly even
          partition. *)
  jr_task_mean_s : float;
  jr_task_max_s : float;
  jr_domains : domain_gc list;  (** Sorted by domain id. *)
}

type alloc_site = { site_span : string; site_words : int }

type report = {
  rep_workload : string;
  rep_shards : int;
  rep_records : int;
  rep_runs : jobs_run list;  (** In job-count order, 1 first. *)
  rep_consistent : bool;
      (** Every job count reconstructed identical HBBP counts. *)
  rep_degraded : bool;  (** The reconstruction's quality verdict. *)
  rep_sampler : string;  (** Allocation sampler mode actually armed. *)
  rep_alloc_sites : alloc_site list;
      (** Spans by exclusive words allocated, descending. *)
}

(** [run workload] — collect, shard and attribute.  [max_jobs] defaults
    to [min 4 recommended_domain_count]; [shards] to [2 * max_jobs].
    Enables the metrics registry and runtime profiler for the duration
    if they were off, and restores them after.
    @raise Failure if a shard the doctor just wrote fails to analyze. *)
val run :
  ?max_jobs:int -> ?shards:int -> ?config:Pipeline.config -> Workload.t ->
  report

(** Single JSON object, no trailing newline. *)
val to_json : report -> string

val pp : Format.formatter -> report -> unit
