(** Parallel-efficiency attribution for the sharded analysis path
    ([hbbp doctor]).

    {!run} collects one archive, shards it, then replays the
    shard-stream → merge → finalize analysis at every job count from 1
    to [max_jobs].  Each pass runs inside a [doctor/analyze] span with
    tracing and the runtime profiler on, and every field of its
    {!jobs_run} is read from the spans recorded inside that span: the
    wall clock split into the parallel stream phase and the serial
    [doctor/merge] tail, the [pool/task] spans per domain (tasks, busy
    time, and the profiler's GC args: domain-local allocated words,
    process-wide collection counts — OCaml exposes GC event/word
    counts, not GC time, so counts are the attribution unit),
    task-size statistics, utilization and busy-time imbalance, and each
    span's self allocation.

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
  dg_busy_s : float;  (** Sum of this domain's [pool/task] spans. *)
  dg_minor : int;
      (** Minor collections (process-wide) while this domain's tasks ran. *)
  dg_major : int;
  dg_allocated_words : int;  (** Words this domain allocated in its tasks. *)
}

(** One analysis pass at a fixed job count. *)
type jobs_run = {
  jr_jobs : int;
  jr_wall_s : float;  (** The [doctor/analyze] span. *)
  jr_stream_s : float;  (** Parallel shard-stream phase: wall − merge. *)
  jr_merge_s : float;
      (** The serial [doctor/merge] span: merge + finalize (Amdahl term). *)
  jr_speedup : float;  (** [t1 / tj]. *)
  jr_efficiency : float;  (** [t1 / (jobs * tj)]; 1.0 is perfect scaling. *)
  jr_utilization : float;  (** Σ busy / (jobs × stream). *)
  jr_imbalance : float;
      (** max domain busy / mean domain busy over the domains that ran
          tasks; 1.0 is a perfectly even partition. *)
  jr_task_mean_s : float;
  jr_task_max_s : float;
  jr_domains : domain_gc list;  (** Sorted by domain id. *)
}

type alloc_site = {
  site_span : string;  (** [cat/name] of the span. *)
  site_words : int;
}

type report = {
  rep_workload : string;
  rep_shards : int;
  rep_records : int;
  rep_runs : jobs_run list;  (** In job-count order, 1 first. *)
  rep_consistent : bool;
      (** Every job count reconstructed identical HBBP counts. *)
  rep_degraded : bool;  (** The reconstruction's quality verdict. *)
  rep_alloc_sites : alloc_site list;
      (** Spans inside the analyze spans by self allocation (inclusive
          minus direct children on the same domain), summed over every
          job count, descending. *)
}

(** [run workload] — collect, shard and attribute.  [max_jobs] defaults
    to [min 4 recommended_domain_count]; [shards] to [2 * max_jobs].
    Enables tracing and the runtime profiler for the duration if they
    were off, and restores them after; tracing that was off starts and
    ends with empty span buffers.
    @raise Failure if a shard the doctor just wrote fails to analyze. *)
val run :
  ?max_jobs:int -> ?shards:int -> ?config:Pipeline.config -> Workload.t ->
  report

(** Single JSON object, no trailing newline. *)
val to_json : report -> string

val pp : Format.formatter -> report -> unit
