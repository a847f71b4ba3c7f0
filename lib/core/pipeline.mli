(** End-to-end profiling of one workload.

    A single deterministic execution of the workload drives, side by
    side: the clean timing model, the instrumenting reference tool, the
    dual-LBR PMU collection, and exact PMU counting-mode cross-checks.
    From the collected records the pipeline reconstructs EBS, LBR and
    HBBP BBECs, detects LBR bias, applies the kernel text patch, and
    computes the runtime-overhead models. *)

open Hbbp_isa
open Hbbp_cpu
open Hbbp_analyzer
open Hbbp_collector

(** {1 Reconstruction quality}

    Graceful degradation: instead of aborting when the collected data is
    damaged or a channel is starved, the pipeline reconstructs what it
    can and labels the result.  [Full] means every channel passed its
    health thresholds and no archive faults were recorded; [Degraded]
    carries the complete list of reasons. *)

type degrade_reason =
  | Archive_fault of string
      (** A fault from the archive's salvage ledger
          ({!Hbbp_collector.Perf_data.fault}, rendered). *)
  | Lost_records of int
      (** The record stream reported ring-buffer loss ([Record.Lost]). *)
  | Ebs_starved of { samples : int; unattributed_share : float }
      (** EBS channel below {!thresholds.min_ebs_samples} or above
          {!thresholds.max_unattributed_share}. *)
  | Lbr_starved of { snapshots : int; failure_rate : float }
      (** LBR channel below {!thresholds.min_lbr_snapshots} or above
          {!thresholds.max_stream_failure}. *)
  | Fallback of [ `Ebs_only | `Lbr_only ]
      (** Exactly one channel was starved, so the fusion criteria were
          overridden to reconstruct from the healthy channel alone. *)
  | Flow_violation of {
      conservation_error : float;
      total_residual : float;
      worst_block : int option;  (** Global id of the worst offender. *)
    }
      (** The fused BBEC breaks Kirchhoff flow conservation on the CFG
          beyond {!thresholds.max_conservation_error}
          ({!Hbbp_verifier.Flow.check}): the reconstruction is
          internally inconsistent even though every channel passed its
          own health checks. *)

type quality = Full | Degraded of degrade_reason list

val pp_degrade_reason : Format.formatter -> degrade_reason -> unit
val pp_quality : Format.formatter -> quality -> unit

(** Channel-health thresholds that trip degradation (and, when exactly
    one channel is bad, single-channel fallback). *)
type thresholds = {
  min_ebs_samples : int;
  max_unattributed_share : float;
  min_lbr_snapshots : int;
  max_stream_failure : float;
  max_lost_records : int;
  max_conservation_error : float;
      (** Trip point for the {!Flow_violation} verdict.  The default
          (0.15) sits ~4x above the worst healthy sampled
          reconstruction of the bundled workloads (~0.035) while
          systematic corruption scores near 1. *)
}

val default_thresholds : thresholds

(** What {!finalize} does with the flow-conservation count-repair pass
    ({!Hbbp_verifier.Repair}): [Off] skips it; [Report] (the default)
    runs it and records the report on [r_repair] without touching the
    counts; [Apply] additionally replaces [r_hbbp] with the repaired
    BBEC.  The degradation verdict always reflects the {e pre}-repair
    flow check, so [Apply] cannot launder a corrupt reconstruction into
    a [Full] verdict. *)
type repair_mode = Off | Report | Apply

type config = {
  model : Pmu_model.t;
  criteria : Criteria.t;
  periods : [ `Auto | `Fixed of Period.pair ];
      (** [`Auto] uses the workload's runtime class (Table 4 policy). *)
  sde : Hbbp_instrument.Sde.config;
  max_instructions : int;
  count_events : Pmu_event.t list;
      (** Extra counting-mode events for cross-checking. *)
  thresholds : thresholds;
  engine : Machine.engine;
      (** Execution engine for the simulated runs.  Both engines retire
          bit-identical streams; this only selects dispatch cost.
          Default [Machine.Superblock]; [Machine.Legacy] is the
          reference the differential tests compare against. *)
  repair : repair_mode;
      (** Count-repair policy for every reconstruction this config
          drives.  Default {!Report}. *)
}

val default_config : config

type profile = {
  workload : Workload.t;
  config : config;
  stats : Machine.run_stats;
  pmu_health : Pmu.health;
      (** Sampling-health accounting of the session PMU: PMI count, skid
          displacement histogram, shadow slides, LBR snapshot/anomaly
          counts and dropped records. *)
  clean_cycles : int;
  static : Static.t;  (** Kernel-patched analysis view. *)
  static_unpatched : Static.t;  (** Raw on-disk view (kernel mismatch). *)
  reference : Bbec.t;  (** Instrumentation ground truth (user mode). *)
  reference_mix : (Mnemonic.t * float) list;
  ebs : Ebs_estimator.t;
  lbr : Lbr_estimator.t;
  bias : Bias.t;
  hbbp : Bbec.t;
  sim_periods : Period.pair;
  paper_periods : Period.pair;
  collection_overhead : float;  (** Fraction of clean runtime. *)
  sde_slowdown : float;  (** Instrumented / clean runtime factor. *)
  sde_total : int64;
  sde_lost_kernel : int;
  pmu_counts : (Pmu_event.t * int64) list;
  record_count : int;
      (** Records the run's stream fed the reconstruction (the stream
          itself is {!collect_archive}'s record list under the same
          config and fault plan). *)
  quality : quality;  (** Degradation verdict of the reconstruction. *)
  repair_report : Hbbp_verifier.Repair.report option;
      (** Count-repair report ([None] when {!config.repair} is [Off]).
          [hbbp] is the repaired BBEC iff the mode was [Apply]. *)
}

(** [run ?config w] — profile [w] in one execution.  The session's
    record stream ({!Hbbp_collector.Session.stream}, stream faults
    included) is folded into the reconstruction in fixed chunks as the
    samples are delivered, so the run holds one chunk of records rather
    than the stream.  The profile is the one the batch {!reconstruct}
    of {!collect_archive}'s record list gives.  Its [pipeline/run] span
    carries the run's execution and sampling-health args
    ([pipeline.*], [pmu.*], [sde.*]). *)
val run : ?config:config -> Workload.t -> profile

(** [run_many ?jobs workloads] — profile every workload, fanned out over
    a {!Hbbp_util.Domain_pool} of [jobs] domains (default: [HBBP_JOBS]
    or the host's recommended domain count).  Results come back in input
    order and are {b byte-identical} to sequential {!run} regardless of
    [jobs]: every machine, PMU, SDE and PRNG is private to one task and
    no mutable state crosses domains. *)
val run_many : ?jobs:int -> ?config:config -> Workload.t list -> profile list

(** {1 Offline analysis}

    The production split the paper describes: collection happens on the
    target machine; analysis later, from the archive alone (no ground
    truth available, so no error reports — just mixes). *)

(** Mergeable partial reconstruction state (the streaming core).  Feed
    record chunks in arrival order; merge partials built from contiguous
    shards; finalize into a {!reconstruction}.  The accumulators live in
    the integer domain, so [merge] is exact — one chunk, many chunks, or
    per-shard partials merged later are all {b bit-identical} after
    finalization. *)
module Partial : sig
  type t

  (** All partials destined to merge must share the {e same} [static]
      (physical equality is checked) and periods.  The partial's
      LBR-estimator and bias accumulators share one
      {!Stream_walk.Memo}.  A partial from {!merge} or {!restore} is
      merged or finalized, not fed, so its accumulators each start a
      fresh table instead. *)
  val create :
    static:Static.t -> ebs_period:int -> lbr_period:int -> unit -> t

  (** Feed one record chunk (emits one telemetry span per chunk). *)
  val feed : t -> Record.t list -> unit

  (** [feed_stream t s] — every record [s] has left, decoded straight
      into [t] through {!Perf_data.Stream.fold} (a sample's fields and
      the reader's scratch LBR array, no {!Record.t}; one
      [analyze/chunk] span per chunk while records are left, so a clean
      archive has one per non-empty chunk), then [s]'s ledger,
      as {!note_faults}.  Equal to {!feed} of the records
      {!Perf_data.Stream.next} would give, followed by {!note_faults}.
      @raise Sys_error when the archive cannot be read. *)
  val feed_stream : t -> Perf_data.Stream.stream -> unit

  (** Append archive-salvage faults to this partial's ledger; they reach
      the quality verdict at finalization. *)
  val note_faults : t -> Perf_data.fault list -> unit

  (** [merge a b] — [a]'s stream followed by [b]'s.  Pure; associative,
      and commutative up to ledger order.
      @raise Invalid_argument on static/period mismatch. *)
  val merge : t -> t -> t

  val static : t -> Static.t
  val ebs_period : t -> int
  val lbr_period : t -> int
  val record_count : t -> int
  val ebs_samples : t -> int
  val lbr_snapshots : t -> int
  val other_samples : t -> int
  val lost_records : t -> int
  val faults : t -> Perf_data.fault list

  (** Distinct LBR streams walked through the partial's LBR-estimator
      table (shared with its bias accumulator since {!create}): at most
      the distinct [(target, src)] pairs it was fed. *)
  val walks : t -> int

  (** {2 Checkpointing}

      A partial serializes to a versioned, CRC-guarded binary blob
      ({!Hbbp_util.Codec} framing): a section of tallies, one section
      that each accumulator writes and reads itself, and the fault
      ledger.  The state is integer-domain throughout, so
      [restore ~static (serialize p)] rebuilds a partial that
      finalizes {e byte-identically} to [p] — the property [--resume]
      rests on. *)

  (** Serialize the full accumulator state (everything except the
      static view, which the restorer supplies). *)
  val serialize : t -> bytes

  (** [restore ~static data] — rebuild a partial over [static] (which
      must describe the same program the serialized partial was
      accumulated against — block counts are checked).  Returns a
      typed error on damage: bad magic/version, CRC mismatch,
      truncation, or a block-count mismatch. *)
  val restore : static:Static.t -> bytes -> (t, string) result
end

type reconstruction = {
  r_static : Static.t;
  r_ebs : Ebs_estimator.t;
  r_lbr : Lbr_estimator.t;
  r_bias : Bias.t;
  r_hbbp : Bbec.t;
  r_quality : quality;
  r_flow : Hbbp_verifier.Flow.report;
      (** Conservation check of the fused counts, {e before} any
          repair. *)
  r_repair : Hbbp_verifier.Repair.report option;
      (** Count-repair report ([None] when the repair mode is [Off]).
          [r_hbbp] is the repaired BBEC iff the mode was [Apply]. *)
  r_partial : Partial.t;
      (** The mergeable state this reconstruction was finalized from:
          [finalize (Partial.merge a.r_partial b.r_partial)] is the
          reconstruction of [a]'s stream followed by [b]'s, with
          quality, fallback and bias re-resolved over the combined
          totals. *)
}

(** The share of an LBR estimate's streams that failed to walk
    (inconsistent or discarded); [0.] when there were none. *)
val stream_failure_rate : Lbr_estimator.t -> float

(** [finalize partial] — turn accumulated state into a reconstruction:
    estimator finalization, bias resolution and contamination (from the
    stream set the partial accumulated, {!Hbbp_analyzer.Bias.finalize}),
    quality assessment over the partial's merged totals (ledger faults,
    lost records, channel starvation → fallback), fusion.  [repair]
    selects the count-repair policy (default [Report]).  It runs in an
    [analyze/finalize] span that carries the reconstruction's
    sampling-health args ([ebs.*], [lbr.*], [bias.*], [degrade.*]);
    its [verify/flow_check] and [verify/repair] spans carry the flow
    and repair reports' ([verify.*], [repair.*]).  [replay] is
    ignored; it is kept only so that perfbench ([perfbench/layers.ml],
    which passes it) still compiles. *)
val finalize :
  ?criteria:Criteria.t ->
  ?thresholds:thresholds ->
  ?repair:repair_mode ->
  ?replay:((Record.t list -> unit) -> unit) ->
  Partial.t ->
  reconstruction

(** [reconstruct ~static ~ebs_period ~lbr_period records] — rebuild all
    three BBEC estimates from a raw record stream.

    [ledger] feeds archive faults discovered during loading into the
    quality verdict.  If exactly one channel fails its [thresholds], the
    fusion criteria are overridden to a single-channel rule and a
    [Fallback] reason is recorded; if both fail, [criteria] is kept
    (there is no better channel to prefer) and both starvation reasons
    are reported. *)
val reconstruct :
  ?criteria:Criteria.t ->
  ?thresholds:thresholds ->
  ?repair:repair_mode ->
  ?ledger:Perf_data.fault list ->
  static:Static.t ->
  ebs_period:int ->
  lbr_period:int ->
  Record.t list ->
  reconstruction

(** [collect_archive ?config workload] — run only the collection side and
    package it as a portable archive.  Its records are the session's
    stream ({!Hbbp_collector.Session.stream}) as it was written: the
    one {!run} feeds its reconstruction under the same config and fault
    plan. *)
val collect_archive : ?config:config -> Workload.t -> Perf_data.t

(** [collect_many ?jobs workloads] — parallel {!collect_archive} with the
    same determinism guarantee as {!run_many}. *)
val collect_many :
  ?jobs:int -> ?config:config -> Workload.t list -> Perf_data.t list

(** [analyze_archive ?criteria ?thresholds ?ledger archive] — offline
    analysis of a loaded archive (applies the live-kernel-text patch
    from the archive).  Pass the salvage [ledger] returned by
    {!Hbbp_collector.Perf_data.load} so archive damage is reflected in
    [r_quality]. *)
val analyze_archive :
  ?criteria:Criteria.t ->
  ?thresholds:thresholds ->
  ?repair:repair_mode ->
  ?ledger:Perf_data.fault list ->
  Perf_data.t ->
  reconstruction

(** {2 The per-archive step}

    Every driver that analyzes archives off disk — {!analyze_archives},
    [hbbp stats] and {!Doctor} — folds each archive through these
    functions, and every failure on the way is a rendered [Error] naming
    the archive, never an exception. *)

(** [open_archive path] — {!Perf_data.Stream.open_file}, with a typed
    read error or an OS error (missing or unreadable file) rendered
    into [Error]. *)
val open_archive : string -> (Perf_data.Stream.stream, string) result

(** [archive_static path meta] — the shared static view of an archive's
    metadata ({!Perf_data.analysis_process}, live kernel text patched
    in).  Images that do not disassemble, or that overlap, are
    [Error "<path>: ..."]. *)
val archive_static : string -> Perf_data.t -> (Static.t, string) result

(** [check_shard_meta ~meta path m] — [Ok ()] when the metadata [m]
    of the archive at [path] has [meta]'s workload name and sampling
    periods (shards of one collection do), else the rendered
    ["<path>: shard metadata mismatch ..."]. *)
val check_shard_meta :
  meta:Perf_data.t -> string -> Perf_data.t -> (unit, string) result

(** [archive_partial ~static ~meta path s] — {!check_shard_meta} on the
    open stream [s], then feed every chunk into a fresh partial over
    [static] inside one [analyze]/[archive] telemetry span, note the
    salvage ledger, and close [s] whatever the outcome. *)
val archive_partial :
  static:Static.t ->
  meta:Perf_data.t ->
  string ->
  Perf_data.Stream.stream ->
  (Partial.t, string) result

(** Raised by {!analyze_archives} (and by resumable collection,
    [Recover.collect_sharded]) when [should_stop] reported true at a
    safe point.  All progress up to that point has been durably
    published (checkpoint / manifest), so a later resume continues from
    it — except for an analysis run without a checkpoint, which saves
    nothing. *)
exception Interrupted

(** [analyze_archives paths] — streaming multi-archive analysis: the
    first archive's metadata supplies the static view
    ({!archive_static}), every archive is opened once and folded
    through {!archive_partial}, partials merge in path order, and the
    result is finalized over the merged totals (salvage ledgers, lost
    records and channel thresholds included).  The returned metadata
    (with [records = []]) comes from the first archive.  [Error]
    carries the first failure of the per-archive step.  Bit-identical
    to loading everything and running batch {!analyze_archive} on the
    concatenated records.

    [should_stop] is polled before each archive; when it reports true,
    {!Interrupted} is raised.  With [checkpoint], the merged state is
    saved there as a {!Checkpoint} after every consumed archive, so the
    state so far survives the interruption; without one, nothing is
    saved and no file is written.  With [resume] as well,
    a checkpoint that loads cleanly, restores cleanly against the first
    archive's static view, and names a prefix of [paths] is continued
    from (a [checkpoint.restores] arg on the innermost open span); any
    damage or mismatch
    silently falls back to a full run.  Success and a typed error both
    delete the checkpoint file; only {!Interrupted} leaves one behind.
    The result is byte-identical whether the run was checkpointed,
    resumed or neither.  Without [checkpoint], [resume] is ignored:
    there is nowhere to resume from.
    @raise Invalid_argument when [paths] is empty. *)
val analyze_archives :
  ?criteria:Criteria.t ->
  ?thresholds:thresholds ->
  ?repair:repair_mode ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?should_stop:(unit -> bool) ->
  string list ->
  (Perf_data.t * reconstruction, string) result

(** {1 Derived views} *)

(** [mix_of profile method] — user-mode instruction mix of the given
    BBEC method. *)
val mix_of : profile -> Bbec.t -> Mix.t

(** Mix including kernel blocks (what only PMU methods can see). *)
val full_mix_of : profile -> Bbec.t -> Mix.t

(** [error_report profile bbec] — user-mode mnemonic mix of [bbec]
    compared against the instrumentation reference. *)
val error_report : profile -> Bbec.t -> Error.report

(** Feature vector of a block (uses this profile's bias and EBS data). *)
val features : profile -> int -> float array

(** Instrumentation total vs PMU counting-mode instruction count
    (paper section VII.B); the relative difference should be tiny unless
    the instrumentation tool is buggy. *)
val sde_pmu_discrepancy : profile -> float
