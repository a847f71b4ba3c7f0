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
  keep_records : bool;
      (** Retain the raw record stream on {!profile.records}.  Default
          {b false} (breaking change): reconstruction state is bounded,
          so holding every record alive is opt-in.  [record_count] is
          always populated. *)
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
  records : Record.t list;
      (** Raw record stream — [[]] unless {!config.keep_records}. *)
  record_count : int;  (** Records collected (kept or not). *)
  quality : quality;  (** Degradation verdict of the reconstruction. *)
  repair_report : Hbbp_verifier.Repair.report option;
      (** Count-repair report ([None] when {!config.repair} is [Off]).
          [hbbp] is the repaired BBEC iff the mode was [Apply]. *)
}

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
      (physical equality is checked) and periods. *)
  val create :
    static:Static.t -> ebs_period:int -> lbr_period:int -> unit -> t

  (** Feed one record chunk (emits one telemetry span per chunk). *)
  val feed : t -> Record.t list -> unit

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

  (** {2 Checkpointing}

      A partial serializes to a versioned, CRC-guarded binary blob
      (the archive's v2 section framing over the accumulator state).
      The state is integer-domain throughout, so
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
      (** The mergeable state this reconstruction was finalized from
          (enables {!merge_reconstructions}). *)
}

(** [finalize partial] — turn accumulated state into a reconstruction:
    estimator finalization, bias resolution and contamination (from the
    stream set the partial accumulated, {!Hbbp_analyzer.Bias.finalize}),
    quality assessment over the partial's merged totals (ledger faults,
    lost records, channel starvation → fallback), fusion.  [repair]
    selects the count-repair policy (default [Report]).  [replay] is
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

(** [reconstruct_stream ~static ~ebs_period ~lbr_period chunks] —
    chunked reconstruction: [chunks ()] yields record chunks until
    [None]; resident state is the accumulators plus one chunk, and each
    chunk is read once.  Bit-identical to {!reconstruct} on the
    concatenated chunks. *)
val reconstruct_stream :
  ?criteria:Criteria.t ->
  ?thresholds:thresholds ->
  ?repair:repair_mode ->
  ?ledger:Perf_data.fault list ->
  static:Static.t ->
  ebs_period:int ->
  lbr_period:int ->
  (unit -> Record.t list option) ->
  reconstruction

(** [merge_reconstructions a b] — re-finalize the merged partial state
    of two reconstructions over the same static view ([a]'s stream
    followed by [b]'s): estimates add exactly, and quality/fallback/bias
    are re-resolved over the {e combined} totals — merging two degraded
    shards can yield a [Full] result and vice versa.
    @raise Invalid_argument when the partials don't share a static view
    or disagree on periods. *)
val merge_reconstructions :
  ?criteria:Criteria.t ->
  ?thresholds:thresholds ->
  ?repair:repair_mode ->
  reconstruction ->
  reconstruction ->
  reconstruction

(** [collect_archive ?config workload] — run only the collection side and
    package it as a portable archive. *)
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

(** [analyze_archives paths] — streaming multi-archive analysis: each
    archive is opened once and chunk-streamed off disk
    ({!Perf_data.Stream}) into its own partial, partials merge in path
    order, and the result is
    finalized over the merged totals (salvage ledgers, lost records and
    channel thresholds included).  All archives must carry the same
    workload name and sampling periods — the shards
    {!Perf_data.save_sharded} writes do; the returned metadata (with
    [records = []]) comes from the first archive.  [Error] carries a
    rendered diagnostic (unreadable archive or shard metadata
    mismatch).  Bit-identical to loading everything and running batch
    {!analyze_archive} on the concatenated records.
    @raise Invalid_argument when [paths] is empty. *)
val analyze_archives :
  ?criteria:Criteria.t ->
  ?thresholds:thresholds ->
  ?repair:repair_mode ->
  ?chunk_records:int ->
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
