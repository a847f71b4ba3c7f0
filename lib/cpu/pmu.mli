(** The Performance Monitoring Unit.

    Counters can run in counting mode (exact totals, used for
    cross-checking instrumentation results — paper section VII.B) or in
    sampling mode with a period; sampling counters may have LBR capture
    enabled.  The sampling path implements the skid, shadowing and LBR
    anomaly models from {!Pmu_model}.

    As a {!Machine} observer the PMU pays per batch of blocks outside
    PMI windows.  It reports two windows: in retirements, the smallest
    room before overflow among its sampling counters of events that
    advance by at most one per retirement (0 while a PMI is pending,
    and always 0 with a cycle-weighted sampling counter); in taken
    branches, the taken-branch sampling counter's room.  A flushed
    block log costs the LBR push and record-drop draws for its taken
    entries, in log order — the order the per-retirement hook makes
    them, so the PRNG sequence is unchanged — and one advance per
    counter by the batch total for retirement, taken-branch and cycle
    events; only the other events sum per-block static increments
    entry by entry.  A PMU with no sampling counter never reads its
    LBR, so it models none: counting the production events is O(1)
    per flush.

    Chaos hook: when a fault plan with PMU faults is armed
    ({!Hbbp_faults.Faults.arm}) at {!create} time, the PMU additionally
    injects sample loss (random and bursty), extra skid / PMI jitter and
    forced LBR snapshot corruption (stuck, mis-rotated, truncated), all
    deterministic in the plan seed.  Disarmed, every hook site is a
    single load of an immutable [None] field. *)

open Hbbp_program

type counter_mode =
  | Counting
  | Sampling of { period : int; lbr : bool }

type counter_config = { event : Pmu_event.t; mode : counter_mode }

type sample = {
  event : Pmu_event.t;
  ip : int;  (** Eventing IP (where the PMI observed retirement). *)
  lbr : Lbr.entry array;  (** Oldest first; empty if LBR capture is off. *)
  ring : Ring.t;
  retired_index : int;
  cycles : int;
}

type t

(** [create model configs] —
    @raise Invalid_argument for more than 4 counters or more than one
    precise sampling event (the x86 restriction the paper works around
    with its dual-LBR collection). *)
val create : Pmu_model.t -> counter_config list -> t

(** Register this PMU on a machine ({!Machine.add_observer}). *)
val observer : t -> Machine.observer

(** Samples in delivery order. *)
val samples : t -> sample list

(** Final totals of every counter, including sampling ones. *)
val counts : t -> (Pmu_event.t * int64) list

(** Number of PMIs taken — input to the overhead model. *)
val pmi_count : t -> int

(** Sampling-health accounting: how much the collection machinery
    distorted what it observed.  These are the quantities the paper
    reasons about when explaining per-method error structure (skid and
    shadowing for EBS, the entry[0]/record-loss quirk for LBR), counted
    at the source so the pipeline can report its own collection
    quality. *)
type health = {
  pmi_count : int;  (** Samples delivered (PMIs taken). *)
  skid_hist : int array;
      (** Drawn skid displacement per counter overflow; index [d] is a
          displacement of exactly [d] retirements, the last slot counts
          displacements beyond {!max_skid_bucket}. *)
  shadow_slides : int;
      (** PMIs that slid past a shadow window before delivering. *)
  lbr_snapshots : int;  (** Non-empty LBR snapshots captured. *)
  stuck_snapshots : int;
      (** Snapshots corrupted by the stuck-entry[0] quirk. *)
  misrotated_snapshots : int;
      (** Snapshots mis-rotated by one slot (the mild anomaly). *)
  dropped_records : int;
      (** Taken-branch records lost to the record-loss quirk. *)
}

val max_skid_bucket : int

val health : t -> health

val reset : t -> unit
