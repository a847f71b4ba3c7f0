(** The HBBP collection session.

    Simultaneous EBS and LBR collection is not supported by the kernel,
    so (paper section V.A) the collector programs {b two counters, both in
    LBR mode}, within a single execution:

    - [INST_RETIRED:PREC_DIST] sampling — the {b EBS source}: the eventing
      IP is kept, the LBR payload is discarded at analysis time;
    - [BR_INST_RETIRED:NEAR_TAKEN] sampling — the {b LBR source}: the LBR
      stack is kept, the eventing IP is discarded.

    The workload runs once and the output stream contains both kinds of
    data. *)

open Hbbp_program
open Hbbp_cpu

type t

(** [configure model pair] builds the dual-LBR PMU configuration. *)
val configure : Pmu_model.t -> Period.pair -> t

(** The PMU to attach to the machine ({!Machine.add_observer} its
    {!Pmu.observer}). *)
val pmu : t -> Pmu.t

(** [records t process ~pid ~name] — the perf.data-style stream: COMM and
    MMAP records for every image, then all samples.

    When a fault plan with collector faults is armed
    ({!Hbbp_faults.Faults.arm}), records are dropped/reordered per the
    plan and a trailing [Lost] record reports how many were dropped
    (perf's ring-buffer-overrun convention).  Disarmed, the hook is a
    single [option] load. *)
val records : t -> Process.t -> pid:int -> name:string -> Record.t list

(** {2 The stream's parts}

    {!records} with faults disarmed is [header] followed by
    [sample_record] of each of {!Pmu.samples}.  A consumer that installs
    a {!Pmu.set_sink} on {!pmu} builds the same records from these as
    the samples arrive, without holding the samples. *)

(** The COMM record, then one MMAP record per image of the process. *)
val header : Process.t -> pid:int -> name:string -> Record.t list

(** The record one delivered sample becomes. *)
val sample_record : Pmu.sample -> Record.t

val ebs_period : t -> int
val lbr_period : t -> int

(** [overhead_fraction ~paper ~stats ~model] — modelled runtime overhead
    of collection at the {e paper-scale} periods: PMIs per cycle times
    the per-PMI cost.  This is what the paper reports as "time penalty"
    (0.5% on SPEC, 2.3% on Test40). *)
val overhead_fraction :
  paper:Period.pair -> stats:Machine.run_stats -> model:Pmu_model.t -> float
