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

(** {2 The record stream}

    The perf.data-style stream: the COMM record, one MMAP record per
    image of the process, then one [Sample] record per delivered sample,
    in delivery order.  When a fault plan with collector faults is armed
    ({!Hbbp_faults.Faults.arm}), records are dropped and reordered as
    they are written ({!Hbbp_faults.Faults.record_filter}) and the
    stream closes with a [Lost] record counting the drops (perf's
    ring-buffer-overrun convention).  Disarmed, the hook is a single
    [option] load per stream. *)

(** [stream t process ~pid ~name emit] opens the stream into [emit]
    before the run: it pushes the header, then installs a
    {!Pmu.set_sink} on {!pmu} that pushes each sample as it is
    delivered, so nothing holds the samples.  Call the returned close
    after the run. *)
val stream :
  t -> Process.t -> pid:int -> name:string -> (Record.t -> unit) ->
  (unit -> unit)

(** [records t process ~pid ~name] — the same stream, written after the
    run from the samples the PMU's default sink kept ({!Pmu.samples}),
    as a list. *)
val records : t -> Process.t -> pid:int -> name:string -> Record.t list

val ebs_period : t -> int
val lbr_period : t -> int

(** [overhead_fraction ~paper ~stats ~model] — modelled runtime overhead
    of collection at the {e paper-scale} periods: PMIs per cycle times
    the per-PMI cost.  This is what the paper reports as "time penalty"
    (0.5% on SPEC, 2.3% on Test40). *)
val overhead_fraction :
  paper:Period.pair -> stats:Machine.run_stats -> model:Pmu_model.t -> float
