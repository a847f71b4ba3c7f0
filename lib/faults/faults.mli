(** The global fault-injection switchboard.

    A {!Fault_plan.t} is {e armed} process-wide; each pipeline layer asks
    for its injector at construction time and gets [None] unless a plan
    with faults for that layer is armed (the collector's record stream
    gets its consumer back unfiltered).  The disarmed fast path is a
    single load of an immutable [option] field at each hook site —
    provably free (the fault bench and the byte-identity test enforce
    it).

    All injected faults are deterministic: every injector derives its own
    {!Fault_prng} stream from the plan seed, so a given (plan, workload)
    pair always injects the same faults, in parallel runs too.

    Injected faults are tallied in process-wide atomics (see {!tally}) so
    callers can surface them as [faults.*] telemetry metrics or human
    summaries without the faults library depending on the telemetry
    layer. *)

val arm : Fault_plan.t -> unit
val disarm : unit -> unit
val armed : unit -> bool
val plan : unit -> Fault_plan.t option

(** {1 Injected-fault tally} *)

(** Non-zero injected-fault counters since the last {!reset_tally},
    sorted by name (e.g. [pmu.samples_dropped], [records.dropped],
    [archive.bit_flips]). *)
val tally : unit -> (string * int) list

val reset_tally : unit -> unit

(** {1 PMU layer} *)

type pmu_injector

(** [None] when disarmed or the armed plan has no PMU faults. *)
val pmu_injector : unit -> pmu_injector option

(** Decide the fate of one delivered sample record (counts bursts). *)
val drop_sample : pmu_injector -> bool

(** Extra skid (deterministic + jitter draw) for one counter overflow. *)
val extra_skid : pmu_injector -> int

type lbr_fault = {
  stick : bool;  (** Force the stuck-entry[0] quirk on this snapshot. *)
  misrotate : bool;  (** Force a one-slot mis-rotation. *)
  truncate : int;  (** Keep only the newest N entries (0 = keep all). *)
}

(** Corruption decisions for one LBR snapshot. *)
val lbr_fault : pmu_injector -> lbr_fault

(** {1 Collector layer} *)

type record_class = Rec_comm | Rec_mmap | Rec_sample | Rec_other

(** [record_filter ~classify ~lost emit] — [(push, close)], the armed
    plan's collector faults in front of [emit], acting as records are
    written.  [push] drops each record at its class's rate; survivors
    are held in windows of the plan's reorder size, each shuffled and
    passed to [emit] when it fills.  [close] passes on the last partial
    window, then [lost n] if [n > 0] records were dropped.  With no
    collector faults armed, [push] is [emit] and [close] does nothing. *)
val record_filter :
  classify:('a -> record_class) ->
  lost:(int -> 'a) ->
  ('a -> unit) ->
  ('a -> unit) * (unit -> unit)

(** {1 IO layer}

    Seeded failure decisions for the durable write paths (see
    [Durable]).  One injector is created per durable operation, so
    decisions are deterministic in the (plan seed, op order) pair. *)

type io_injector

(** [None] when disarmed or the armed plan has no [io.*] faults. *)
val io_injector : unit -> io_injector option

(** Should this durable write fail as if the disk were full? *)
val io_enospc : io_injector -> bool

(** [io_short_write inj ~len] — [Some n] (with [1 <= n < len]) to cut
    one [write] syscall short, [None] to let it through whole. *)
val io_short_write : io_injector -> len:int -> int option

(** Should this [write] report [EINTR]? *)
val io_eintr : io_injector -> bool

(** Should the atomic publish [rename] fail transiently? *)
val io_rename_fail : io_injector -> bool

(** Should this [fsync] fail transiently? *)
val io_fsync_fail : io_injector -> bool

(** {1 Archive layer} *)

(** [mangle_archive data] — apply the armed plan's bit flips and
    truncation to a serialized archive; returns [data] unchanged (same
    physical bytes) when disarmed or no archive faults are armed. *)
val mangle_archive : bytes -> bytes
