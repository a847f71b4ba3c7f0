(** Software instrumentation, modelled on Intel SDE / PIN.

    As an observer over the simulated execution it counts {e exactly}:
    per-basic-block execution counts and a per-mnemonic histogram.  These
    are the paper's ground truth.  Like PIN's basic-block-level
    instrumentation it pays per block, not per instruction: both its
    {!Machine} windows are unbounded, so on the tiered engines its
    batches end only where another observer's window or the block
    log's capacity ends them, and each logged block costs one increment
    of that block's execution tally.  The readers below fold the tally
    in first, counting each member of a tallied block once per
    execution — the same result the per-retirement hook gives on the
    legacy engine.  Two realities of the real tool are modelled
    faithfully:

    - it sees {b user-mode code only} (kernel retirements are invisible
      and tallied as lost);
    - it makes the workload massively slower.  The emulation cost model
      charges per-instruction translation costs plus a per-block probe
      cost, yielding the 4–120x slowdowns of Table 1. *)

open Hbbp_isa
open Hbbp_program
open Hbbp_cpu

type config = {
  probe_cost : int;  (** Extra cycles per basic-block entry. *)
  bug_mnemonic : Mnemonic.t option;
      (** When set, the histogram under-counts this mnemonic by half —
          reproducing the paper's footnote 2, where SDE produced wrong
          results on x264ref and was caught by PMU cross-checking. *)
}

val default_config : config

(** [emulation_cost i] — cycles the instrumenting emulator spends per
    executed instance of [i]. *)
val emulation_cost : Instruction.t -> int

type t

(** [create config maps] — [maps] are the static BB maps of the {e user}
    images to instrument. *)
val create : config -> Bb_map.t list -> t

val observer : t -> Machine.observer

(** [block_count t map block] — exact execution count. *)
val block_count : t -> Bb_map.t -> Basic_block.t -> int

(** All (map, block, count) triples with non-zero counts. *)
val block_counts : t -> (Bb_map.t * Basic_block.t * int) list

(** Exact per-mnemonic execution histogram (user mode only). *)
val histogram : t -> (Mnemonic.t * int64) list

(** Total user-mode instructions counted. *)
val total_instructions : t -> int64

(** Kernel-mode retirements the tool could not see. *)
val lost_kernel_instructions : t -> int

(** Modelled cycles of the instrumented run (native work plus emulation
    overhead).  Divide by the clean run's cycles for the slowdown
    factor. *)
val instrumented_cycles : t -> int

val reset : t -> unit
