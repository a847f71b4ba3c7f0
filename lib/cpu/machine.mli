(** The CPU simulator's top-level run loop.

    The machine retires instructions, charging cycles per the timing
    model, and reports what retires to registered observers.  Observers
    implement both software instrumentation (exact counting) and the
    PMU (sampled counting) — running them side by side over a single
    deterministic execution is what lets the experiments compare
    methods on identical ground truth.

    Observers are told in bulk wherever they can be.  Each one reports
    two windows: how many retirements, and how many taken branches, it
    can absorb without per-instruction detail.  On the [Superblock] engine a
    block that fits the budget and both smallest windows (with room for
    one more taken branch) runs as a bare block body and is appended to
    the machine's {e block log} — no observer call.  The log is
    allocated once, by the machine's first run with observers.  The log is handed
    to every observer's [on_blocks] hook, with the batch's totals, at
    four points: when the next block does not fit (the windows are then
    queried afresh, so a block runs detailed exactly when it does not
    fit windows reported just before it), when the log is full, at run
    end, and before an exception leaves {!run}.  A block that does not
    fit (it could overflow a sampling counter, advance a pending PMI or
    exceed the budget) retires instruction by instruction through the
    per-retirement hook instead.  The [Legacy] engine drives only the
    per-retirement hook, so it is the differential oracle for the law
    every observer keeps: [on_blocks] has the effect of folding its
    per-retirement hook over the members of the logged blocks, in log
    order. *)

open Hbbp_program

(** One retired instruction.  The record is a mutable scratch buffer
    reused across retirements: observers must copy anything they keep. *)
type retirement = {
  mutable node : Exec_graph.node;
  mutable taken_src : int;  (** -1 unless a taken branch retired. *)
  mutable taken_tgt : int;
  mutable retired_index : int;
  mutable cycles : int;  (** Cumulative cycle count after this retirement. *)
  mutable shadow_active : bool;
      (** PMI delivery was inhibited at this retirement because a
          long-latency instruction was still in flight. *)
}

(** A compiled basic block, as the block log names it. *)
type block = {
  id : int;
      (** Dense per machine (0, 1, … in compile order), so observers
          can key per-block static summaries by it. *)
  nodes : Exec_graph.node array;  (** Members in execution order. *)
}

(** A batch of whole blocks retired in order since the last flush.
    Owned by the machine and reused across batches: observers read it
    inside [on_blocks] and must copy anything they keep (the [blocks]
    table excepted, which only grows). *)
type log = private {
  ids : int array;
      (** Entry [k < len] is the id of the [k]th block retired,
          complemented ([lnot id]) when its terminator branched. *)
  targets : int array;
      (** For a branched entry, the branch target; unspecified
          otherwise.  The source is the block's last member. *)
  mutable len : int;  (** Entries in the batch, at most {!log_capacity}. *)
  mutable retired : int;  (** Instructions the batch retired. *)
  mutable taken : int;  (** Taken branches the batch retired. *)
  mutable cycles : int;  (** Cumulative cycle count after the batch. *)
  mutable blocks : block array;
      (** Every block compiled so far, by id; slots past the last
          compiled id are filler. *)
}

(** Entries a log holds before it is flushed. *)
val log_capacity : int

(** One attachment of an observer to a machine. *)
type hooks = {
  on_retire : retirement -> unit;
      (** Per-instruction detail: called for every retirement of a
          block that does not fit the windows, and for every retirement
          on the [Legacy] engine. *)
  on_blocks : log -> unit;
      (** A batch of whole blocks that retired inside the windows, with
          no per-instruction calls. *)
  window : int -> int;
      (** [window cycles]: how many retirements the observer can absorb
          through [on_blocks], given the current cumulative cycle
          count; [0] asks for per-instruction detail, [max_int] means
          any number. *)
  taken_window : unit -> int;
      (** How many taken branches the observer can absorb through
          [on_blocks]; a block runs bare only with room for one more.
          Both windows are queried together, when a run starts, after
          every flush except the final one and after every block retired
          instruction by instruction, and bound the whole batch that
          follows. *)
}

(** [attach] runs once per {!add_observer}, so per-block state keyed
    by [block.id] is private to one machine. *)
type observer = { attach : unit -> hooks }

type run_stats = {
  retired : int;
  cycles : int;
  taken_branches : int;
  kernel_retired : int;  (** Retirements in ring 0. *)
}

exception Runaway of int
(** Instruction budget exceeded — a workload failed to terminate. *)

exception Machine_fault of string

(** How [run] drives the execution graph.  Both engines retire
    bit-identical streams — same {!run_stats}, same observer results,
    same faults — and differ only in dispatch cost:

    - [Legacy]: the seed per-instruction loop over {!Exec.step},
      notifying observers per retirement only; the differential-testing
      reference.
    - [Superblock]: per basic block, cached pre-compiled instruction
      kernels ({!Exec.compile}) execute the whole block straight-line,
      and direct fall-through/taken successors are chained through
      pointers patched on first traversal, so steady-state execution
      re-enters the dispatcher only when an indirect target (RET,
      indirect JMP/CALL) changes destination.  The production
      engine. *)
type engine = Legacy | Superblock

val engine_name : engine -> string
val all_engines : engine list

type t

(** [create ~process ()] builds the execution graph from the process's
    {e live} images.  [seed] feeds workload-visible randomness;
    [engine] defaults to [Superblock]. *)
val create : process:Process.t -> ?seed:int64 -> ?engine:engine -> unit -> t

val state : t -> State.t
val process : t -> Process.t
val engine : t -> engine

(** Attaches [observer] (calls its [attach]); the observer set is
    frozen when [run] starts. *)
val add_observer : t -> observer -> unit

(** [run t ~entry ()] — executes from [entry] until the entry function
    returns (to the sentinel return address) or retires [HLT].
    @raise Runaway when [max_instructions] (default [2_000_000_000]) is hit.
    @raise Machine_fault on execution falling off mapped code, or SYSCALL
    with no kernel mapped.  Every exception is raised after the block
    log has been flushed, so the observers hold every block retired
    before the faulting one.  An exception raised inside a block that
    ran as a bare body (a fault in an instruction kernel, or SYSCALL
    with no kernel mapped) leaves them without that block's retirements
    before the fault, which the [Legacy] engine would have reported one
    by one. *)
val run : t -> entry:int -> ?max_instructions:int -> unit -> run_stats
