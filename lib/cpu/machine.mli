(** The CPU simulator's top-level run loop.

    The machine retires instructions, charging cycles per the timing
    model, and reports what retires to registered observers.  Observers
    implement both software instrumentation (exact counting) and the
    PMU (sampled counting) — running them side by side over a single
    deterministic execution is what lets the experiments compare
    methods on identical ground truth.

    Observers are told at {e block} granularity wherever they can be:
    before every block each one has reported a window — how many
    retirements it can absorb with one notification per retired block
    — and on the tiered engines a block that fits the smallest window
    and the instruction budget runs as a bare block body.  A block that
    does not fit (it could overflow a sampling counter, advance a
    pending PMI or exceed the budget) retires instruction by
    instruction through the per-retirement hook instead.  The [Legacy]
    engine drives only the per-retirement hook, so it is the
    differential oracle for the law every observer keeps: its block
    hook has the effect of folding its per-retirement hook over the
    block's members. *)

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

(** A compiled basic block, as block-level notifications name it. *)
type block = {
  id : int;
      (** Dense per machine (0, 1, … in compile order), so observers
          can key per-block static summaries by it. *)
  nodes : Exec_graph.node array;  (** Members in execution order. *)
}

(** One attachment of an observer to a machine. *)
type hooks = {
  on_retire : retirement -> unit;
      (** Per-instruction detail: called for every retirement of a
          block that does not fit the window, and for every retirement
          on the [Legacy] engine. *)
  on_block : block -> taken_src:int -> taken_tgt:int -> cycles:int -> int;
      (** [on_block b ~taken_src ~taken_tgt ~cycles]: the whole of [b]
          retired inside the window, with no per-instruction calls.
          [taken_src]/[taken_tgt] describe its terminator ([-1] unless
          it branched) and [cycles] is the cumulative cycle count after
          it.  Returns the new window. *)
  window : int -> int;
      (** [window cycles]: how many retirements of the next block the
          observer can absorb through [on_block], given the current
          cumulative cycle count; [0] asks for per-instruction detail,
          [max_int] means any block.  Queried when a run starts and
          after every block retired instruction by instruction; with
          [on_block]'s result, every block is measured against a
          window reported just before it. *)
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

(** How [run] drives the execution graph.  All engines retire
    bit-identical streams — same {!run_stats}, same observer results,
    same faults — and differ only in dispatch cost:

    - [Legacy]: the seed per-instruction loop, notifying observers per
      retirement only; the differential-testing reference.
    - [Block]: per basic block, one cached closure of pre-compiled
      instruction kernels executes the whole block straight-line; the
      dense block cache is consulted at every block boundary.
    - [Superblock]: additionally chains direct fall-through/taken
      successors through pointers patched on first traversal, so
      steady-state execution re-enters the dispatcher only when an
      indirect target (RET, indirect JMP/CALL) changes destination. *)
type engine = Legacy | Block | Superblock

val engine_name : engine -> string
val engine_of_string : string -> engine option
val all_engines : engine list

(** [Superblock] unless the [HBBP_ENGINE] environment variable names
    another engine (unknown values are ignored). *)
val default_engine : unit -> engine

type t

(** [create ~process ()] builds the execution graph from the process's
    {e live} images.  [seed] feeds workload-visible randomness;
    [engine] defaults to {!default_engine}. *)
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
    with no kernel mapped.  An exception raised inside a block that ran
    as a bare body (a fault in an instruction kernel) leaves the
    observers without that block's retirements before the fault, which
    the [Legacy] engine would have reported one by one. *)
val run : t -> entry:int -> ?max_instructions:int -> unit -> run_stats
