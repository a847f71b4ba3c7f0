(** Instruction semantics.

    [step] executes exactly one instruction against the architectural
    state and reports how control continues.  Data semantics are faithful
    for integer and scalar-FP code and value-level (per-lane, not
    bit-exact) for SIMD — sufficient to drive realistic, data-dependent
    control flow, which is what the profiling experiments need. *)

type control =
  | Fall  (** Continue at the next instruction. *)
  | Taken of int  (** A taken branch (jump, taken Jcc, call, ret). *)
  | Syscall_enter of int  (** SYSCALL retired; payload = return address. *)
  | Sysret_exit of int  (** SYSRET retired; payload = target address. *)
  | Halt

exception Fault of string
(** Raised on malformed operand combinations or division-free contract
    violations — indicates a bug in a workload, not a recoverable
    condition. *)

(** [step state node] — executes [node.instr].  [state.ip] is expected to
    equal [node.addr]. *)
val step : State.t -> Exec_graph.node -> control

type kernel = State.t -> control
(** A pre-compiled instruction: the mnemonic dispatch, operand shapes,
    register codes, effective-address forms, immediates and direct
    branch targets of one node resolved into a single closure. *)

(** [compile node] specializes [node] into a {!kernel} computing exactly
    the state transition of [step state node] — same values, same
    evaluation order, same faults.  Instructions without a
    specialization (rare forms, cross-lane shuffles) get a [step]
    thunk, so compiling never changes behaviour, only cost. *)
val compile : Exec_graph.node -> kernel

(** [compile_flat node] is the specializer behind {!compile}: [None]
    means the node runs through the [step] fallback.  Exposed so tests
    and benchmarks can check each specialized shape against [step] and
    measure specialization coverage on real workloads. *)
val compile_flat : Exec_graph.node -> kernel option
