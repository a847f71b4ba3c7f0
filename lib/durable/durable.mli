(** Crash-safe whole-file writes: tmp + write + [fsync] + [rename].

    Every durable artifact in the system (archives, shards, manifests,
    checkpoints, bench JSON, trace dumps) is published through
    {!write_file}, so a [kill -9] at any byte offset leaves either the
    previous complete file or the new complete file on disk — never a
    torn one.  The staging file lives in the destination directory
    (rename is only atomic within one filesystem) under
    [<path>.tmp.<pid>].

    The [io.*] fault family ({!Fault_plan.io}) injects seeded failures
    at each syscall in the sequence; with no plan armed the extra cost
    is one atomic load per write. *)

(** Raised when the filesystem reports no space (real or injected);
    the staging file has been removed and the destination is
    untouched. *)
exception No_space of string

(** [write_file ~path contents] — atomically replace [path] with
    [contents].  [fsync] (default true) makes the data and the rename
    durable before returning; pass [false] for outputs where crash
    durability doesn't matter (benches).  Transient [fsync]/[rename]
    failures are retried under [retry] (default {!Retry.default});
    exhaustion raises {!Retry.Exhausted}. *)
val write_file : ?fsync:bool -> ?retry:Retry.policy -> path:string -> string -> unit

(** As {!write_file} for [bytes] (no copy). *)
val write_bytes : ?fsync:bool -> ?retry:Retry.policy -> path:string -> bytes -> unit

(** [remove_stale ~path] — delete leftover [<path>.tmp.*] staging
    files from interrupted runs (called on [--resume]); returns the
    number removed. *)
val remove_stale : path:string -> int

(** {1 Tally}

    Process-wide counters ([durable.writes], [durable.bytes]) since
    the last {!reset_tally}.  The telemetry front door records what a
    command added to them as args of its root span
    ([Hbbp_telemetry.Telemetry.with_root]). *)

val tally : unit -> (string * int) list
val reset_tally : unit -> unit
