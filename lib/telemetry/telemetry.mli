(** Front-door configuration glue used by the CLI, the bench driver and
    the examples: turn the observability subsystems on from explicit
    settings or the environment, and flush everything once at the end of
    a run.

    Subsystems and their sources (explicit argument wins, then the
    environment variable, then off):

    - span tracing → Chrome trace file: [?trace] / [HBBP_TRACE=FILE]
    - metrics snapshot printed at exit: [?metrics] / [HBBP_METRICS=json|table]
    - runtime profiler ({!Runtime_profiler}): on exactly when any of
      the above is armed *)

type metrics_format = [ `Json | `Table ]

(** [configure ()] — arm the subsystems listed above.  Calling it again
    re-applies; it is idempotent. *)
val configure : ?trace:string -> ?metrics:metrics_format -> unit -> unit

(** True when {!configure} armed anything. *)
val active : unit -> bool

(** [finalize ppf] — flush and tear everything down: disable the
    profiler, write the trace file, print the metrics snapshot to
    [ppf], then disable {e and reset} tracing and metrics.  After
    [finalize] an instrumented span is a ~2 ns no-op again, and a later
    {!configure} starts from an empty registry.  Idempotent. *)
val finalize : Format.formatter -> unit
