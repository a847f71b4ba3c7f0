(** Front-door configuration glue used by the CLI, the bench driver and
    the examples: turn the observability sinks on from explicit
    settings or the environment, and flush them once at the end of a
    run.  Both sinks read one artifact, the span tree ({!Trace}).

    Sinks and their sources (explicit argument wins, then the
    environment variable, then off):

    - Chrome trace file: [?trace] / [HBBP_TRACE=FILE]
    - metrics rendered from the span tree at exit:
      [?metrics] / [HBBP_METRICS=json|table]

    Either sink arms span recording and the runtime profiler
    ({!Runtime_profiler}). *)

type metrics_format = [ `Json | `Table ]

(** [configure ()] — arm the sinks listed above.  Calling it again
    re-applies; it is idempotent. *)
val configure : ?trace:string -> ?metrics:metrics_format -> unit -> unit

(** True when {!configure} armed anything. *)
val active : unit -> bool

(** [with_root name f] — run [f] inside the command's root span
    ([hbbp/<name>]).  When [f] returns, the span gets the [retry.*] and
    [durable.*] tallies accumulated while it ran, as integer args;
    other whole-command tallies (the CLI's [faults.*]) are annotated
    onto it from inside [f]. *)
val with_root : string -> (unit -> 'a) -> 'a

(** [finalize ppf] — flush and tear everything down: disable the
    profiler, write the trace file, print the metrics to [ppf], then
    disable {e and reset} span recording.  After [finalize] an
    instrumented span is a ~2 ns no-op again, and a later {!configure}
    starts from empty buffers.  Idempotent. *)
val finalize : Format.formatter -> unit

(** {1 Reading the span tree} *)

(** The [pool]/[task] spans of one domain. *)
type domain = {
  domain : int;  (** Runtime domain id, the spans' track. *)
  tasks : int;
  busy_s : float;  (** Sum of the task spans' durations. *)
  minor : int;  (** Their [gc.minor] args (process-wide collections). *)
  major : int;
  allocated_words : int;  (** Their [gc.alloc] args (domain-local). *)
}

type reduction = {
  domains : domain list;  (** Sorted by domain id. *)
  self_alloc : (string * int) list;
      (** Exclusive allocation by [cat/name], sorted: each span's
          inclusive [gc.alloc] minus its children's on the same track,
          summed over the spans of that name. *)
  gc : (string * int) list;
      (** [gc.alloc], [gc.promoted], [gc.minor], [gc.major] summed over
          the root spans (those whose parent is not in the list). *)
}

(** [reduce spans] — the pool and allocation accounting of [spans],
    given in {!Trace.spans} order.  [--metrics] and [hbbp doctor] both
    read it. *)
val reduce : Trace.span list -> reduction

(** How a metric row was computed. *)
type metric =
  | Sum of int
      (** An integer arg ({!Trace.int_arg}) summed over every span. *)
  | Per_run of (string * float) list
      (** A float arg ({!Trace.float_arg}), one value per span that
          carries it, labelled with its run — the [workload] arg of the
          nearest enclosing span that has one, ["-"] if none — and
          sorted by run (spans of one run in span order). *)
  | Derived of float
      (** From {!reduce}: [pool.*] tasks and busy seconds, exclusive
          [alloc.<cat/name>] words, and the [gc.*] totals. *)

(** [metrics spans] — every metric row of [spans], sorted by name.  Only
    args whose key contains a dot are metrics; [gc.*] args reach them
    only through {!reduce}. *)
val metrics : Trace.span list -> (string * metric) list

val to_json : (string * metric) list -> string
val pp_table : Format.formatter -> (string * metric) list -> unit
