(** Runtime introspection: per-domain GC deltas at span boundaries.

    When enabled, every recorded {!Trace.with_span} reads the GC when it
    opens and again when it closes, and records the delta:

    - as inclusive integer args on the span (children on the same
      domain included): [gc.alloc], [gc.promoted], [gc.minor],
      [gc.major] (zeros omitted);
    - in the trace, as per-domain ["gc"] counter tracks (heap size,
      cumulative allocation — Perfetto renders them as graphs aligned
      with the pipeline stages) and ["gc.major"] / ["gc.compact"]
      instant markers.

    Exclusive per-span allocation and the run's GC totals are a
    reduction over those args ({!Telemetry.reduce}), which both
    [--metrics] and [hbbp doctor] read.

    Allocated and promoted words are {e domain-local}: [Gc.minor_words]
    (exact) plus the direct-major part of [Gc.counters], so a span is
    charged only for what its own domain allocated, never for a worker
    it waited on.  Collection counts are {e process-wide} in OCaml 5
    ([Gc.quick_stat]): a span's [gc.minor] counts every collection that
    completed while it was open.

    The profiler only {e reads} runtime state, so arming it cannot
    change profile bytes (test-enforced).  It costs two GC reads per
    recorded span and nothing while span recording is off. *)

val enabled : unit -> bool

(** Install the span-boundary probe ({!Trace.set_probe}).  It runs only
    while {!Trace.enabled}. *)
val enable : unit -> unit

(** Remove the probe.  Call only while no span is in flight. *)
val disable : unit -> unit
