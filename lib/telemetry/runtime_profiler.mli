(** Runtime introspection: per-domain GC accounting at span boundaries.

    When enabled, every {!Trace.with_span} boundary reads the GC and
    accounts the delta since the previous boundary on that domain:

    - globally, as [gc.minor_collections], [gc.major_collections],
      [gc.compactions], [gc.allocated_words], [gc.promoted_words]
      counters and [gc.heap_words] / [gc.top_heap_words] gauges;
    - {e exclusively} per innermost open span, as
      [alloc.span.<name>.words] counters (nested spans never
      double-count; span totals sum to the global total);
    - in the trace, as per-domain ["gc"] counter tracks (heap size,
      cumulative allocation — Perfetto renders them as graphs aligned
      with the pipeline stages), ["gc.major"] / ["gc.compact"] instant
      markers, and inclusive integer args on each span: [gc.alloc],
      [gc.promoted], [gc.minor], [gc.major] (zeros omitted).

    Allocated and promoted words are {e domain-local}: [Gc.minor_words]
    (exact) plus the direct-major part of [Gc.counters], so a span is
    charged only for what its own domain allocated, never for a worker
    it waited on.  Collection counts and heap words are
    {e process-wide} in OCaml 5 ([Gc.quick_stat]): a span's [gc.minor]
    counts every collection that completed while it was open, and the
    [gc.*_collections] counters sum those over domains.

    The profiler only {e reads} runtime state, so arming it cannot
    change profile bytes (test-enforced).  It costs one GC read per
    span boundary, paid only while enabled; the disabled cost of an
    instrumentation site is unchanged. *)

val enabled : unit -> bool

(** Install the span-boundary probe ({!Trace.set_probe}).  GC metrics
    flow only while {!Metrics.enabled}; trace tracks and span args only
    while {!Trace.enabled}. *)
val enable : unit -> unit

(** Remove the probe.  Call only while no span is in flight. *)
val disable : unit -> unit
