(** Runtime introspection: per-domain GC accounting at span boundaries
    plus an opt-in allocation sampler.

    When enabled, every {!Trace.with_span} boundary takes a domain-local
    [Gc.quick_stat] and accounts the delta since the previous boundary
    on that domain:

    - globally, as [gc.minor_collections], [gc.major_collections],
      [gc.compactions], [gc.allocated_words], [gc.promoted_words]
      counters and [gc.heap_words] / [gc.top_heap_words] gauges;
    - {e exclusively} per innermost open span, as
      [alloc.span.<name>.words] counters (nested spans never
      double-count; span totals sum to the global total);
    - in the trace, as per-domain ["gc"] counter tracks (heap size,
      cumulative allocation — Perfetto renders them as graphs aligned
      with the pipeline stages), ["gc.major"] / ["gc.compact"] instant
      markers, and inclusive [gc.*] args on each span.

    The profiler only {e reads} runtime state, so arming it cannot
    change profile bytes (test-enforced).  Overhead is two
    [Gc.quick_stat] calls per span, paid only while enabled; the
    disabled cost of an instrumentation site is unchanged. *)

val enabled : unit -> bool

(** Install the span-boundary probe ({!Trace.set_probe}).  GC metrics
    flow only while {!Metrics.enabled}; trace tracks only while
    {!Trace.enabled}. *)
val enable : unit -> unit

(** Remove the probe and disarm the sampler.  Call only while no span
    is in flight. *)
val disable : unit -> unit

(** {1 Allocation sampler} *)

type sampler_mode =
  | Sampler_off
  | Sampler_memprof  (** statmemprof live ([Gc.Memprof]). *)
  | Sampler_words
      (** [Gc.Memprof.start] unavailable on this runtime (OCaml 5.1/5.2
          multicore raises) — allocation attribution falls back to the
          boundary probe's quick_stat word deltas. *)

(** [arm_sampler ?sampling_rate ()] — try to start [Gc.Memprof] with a
    tracker that attributes each sampled allocation to the innermost
    open span ([alloc.samples], [alloc.sampled_words],
    [alloc.span.<name>.samples]); returns the mode actually armed.
    The tracker never retains blocks, so sampling cannot perturb
    results. *)
val arm_sampler : ?sampling_rate:float -> unit -> sampler_mode

val disarm_sampler : unit -> unit
val sampler_mode_name : sampler_mode -> string
