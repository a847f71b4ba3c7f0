(* Telemetry overhead bench: demonstrates that the instrumentation the
   telemetry layer threads through the pipeline costs nothing when
   disabled and stays cheap when enabled, and that enabling it does not
   change a single profile byte.  Writes BENCH_telemetry.json.

   Three series over the same workloads, [U.overhead_rounds] rounds:

   - baseline:  telemetry disabled (the default state);
   - disabled:  telemetry disabled again — the baseline re-measured, so
     the reported "disabled overhead" is pure run-to-run noise;
   - enabled:   tracing + metrics armed.

   Each round times baseline and disabled back to back in alternating
   order, then enabled; an overhead is the median over rounds of the
   per-round ratio to the baseline, minus one.  A microbench of the
   disabled [with_span] fast path reports the per-call cost in
   nanoseconds. *)

open Hbbp_core
module Trace = Hbbp_telemetry.Trace
module Metrics = Hbbp_telemetry.Metrics
module U = Bench_util

let workloads () =
  [
    Hbbp_workloads.Fitter.workload Hbbp_workloads.Fitter.Sse;
    Hbbp_workloads.Kernelbench.workload ();
  ]

let run_all ws = List.map (fun w -> Pipeline.run w) ws

(* Per-call cost of a disabled span: with_span around a cheap closure vs
   the closure alone, amortized over [n] calls. *)
let disabled_span_ns () =
  let n = 5_000_000 in
  let sink = ref 0 in
  let body () = incr sink in
  let bare () =
    for _ = 1 to n do
      body ()
    done
  in
  let spanned () =
    for _ = 1 to n do
      Trace.with_span "noop" body
    done
  in
  (* Warm both paths, then best of three each. *)
  bare ();
  spanned ();
  let best f =
    let b = ref infinity in
    for _ = 1 to 3 do
      let dt, () = U.timed f in
      if dt < !b then b := dt
    done;
    !b
  in
  let bare_s = best bare and spanned_s = best spanned in
  (spanned_s -. bare_s) /. float_of_int n *. 1e9

let run ppf =
  U.header ppf "Telemetry overhead (writes BENCH_telemetry.json)";
  Trace.disable ();
  Trace.reset ();
  Metrics.disable ();
  Metrics.reset ();
  let ws = workloads () in
  let rounds = U.overhead_rounds in
  let baseline () = run_all ws in
  let enabled () =
    Trace.reset ();
    Metrics.reset ();
    Trace.enable ();
    Metrics.enable ();
    let timing = U.timed baseline in
    Trace.disable ();
    Metrics.disable ();
    timing
  in
  (* Untimed warmup of both paths: the first round otherwise pays for
     heap growth on behalf of all three series. *)
  ignore (baseline (), enabled ());
  let identical = ref true and span_count = ref 0 in
  let samples =
    List.init rounds (fun round ->
        let (tb, base), (td, _) = U.alternating round baseline baseline in
        let te, ps = enabled () in
        span_count := Trace.span_count ();
        if not (List.for_all2 Perf.profiles_equal base ps) then
          identical := false;
        (tb, td, te))
  in
  Trace.reset ();
  Metrics.reset ();
  let median_s f = U.median f samples in
  let baseline_s = median_s (fun (b, _, _) -> b)
  and disabled_s = median_s (fun (_, d, _) -> d)
  and enabled_s = median_s (fun (_, _, e) -> e) in
  let disabled_overhead = median_s (fun (b, d, _) -> d /. b) -. 1.0
  and enabled_overhead = median_s (fun (b, _, e) -> e /. b) -. 1.0 in
  let span_ns = disabled_span_ns () in
  Format.fprintf ppf
    "%d workloads, %d interleaved rounds (median round; overheads: median \
     per-round ratio)@."
    (List.length ws) rounds;
  Format.fprintf ppf "baseline (telemetry off): %8.3f s@." baseline_s;
  Format.fprintf ppf "disabled re-measure:      %8.3f s  (%+.2f%% = noise)@."
    disabled_s (100.0 *. disabled_overhead);
  Format.fprintf ppf "enabled (trace+metrics):  %8.3f s  (%+.2f%%, %d spans)@."
    enabled_s
    (100.0 *. enabled_overhead)
    !span_count;
  Format.fprintf ppf "disabled with_span cost:  %8.1f ns/call@." span_ns;
  Format.fprintf ppf "profiles byte-identical with telemetry on: %b@."
    !identical;
  if not !identical then
    failwith "BENCH telemetry: enabling telemetry changed profile bytes";
  U.write_out "BENCH_telemetry.json"
    {|{
  %s,
  "workloads": %d,
  "rounds": %d,
  "baseline_s": %.4f,
  "disabled_s": %.4f,
  "enabled_s": %.4f,
  "disabled_overhead": %.4f,
  "enabled_overhead": %.4f,
  "disabled_span_ns": %.1f,
  "spans": %d,
  "profiles_identical": %b
}
|}
    (U.json_header ~bench:"telemetry")
    (List.length ws) rounds baseline_s disabled_s enabled_s disabled_overhead
    enabled_overhead span_ns !span_count !identical;
  Format.fprintf ppf "wrote BENCH_telemetry.json@.";
  (* CI gate: disabled telemetry must be free.  The disabled series is
     the baseline re-measured, and the median of the per-round ratios
     is stable to well under 1% on a shared host, so anything beyond 1%
     is a real regression of the disabled fast path, not noise — fail
     loudly. *)
  if disabled_overhead > 0.01 then
    failwith
      (Printf.sprintf
         "BENCH telemetry: disabled-telemetry overhead %.2f%% exceeds the \
          1%% budget"
         (100.0 *. disabled_overhead))
