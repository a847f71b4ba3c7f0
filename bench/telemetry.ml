(* Telemetry overhead bench: demonstrates that the instrumentation the
   telemetry layer threads through the pipeline costs nothing when
   disabled and stays cheap when enabled, and that enabling it does not
   change a single profile byte.  Writes BENCH_telemetry.json.

   Two series over the same workloads, [U.overhead_rounds] rounds:

   - baseline:  telemetry disabled (the default state);
   - enabled:   tracing + metrics armed.

   The enabled overhead is the median over rounds of the per-round ratio
   to the baseline, minus one.  The disabled cost is not timed as a
   series: a second telemetry-off series would re-measure the baseline
   and show only noise.  It is an exact count instead — the spans one
   round opens (read from the enabled run) times the per-call cost of
   the disabled [with_span] fast path, which a microbench measures —
   over the median baseline round time. *)

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
   the closure alone, amortized over [n] calls.  [n] fills ~50 ms of
   spanned calls (at most 5M), so the estimate stays cheap however slow
   the disabled path is. *)
let disabled_span_ns () =
  let sink = ref 0 in
  let body () = incr sink in
  let bare n =
    for _ = 1 to n do
      body ()
    done
  in
  let spanned n =
    for _ = 1 to n do
      Trace.with_span "noop" body
    done
  in
  let probe, () = U.timed (fun () -> spanned 1000) in
  let n =
    max 100 (min 5_000_000 (int_of_float (0.05 /. (probe /. 1000.0))))
  in
  (* Warm both paths, then best of three each. *)
  bare n;
  spanned n;
  let best f =
    let b = ref infinity in
    for _ = 1 to 3 do
      let dt, () = U.timed (fun () -> f n) in
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
     heap growth on behalf of both series. *)
  ignore (baseline (), enabled ());
  let identical = ref true and span_count = ref 0 in
  let samples =
    List.init rounds (fun _ ->
        let tb, base = U.timed baseline in
        let te, ps = enabled () in
        span_count := Trace.span_count ();
        if not (List.for_all2 Perf.profiles_equal base ps) then
          identical := false;
        (tb, te))
  in
  Trace.reset ();
  Metrics.reset ();
  let baseline_s = U.median fst samples and enabled_s = U.median snd samples in
  let enabled_overhead = U.median (fun (b, e) -> e /. b) samples -. 1.0 in
  let span_ns = disabled_span_ns () in
  let disabled_share =
    float_of_int !span_count *. span_ns *. 1e-9 /. baseline_s
  in
  Format.fprintf ppf
    "%d workloads, %d rounds (median round; enabled overhead: median \
     per-round ratio)@."
    (List.length ws) rounds;
  Format.fprintf ppf "baseline (telemetry off): %8.3f s@." baseline_s;
  Format.fprintf ppf "enabled (trace+metrics):  %8.3f s  (%+.2f%%, %d spans)@."
    enabled_s
    (100.0 *. enabled_overhead)
    !span_count;
  Format.fprintf ppf "disabled with_span cost:  %8.1f ns/call@." span_ns;
  Format.fprintf ppf
    "disabled share:           %8.5f%%  (spans x ns/call / baseline)@."
    (100.0 *. disabled_share);
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
  "enabled_s": %.4f,
  "enabled_overhead": %.4f,
  "disabled_span_ns": %.1f,
  "spans": %d,
  "disabled_share": %.3e,
  "profiles_identical": %b
}
|}
    (U.json_header ~bench:"telemetry")
    (List.length ws) rounds baseline_s enabled_s enabled_overhead span_ns
    !span_count disabled_share !identical;
  Format.fprintf ppf "wrote BENCH_telemetry.json@.";
  (* CI gate: disabled telemetry must be free.  The share is an exact
     span count times a per-call cost measured over millions of calls,
     so it does not carry the ~10% round-to-round noise of timing whole
     pipeline runs; beyond 1% the disabled fast path itself regressed. *)
  if disabled_share > 0.01 then
    failwith
      (Printf.sprintf
         "BENCH telemetry: disabled-telemetry share %.2f%% exceeds the 1%% \
          budget"
         (100.0 *. disabled_share))
