(* Telemetry overhead bench: demonstrates that the instrumentation the
   telemetry layer threads through the pipeline costs nothing when
   disabled and stays cheap when enabled, and that enabling it does not
   change a single profile byte.  Writes BENCH_telemetry.json.

   Two series over the same workloads, [U.overhead_rounds] rounds:

   - baseline:  telemetry disabled (the default state);
   - enabled:   span recording armed (what --trace and --metrics both
                arm).

   The enabled overhead is the median over rounds of the per-round ratio
   to the baseline, minus one.  The disabled cost is not timed as a
   series: a second telemetry-off series would re-measure the baseline
   and show only noise.  It is an exact count instead — the spans one
   round opens and the [annotate] calls it makes (both read from the
   enabled run), each times the per-call cost of its disabled fast
   path, which a microbench measures — over the median baseline round
   time. *)

open Hbbp_core
module Trace = Hbbp_telemetry.Trace
module U = Bench_util

let workloads () =
  [
    Hbbp_workloads.Fitter.workload Hbbp_workloads.Fitter.Sse;
    Hbbp_workloads.Kernelbench.workload ();
  ]

let run_all ws = List.map (fun w -> Pipeline.run w) ws

(* Per-call cost of a disabled instrumentation site: [site body] vs
   [body] alone, amortized over [n] calls.  [n] fills ~50 ms of
   instrumented calls (at most 5M), so the estimate stays cheap however
   slow the disabled path is. *)
let disabled_ns site =
  let sink = ref 0 in
  let body () = incr sink in
  let bare n =
    for _ = 1 to n do
      body ()
    done
  in
  let instrumented n =
    for _ = 1 to n do
      site body
    done
  in
  let probe, () = U.timed (fun () -> instrumented 1000) in
  let n =
    max 100 (min 5_000_000 (int_of_float (0.05 /. (probe /. 1000.0))))
  in
  (* Warm both paths, then best of three each. *)
  bare n;
  instrumented n;
  let best f =
    let b = ref infinity in
    for _ = 1 to 3 do
      let dt, () = U.timed (fun () -> f n) in
      if dt < !b then b := dt
    done;
    !b
  in
  let bare_s = best bare and instrumented_s = best instrumented in
  (instrumented_s -. bare_s) /. float_of_int n *. 1e9

(* A disabled span around [body]; a disabled annotation beside it, its
   thunk a closure over a local, as the pipeline's are. *)
let span_site body = Trace.with_span "noop" body

let annotate_site body =
  Trace.annotate (fun () -> body (); []);
  body ()

let run ppf =
  U.header ppf "Telemetry overhead (writes BENCH_telemetry.json)";
  Trace.disable ();
  Trace.reset ();
  let ws = workloads () in
  let rounds = U.overhead_rounds in
  let baseline () = run_all ws in
  let enabled () =
    Trace.reset ();
    Trace.enable ();
    let timing = U.timed baseline in
    Trace.disable ();
    timing
  in
  (* Untimed warmup of both paths: the first round otherwise pays for
     heap growth on behalf of both series. *)
  ignore (baseline (), enabled ());
  let identical = ref true and span_count = ref 0 and annotations = ref 0 in
  let samples =
    List.init rounds (fun _ ->
        let tb, base = U.timed baseline in
        let te, ps = enabled () in
        span_count := Trace.span_count ();
        annotations := Trace.annotation_count ();
        if not (List.for_all2 Perf.profiles_equal base ps) then
          identical := false;
        (tb, te))
  in
  Trace.reset ();
  let baseline_s = U.median fst samples and enabled_s = U.median snd samples in
  let enabled_overhead = U.median (fun (b, e) -> e /. b) samples -. 1.0 in
  let span_ns = disabled_ns span_site
  and annotate_ns = disabled_ns annotate_site in
  let disabled_share =
    ((float_of_int !span_count *. span_ns)
    +. (float_of_int !annotations *. annotate_ns))
    *. 1e-9 /. baseline_s
  in
  Format.fprintf ppf
    "%d workloads, %d rounds (median round; enabled overhead: median \
     per-round ratio)@."
    (List.length ws) rounds;
  Format.fprintf ppf "baseline (telemetry off): %8.3f s@." baseline_s;
  Format.fprintf ppf
    "enabled (spans recorded): %8.3f s  (%+.2f%%, %d spans, %d annotations)@."
    enabled_s
    (100.0 *. enabled_overhead)
    !span_count !annotations;
  Format.fprintf ppf "disabled with_span cost:  %8.1f ns/call@." span_ns;
  Format.fprintf ppf "disabled annotate cost:   %8.1f ns/call@." annotate_ns;
  Format.fprintf ppf
    "disabled share:           %8.5f%%  (calls x ns/call / baseline)@."
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
  "disabled_annotate_ns": %.1f,
  "annotations": %d,
  "disabled_share": %.3e,
  "profiles_identical": %b
}
|}
    (U.json_header ~bench:"telemetry")
    (List.length ws) rounds baseline_s enabled_s enabled_overhead span_ns
    !span_count annotate_ns !annotations disabled_share !identical;
  Format.fprintf ppf "wrote BENCH_telemetry.json@.";
  (* CI gate: disabled telemetry must be free.  The share is exact call
     counts times per-call costs measured over millions of calls,
     so it does not carry the ~10% round-to-round noise of timing whole
     pipeline runs; beyond 1% the disabled fast path itself regressed. *)
  if disabled_share > 0.01 then
    failwith
      (Printf.sprintf
         "BENCH telemetry: disabled-telemetry share %.2f%% exceeds the 1%% \
          budget"
         (100.0 *. disabled_share))
