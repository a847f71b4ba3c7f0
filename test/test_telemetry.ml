(* Tests for the telemetry layer: metrics-registry semantics (including
   atomicity under the domain pool), span nesting and ordering in the
   Chrome trace export, the shared JSON string escaper, Domain_pool stats
   and pool.* metric accounting, and the invariant that enabling
   telemetry leaves Pipeline.run profiles byte-identical. *)

open Hbbp_core
module Trace = Hbbp_telemetry.Trace
module Metrics = Hbbp_telemetry.Metrics
module Telemetry = Hbbp_telemetry.Telemetry
module Profiler = Hbbp_telemetry.Runtime_profiler
module Pool = Hbbp_util.Domain_pool

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* Every test leaves the global telemetry state as it found it: off and
   empty. *)
let clean f () =
  let finally () =
    Trace.disable ();
    Trace.reset ();
    Metrics.disable ();
    Metrics.reset ()
  in
  Fun.protect ~finally f

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)

let test_metrics_kinds () =
  Metrics.enable ();
  let c = Metrics.counter "t.counter" in
  Metrics.incr c;
  Metrics.add c 41;
  checki "counter accumulates" 42 (Metrics.counter_value c);
  checki "same name, same counter" 42
    (Metrics.counter_value (Metrics.counter "t.counter"));
  let g = Metrics.gauge "t.gauge" in
  Metrics.set g 1.5;
  Metrics.set g 2.5;
  Alcotest.(check (float 1e-9)) "gauge keeps last" 2.5 (Metrics.gauge_value g);
  let h = Metrics.histogram ~bounds:[| 1.0; 10.0 |] "t.hist" in
  Metrics.observe h 0.5;
  Metrics.observe h 5.0;
  Metrics.observe h 100.0;
  (match Metrics.find (Metrics.snapshot ()) "t.hist" with
  | Some (Metrics.Histogram { buckets; count; sum; _ }) ->
      checki "bucket <=1" 1 buckets.(0);
      checki "bucket <=10" 1 buckets.(1);
      checki "overflow bucket" 1 buckets.(2);
      checki "count" 3 count;
      Alcotest.(check (float 1e-9)) "sum" 105.5 sum
  | _ -> Alcotest.fail "histogram missing from snapshot");
  (match Metrics.gauge "t.counter" with
  | _ -> Alcotest.fail "kind mismatch must raise"
  | exception Invalid_argument _ -> ());
  (* Snapshot is sorted by name. *)
  let names = List.map fst (Metrics.snapshot ()) in
  checkb "snapshot sorted" true (names = List.sort compare names)

let test_metrics_atomic_under_pool () =
  Metrics.enable ();
  let c = Metrics.counter "t.pool_counter" in
  let h = Metrics.histogram ~bounds:[| 10.0 |] "t.pool_hist" in
  let per_task = 10_000 and tasks = 32 in
  Pool.with_pool ~jobs:4 (fun pool ->
      let (_ : unit list) =
        Pool.map pool
          (fun _ ->
            for _ = 1 to per_task do
              Metrics.incr c;
              Metrics.observe h 1.0
            done)
          (List.init tasks Fun.id)
      in
      ());
  checki "no lost counter increments" (per_task * tasks)
    (Metrics.counter_value c);
  match Metrics.find (Metrics.snapshot ()) "t.pool_hist" with
  | Some (Metrics.Histogram { count; sum; _ }) ->
      checki "no lost observations" (per_task * tasks) count;
      Alcotest.(check (float 1e-3))
        "histogram sum exact" (float_of_int (per_task * tasks)) sum
  | _ -> Alcotest.fail "histogram missing"

let test_metrics_disabled_invisible () =
  (* Not enabled: instrumented code guards on [enabled], so the registry
     must report empty after a guarded run. *)
  checkb "disabled by default" false (Metrics.enabled ());
  if Metrics.enabled () then Metrics.incr (Metrics.counter "t.ghost");
  checki "nothing recorded" 0 (List.length (Metrics.snapshot ()))

(* ------------------------------------------------------------------ *)
(* Span tracing                                                        *)

let test_span_nesting_and_order () =
  Trace.enable ();
  let v =
    Trace.with_span ~cat:"test" "outer" (fun () ->
        Trace.with_span "inner-1" (fun () -> ());
        Trace.with_span "inner-2" (fun () ->
            Trace.with_span "leaf" (fun () -> ()));
        17)
  in
  checki "with_span returns the thunk's value" 17 v;
  let spans = Trace.spans () in
  checki "span count" 4 (Trace.span_count ());
  let names = List.map (fun (s : Trace.span) -> s.name) spans in
  Alcotest.(check (list string))
    "start order, parents first"
    [ "outer"; "inner-1"; "inner-2"; "leaf" ]
    names;
  let by_name n =
    List.find (fun (s : Trace.span) -> s.name = n) spans
  in
  checki "outer at depth 0" 0 (by_name "outer").depth;
  checki "inner at depth 1" 1 (by_name "inner-1").depth;
  checki "leaf at depth 2" 2 (by_name "leaf").depth;
  checks "category recorded" "test" (by_name "outer").cat;
  let outer = by_name "outer" and leaf = by_name "leaf" in
  checkb "child starts within parent" true (leaf.start_us >= outer.start_us);
  checkb "child ends within parent" true
    (leaf.start_us +. leaf.dur_us <= outer.start_us +. outer.dur_us +. 1e-6)

let test_span_survives_exception () =
  Trace.enable ();
  (match Trace.with_span "boom" (fun () -> failwith "x") with
  | () -> Alcotest.fail "expected Failure"
  | exception Failure _ -> ());
  checki "raising span still recorded" 1 (Trace.span_count ())

let test_trace_export_shape () =
  Trace.enable ();
  Trace.with_span ~cat:"test"
    ~args:[ ("workload", "quo\"ted") ]
    "exported"
    (fun () -> ());
  let json = Trace.export () in
  let contains sub =
    let n = String.length sub and m = String.length json in
    let rec go i = i + n <= m && (String.sub json i n = sub || go (i + 1)) in
    go 0
  in
  checkb "has traceEvents" true (contains "\"traceEvents\"");
  checkb "has complete event" true (contains "\"ph\":\"X\"");
  checkb "has span name" true (contains "\"exported\"");
  checkb "has thread metadata" true (contains "thread_name");
  checkb "escapes arg strings" true (contains "quo\\\"ted")

let test_json_escape () =
  checks "quote, backslash, short escapes, \\u escape"
    "a\\\"b\\\\c\\nd\\te\\rf\\u0001g"
    (Hbbp_telemetry.Json.escape "a\"b\\c\nd\te\rf\x01g");
  checks "plain text passes through" "caf\xc3\xa9 {x}"
    (Hbbp_telemetry.Json.escape "caf\xc3\xa9 {x}")

let test_counter_and_instant_export () =
  Trace.enable ();
  Trace.counter "t.heap" [ ("words", 123.0); ("top", 456.0) ];
  Trace.instant ~cat:"gc" "major";
  checki "both events recorded" 2 (Trace.event_count ());
  let json = Trace.export () in
  let contains sub =
    let n = String.length sub and m = String.length json in
    let rec go i = i + n <= m && (String.sub json i n = sub || go (i + 1)) in
    go 0
  in
  checkb "counter event exported" true (contains "\"ph\":\"C\"");
  checkb "counter series exported" true (contains "\"words\":123.000");
  checkb "instant event exported" true (contains "\"ph\":\"i\"");
  checkb "instant name exported" true (contains "\"major\"")

let test_spans_across_domains () =
  Trace.enable ();
  Pool.with_pool ~jobs:3 (fun pool ->
      let (_ : int list) =
        Pool.map pool
          (fun x -> Trace.with_span "work" (fun () -> x * 2))
          [ 1; 2; 3; 4; 5; 6 ]
      in
      ());
  let work =
    List.filter (fun (s : Trace.span) -> s.name = "work") (Trace.spans ())
  in
  (* The pool wraps every task in its own "task" span too. *)
  checki "every task traced" 6 (List.length work);
  checkb "worker domains have distinct tracks" true
    (List.length
       (List.sort_uniq compare
          (List.map (fun (s : Trace.span) -> s.track) (Trace.spans ())))
    >= 1)

(* ------------------------------------------------------------------ *)
(* Domain_pool stats                                                   *)

let test_pool_stats_accounting () =
  let spin () = ignore (Sys.opaque_identity (ref 0)) in
  let check_pool jobs =
    Pool.with_pool ~jobs (fun pool ->
        let (_ : unit list) =
          Pool.map pool (fun _ -> spin ()) (List.init 12 Fun.id)
        in
        let stats = Pool.stats pool in
        checki "one cell per worker" jobs (Array.length stats);
        let tasks =
          Array.fold_left (fun acc s -> acc + s.Pool.tasks) 0 stats
        in
        checki "all tasks accounted" 12 tasks;
        Array.iter
          (fun (s : Pool.worker_stats) ->
            checkb "busy time non-negative" true (s.busy_s >= 0.0);
            checkb "wait time non-negative" true (s.wait_s >= 0.0))
          stats)
  in
  (* The sequential path must report equivalent accounting, not zeros. *)
  check_pool 1;
  check_pool 3

(* [shutdown] folds every pool into the same [pool.*] metrics: the time
   gauges must hold the sums over both pools, and each utilization the
   busy share of those sums — not the last pool's numbers beside the
   task counts of both. *)
let test_pool_metrics_accumulate () =
  Metrics.enable ();
  let run_pool jobs =
    let pool = Pool.create ~jobs () in
    let (_ : unit list) =
      Pool.map pool (fun _ -> Unix.sleepf 0.002) (List.init 6 Fun.id)
    in
    Pool.shutdown pool;
    Pool.stats pool
  in
  let a = run_pool 2 and b = run_pool 1 in
  let field k get =
    let at s = if k < Array.length s then get s.(k) else 0.0 in
    at a +. at b
  in
  let gauge name = Metrics.gauge_value (Metrics.gauge name) in
  let checkf = Alcotest.(check (float 1e-9)) in
  let share busy_s wait_s = Pool.utilization { tasks = 0; busy_s; wait_s } in
  checki "tasks add up" 12
    (Metrics.counter_value (Metrics.counter "pool.tasks"));
  let total_busy = ref 0.0 and total_wait = ref 0.0 in
  for k = 0 to 1 do
    let name part = Printf.sprintf "pool.domain%d.%s" k part in
    let busy = field k (fun s -> s.Pool.busy_s) in
    let wait = field k (fun s -> s.Pool.wait_s) in
    total_busy := !total_busy +. busy;
    total_wait := !total_wait +. wait;
    checkf "busy_s is the sum over pools" busy (gauge (name "busy_s"));
    checkf "wait_s is the sum over pools" wait (gauge (name "wait_s"));
    checkf "domain utilization of the sums" (share busy wait)
      (gauge (name "utilization"))
  done;
  checkf "pool utilization of the sums" (share !total_busy !total_wait)
    (gauge "pool.utilization")

(* ------------------------------------------------------------------ *)
(* Pipeline determinism with telemetry enabled                         *)

let mk_workload ~seed name =
  let ctx = Hbbp_workloads.Codegen.create_ctx ~seed in
  let funcs =
    Hbbp_workloads.Codegen.synthetic_funcs ctx ~name:("f_" ^ name) ~helpers:2
      {
        Hbbp_workloads.Codegen.blocks = 15;
        mean_len = 5;
        len_jitter = 3;
        iterations = 6000;
        call_rate = 0.2;
        indirect_calls = false;
        profile = Hbbp_workloads.Codegen.int_only;
      }
  in
  Hbbp_workloads.Codegen.user_workload ~name funcs

let profiles_equal (a : Pipeline.profile) (b : Pipeline.profile) =
  compare a.stats b.stats = 0
  && compare a.pmu_health b.pmu_health = 0
  && compare a.reference.counts b.reference.counts = 0
  && compare a.ebs.Hbbp_analyzer.Ebs_estimator.bbec.counts
       b.ebs.Hbbp_analyzer.Ebs_estimator.bbec.counts
     = 0
  && compare a.lbr.Hbbp_analyzer.Lbr_estimator.bbec.counts
       b.lbr.Hbbp_analyzer.Lbr_estimator.bbec.counts
     = 0
  && compare a.hbbp.counts b.hbbp.counts = 0
  && compare a.reference_mix b.reference_mix = 0
  && compare a.pmu_counts b.pmu_counts = 0
  && compare a.records b.records = 0

let test_telemetry_does_not_change_profiles () =
  let ws =
    [ mk_workload ~seed:0xBEEFL "tel-a"; mk_workload ~seed:0x5EEDL "tel-b" ]
  in
  let keep = { Pipeline.default_config with Pipeline.keep_records = true } in
  let off = List.map (Pipeline.run ~config:keep) ws in
  Trace.enable ();
  Metrics.enable ();
  let on = List.map (Pipeline.run ~config:keep) ws in
  Trace.disable ();
  Metrics.disable ();
  List.iter2
    (fun a b ->
      checkb "profile byte-identical with telemetry enabled" true
        (profiles_equal a b))
    off on;
  checkb "pipeline emitted spans" true (Trace.span_count () > 0);
  match Metrics.find (Metrics.snapshot ()) "pipeline.runs" with
  | Some (Metrics.Counter n) -> checki "runs counted" 2 n
  | _ -> Alcotest.fail "pipeline.runs counter missing"

(* ------------------------------------------------------------------ *)
(* Runtime profiler                                                    *)

let test_profiler_gc_metrics () =
  Metrics.enable ();
  Profiler.enable ();
  Fun.protect
    ~finally:(fun () -> Profiler.disable ())
    (fun () ->
      Trace.with_span "rp-outer" (fun () ->
          Trace.with_span "rp-inner" (fun () ->
              (* Allocate enough that the word delta is
                 unmistakably nonzero. *)
              ignore (Sys.opaque_identity (Array.init 100_000 string_of_int)))));
  let snap = Metrics.snapshot () in
  (match Metrics.find snap "gc.allocated_words" with
  | Some (Metrics.Counter n) -> checkb "allocation accounted" true (n > 0)
  | _ -> Alcotest.fail "gc.allocated_words counter missing");
  (* Exclusive attribution: the allocation happened inside rp-inner, so
     the inner span owns (nearly all of) it; rp-outer must not
     double-count. *)
  let span_words name =
    match Metrics.find snap ("alloc.span." ^ name ^ ".words") with
    | Some (Metrics.Counter n) -> n
    | _ -> 0
  in
  let inner = span_words "rp-inner" and outer = span_words "rp-outer" in
  checkb "inner span owns the allocation" true (inner > 100_000);
  checkb "outer span does not double-count" true (outer < inner);
  match Metrics.find snap "gc.heap_words" with
  | Some (Metrics.Gauge v) -> checkb "heap gauge sampled" true (v > 0.0)
  | _ -> Alcotest.fail "gc.heap_words gauge missing"

let test_profiler_disabled_leaves_no_trace () =
  Metrics.enable ();
  Profiler.enable ();
  Profiler.disable ();
  Trace.with_span "rp-after" (fun () ->
      ignore (Sys.opaque_identity (Array.make 1000 0)));
  let snap = Metrics.snapshot () in
  checkb "no gc metrics after disable" true
    (Metrics.find snap "gc.allocated_words" = None)

(* A span on the main domain that waits on a pool is charged only for
   what the main domain allocated; the workers' allocation lands on
   their own task spans. *)
let test_profiler_worker_allocation () =
  let refs_per_task = 300_000 in
  let allocated = 2 * 2 * refs_per_task in
  Metrics.enable ();
  Profiler.enable ();
  Fun.protect ~finally:Profiler.disable (fun () ->
      Trace.with_span "rp-wait" (fun () ->
          ignore @@ Pool.run ~jobs:2
            (fun n ->
              for _ = 1 to n do
                ignore (Sys.opaque_identity (ref 0))
              done)
            [ refs_per_task; refs_per_task ]));
  let span_words name =
    let key = "alloc.span." ^ name ^ ".words" in
    match Metrics.find (Metrics.snapshot ()) key with
    | Some (Metrics.Counter n) -> n
    | _ -> 0
  in
  checkb "waiting span not charged for the workers" true
    (span_words "rp-wait" < allocated / 10);
  checkb "task spans carry the workers' allocation" true
    (span_words "task" >= allocated)

let test_profiled_byte_identity () =
  let ws = [ mk_workload ~seed:0xACEDL "prof-a" ] in
  let keep = { Pipeline.default_config with Pipeline.keep_records = true } in
  let off = List.map (Pipeline.run ~config:keep) ws in
  Trace.enable ();
  Metrics.enable ();
  Profiler.enable ();
  let on =
    Fun.protect ~finally:Profiler.disable (fun () ->
        List.map (Pipeline.run ~config:keep) ws)
  in
  List.iter2
    (fun a b ->
      checkb "profiles byte-identical with trace, metrics and profiler" true
        (profiles_equal a b))
    off on;
  let any_span_alloc =
    List.exists
      (fun (name, v) ->
        String.starts_with ~prefix:"alloc.span." name
        && match v with Metrics.Counter n -> n > 0 | _ -> false)
      (Metrics.snapshot ())
  in
  checkb "span allocation attributed" true any_span_alloc;
  checkb "spans carry inclusive allocation" true
    (List.exists
       (fun (s : Trace.span) -> List.mem_assoc "gc.alloc" s.args)
       (Trace.spans ()))

(* ------------------------------------------------------------------ *)
(* Telemetry.configure / finalize lifecycle                            *)

let null_ppf =
  Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let test_configure_finalize_lifecycle () =
  let trace_path = Filename.temp_file "hbbp-test-trace" ".json" in
  Fun.protect
    ~finally:(fun () ->
      Telemetry.finalize null_ppf;
      Sys.remove trace_path)
    (fun () ->
      Telemetry.configure ~trace:trace_path ();
      checkb "configure armed tracing" true (Trace.enabled ());
      checkb "profiler auto-armed with a sink" true (Profiler.enabled ());
      (* Double-configure: re-applying the same settings must not lose
         already-recorded spans. *)
      Trace.with_span "before-reconfigure" (fun () -> ());
      Telemetry.configure ~trace:trace_path ();
      Trace.with_span "after-reconfigure" (fun () -> ());
      checkb "reconfigure keeps spans" true (Trace.span_count () >= 2);
      Telemetry.finalize null_ppf;
      (* finalize wrote the trace and tore everything down. *)
      checkb "trace file written" true
        (let ic = open_in trace_path in
         let len = in_channel_length ic in
         close_in ic;
         len > 0);
      checkb "tracing off after finalize" false (Trace.enabled ());
      checkb "metrics off after finalize" false (Metrics.enabled ());
      checkb "profiler off after finalize" false (Profiler.enabled ());
      (* finalize-then-span: a silent no-op, nothing recorded. *)
      Trace.with_span "ghost" (fun () -> ());
      checki "no spans after finalize" 0 (Trace.span_count ());
      (* finalize is idempotent. *)
      Telemetry.finalize null_ppf;
      (* Re-configure after finalize: starts from an empty registry. *)
      Telemetry.configure ~trace:trace_path ();
      checkb "re-armed after finalize" true (Trace.enabled ());
      checki "fresh span buffer" 0 (Trace.span_count ());
      Trace.with_span "reborn" (fun () -> ());
      checki "recording again" 1 (Trace.span_count ()))

let test_configure_metrics_only () =
  Fun.protect
    ~finally:(fun () -> Telemetry.finalize null_ppf)
    (fun () ->
      Telemetry.configure ~metrics:`Json ();
      checkb "metrics armed" true (Metrics.enabled ());
      checkb "tracing stays off" false (Trace.enabled ());
      checkb "active" true (Telemetry.active ());
      (* The health rollup over a clean registry is Ok. *)
      checks "clean registry is healthy" "ok"
        (Hbbp_telemetry.Health.status_name (Telemetry.health ())))

let () =
  Alcotest.run "telemetry"
    [
      ( "metrics",
        [
          Alcotest.test_case "kinds and registry" `Quick
            (clean test_metrics_kinds);
          Alcotest.test_case "atomic under domain pool" `Quick
            (clean test_metrics_atomic_under_pool);
          Alcotest.test_case "disabled records nothing" `Quick
            (clean test_metrics_disabled_invisible);
        ] );
      ( "trace",
        [
          Alcotest.test_case "nesting and order" `Quick
            (clean test_span_nesting_and_order);
          Alcotest.test_case "exception safety" `Quick
            (clean test_span_survives_exception);
          Alcotest.test_case "export shape" `Quick
            (clean test_trace_export_shape);
          Alcotest.test_case "json string escaper" `Quick test_json_escape;
          Alcotest.test_case "counter and instant export" `Quick
            (clean test_counter_and_instant_export);
          Alcotest.test_case "spans across domains" `Quick
            (clean test_spans_across_domains);
        ] );
      ( "profiler",
        [
          Alcotest.test_case "gc metrics at span boundaries" `Quick
            (clean test_profiler_gc_metrics);
          Alcotest.test_case "disable removes the probe" `Quick
            (clean test_profiler_disabled_leaves_no_trace);
          Alcotest.test_case "worker allocation on worker spans"
            `Quick
            (clean test_profiler_worker_allocation);
          Alcotest.test_case "profiled run is byte-identical"
            `Quick
            (clean test_profiled_byte_identity);
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "configure / finalize / re-configure" `Quick
            (clean test_configure_finalize_lifecycle);
          Alcotest.test_case "metrics-only configure and health" `Quick
            (clean test_configure_metrics_only);
        ] );
      ( "pool_stats",
        [
          Alcotest.test_case "accounting for every job count" `Quick
            (clean test_pool_stats_accounting);
          Alcotest.test_case "metrics accumulate over pools" `Quick
            (clean test_pool_metrics_accumulate);
        ] );
      ( "determinism",
        [
          Alcotest.test_case "telemetry leaves profiles byte-identical"
            `Quick
            (clean test_telemetry_does_not_change_profiles);
        ] );
    ]
