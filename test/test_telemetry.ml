(* Tests for the telemetry layer: span nesting and ordering in the
   Chrome trace export, annotations and the metrics rendered from the
   span tree (including under the domain pool and across job counts),
   the shared JSON string escaper, the pool and allocation reduction,
   and the invariant that enabling telemetry leaves Pipeline.run
   profiles byte-identical. *)

open Hbbp_core
module Trace = Hbbp_telemetry.Trace
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
    Profiler.disable ();
    Trace.disable ();
    Trace.reset ()
  in
  Fun.protect ~finally f

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let metric name =
  List.assoc_opt name (Telemetry.metrics (Trace.spans ()))

let sum name =
  match metric name with
  | Some (Telemetry.Sum n) -> n
  | _ -> Alcotest.failf "no summed metric %s" name

let derived name =
  match metric name with
  | Some (Telemetry.Derived v) -> v
  | _ -> Alcotest.failf "no derived metric %s" name

(* ------------------------------------------------------------------ *)
(* Metrics rendered from the span tree                                 *)

(* Integer args are summed over spans, float args listed per run
   (labelled by the nearest [workload] arg, sorted by it), and args
   without a dot or under [gc.] are not metrics. *)
let test_metrics_kinds () =
  Trace.enable ();
  List.iter
    (fun (w, n, x) ->
      Trace.with_span ~args:[ ("workload", w) ] "run" (fun () ->
          Trace.with_span "stage" (fun () ->
              Trace.annotate (fun () ->
                  [ Trace.int_arg "t.count" n; Trace.float_arg "t.value" x ]));
          Trace.annotate (fun () ->
              [
                Trace.int_arg "t.count" 1; ("plain", "7"); ("gc.alloc", "9");
              ])))
    [ ("zeta", 40, 2.0); ("alpha", 1, 0.25) ];
  Trace.with_span "unlabelled" (fun () ->
      Trace.annotate (fun () -> [ Trace.float_arg "t.value" 1.5 ]));
  checki "counts summed over spans" 43 (sum "t.count");
  (match metric "t.value" with
  | Some (Telemetry.Per_run runs) ->
      Alcotest.(check (list (pair string (float 0.0))))
        "one value per run, sorted by run"
        [ ("-", 1.5); ("alpha", 0.25); ("zeta", 2.0) ]
        runs
  | _ -> Alcotest.fail "t.value is not per-run");
  checkb "an integral float stays per-run" true
    (snd (Trace.float_arg "k.v" 2.0) = "2.0");
  checkb "undotted args are not metrics" true (metric "plain" = None);
  checkb "gc args are totals over the roots, not sums over spans" true
    (metric "gc.alloc" = Some (Telemetry.Derived 18.0));
  let names = List.map fst (Telemetry.metrics (Trace.spans ())) in
  checkb "rows sorted by name" true (names = List.sort compare names);
  let json = Telemetry.to_json (Telemetry.metrics (Trace.spans ())) in
  checkb "json per-run rows name their run" true
    (contains json
       ("\"t.value\":{\"type\":\"per_run\","
       ^ "\"runs\":[{\"run\":\"-\",\"value\":1.5}"))

(* Annotations made concurrently from pool workers land on their own
   task spans, and none is lost: the rendered sum is exact. *)
let test_metrics_atomic_under_pool () =
  Trace.enable ();
  let per_task = 1_000 and tasks = 32 in
  Pool.with_pool ~jobs:4 (fun pool ->
      let (_ : unit list) =
        Pool.map pool
          (fun _ ->
            for _ = 1 to per_task do
              Trace.annotate (fun () -> [ Trace.int_arg "t.pool_counter" 1 ])
            done)
          (List.init tasks Fun.id)
      in
      ());
  checki "no lost annotations" (per_task * tasks) (sum "t.pool_counter");
  checki "every call counted" (per_task * tasks) (Trace.annotation_count ());
  checkb "each on its task span" true
    (List.for_all
       (fun (s : Trace.span) ->
         s.cat = "pool" && s.name = "task" && List.length s.args = per_task)
       (Trace.spans ()))

(* With recording off, [annotate] neither calls its thunk nor records
   anything. *)
let test_metrics_disabled_invisible () =
  checkb "disabled by default" false (Trace.enabled ());
  let called = ref false in
  Trace.with_span "off" (fun () ->
      Trace.annotate (fun () ->
          called := true;
          [ Trace.int_arg "t.ghost" 1 ]));
  Trace.annotate (fun () ->
      called := true;
      []);
  checkb "thunk not called" false !called;
  checki "no span" 0 (Trace.span_count ());
  checki "no annotation" 0 (Trace.annotation_count ());
  checki "no metric" 0 (List.length (Telemetry.metrics (Trace.spans ())))

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
(* Pool accounting from the task spans                                 *)

(* The reduction reads one task span per task, on the track of the
   domain that ran it: the sequential path runs them all on the
   caller's domain. *)
let test_pool_stats_accounting () =
  let spin () = ignore (Sys.opaque_identity (ref 0)) in
  let check_pool jobs =
    Trace.reset ();
    Trace.enable ();
    Pool.with_pool ~jobs (fun pool ->
        let (_ : unit list) =
          Pool.map pool (fun _ -> spin ()) (List.init 12 Fun.id)
        in
        ());
    Trace.disable ();
    let r = Telemetry.reduce (Trace.spans ()) in
    checkb "at most one entry per worker" true (List.length r.domains <= jobs);
    checki "all tasks accounted" 12
      (List.fold_left
         (fun acc (d : Telemetry.domain) -> acc + d.tasks)
         0 r.domains);
    List.iter
      (fun (d : Telemetry.domain) ->
        checkb "busy time non-negative" true (d.busy_s >= 0.0))
      r.domains;
    if jobs = 1 then
      Alcotest.(check (list int)) "the caller's domain ran them"
        [ (Domain.self () :> int) ]
        (List.map (fun (d : Telemetry.domain) -> d.domain) r.domains)
  in
  check_pool 1;
  check_pool 3

(* The rendered [pool.*] rows cover every pool whose tasks were
   recorded: the task count and busy seconds are the sums over both
   pools' task spans, per domain and in total. *)
let test_pool_metrics_accumulate () =
  Trace.enable ();
  let run_pool jobs =
    Pool.with_pool ~jobs (fun pool ->
        let (_ : unit list) =
          Pool.map pool (fun _ -> Unix.sleepf 0.002) (List.init 6 Fun.id)
        in
        ())
  in
  run_pool 2;
  run_pool 1;
  let tasks =
    List.filter (fun (s : Trace.span) -> s.cat = "pool") (Trace.spans ())
  in
  let secs ts =
    List.fold_left (fun a (s : Trace.span) -> a +. (s.dur_us /. 1e6)) 0.0 ts
  in
  let checkf = Alcotest.(check (float 1e-9)) in
  checkf "tasks add up" 12.0 (derived "pool.tasks");
  checkf "busy_s is the sum over pools" (secs tasks) (derived "pool.busy_s");
  List.iter
    (fun track ->
      let mine = List.filter (fun (s : Trace.span) -> s.track = track) tasks in
      checkf "domain tasks" (float_of_int (List.length mine))
        (derived (Printf.sprintf "pool.domain%d.tasks" track));
      checkf "domain busy_s" (secs mine)
        (derived (Printf.sprintf "pool.domain%d.busy_s" track)))
    (List.sort_uniq compare (List.map (fun (s : Trace.span) -> s.track) tasks));
  checkb "busy time spent" true (derived "pool.busy_s" >= 12.0 *. 0.002)

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

(* The profiles of [ws], and the record streams their runs feed, as
   collection writes them. *)
let profiles_and_archives ws =
  ( List.map Pipeline.run ws,
    List.map
      (fun w ->
        Hbbp_collector.Perf_data.to_bytes (Pipeline.collect_archive w))
      ws )

let test_telemetry_does_not_change_profiles () =
  let ws =
    [ mk_workload ~seed:0xBEEFL "tel-a"; mk_workload ~seed:0x5EEDL "tel-b" ]
  in
  let off, off_archives = profiles_and_archives ws in
  Trace.enable ();
  let on, on_archives = profiles_and_archives ws in
  Trace.disable ();
  List.iter2
    (fun a b ->
      checkb "profile byte-identical with telemetry enabled" true
        (profiles_equal a b))
    off on;
  checkb "archives byte-identical with telemetry enabled" true
    (List.for_all2 Bytes.equal off_archives on_archives);
  checkb "pipeline emitted spans" true (Trace.span_count () > 0);
  checki "runs counted" 2 (sum "pipeline.runs")

(* The rendered rows of a multi-workload run are a function of the
   workloads, not of the job count.  Left out: the [gc.*] rows, which
   count process-wide collections; the [pool.*] rows, which name the
   worker domains and hold their busy seconds; and the [alloc.*] rows,
   which charge each span its own domain's allocation — the root span
   pays for spawning the workers, and a run on a fresh worker domain
   allocates a few words more than on the caller's. *)
let test_metrics_independent_of_jobs () =
  let ws = List.map Hbbp_workloads.Registry.find [ "hello"; "mcf" ] in
  let rendered jobs =
    Trace.reset ();
    Trace.enable ();
    Profiler.enable ();
    let profiles = Pipeline.run_many ~jobs ws in
    Profiler.disable ();
    Trace.disable ();
    let rows =
      List.filter
        (fun (name, _) ->
          not
            (List.exists
               (fun prefix -> String.starts_with ~prefix name)
               [ "gc."; "pool."; "alloc." ]))
        (Telemetry.metrics (Trace.spans ()))
    in
    (profiles, Format.asprintf "%a" Telemetry.pp_table rows)
  in
  let profiles, one = rendered 1 in
  let _, two = rendered 2 in
  checks "-j 1 and -j 2 render the same rows" one two;
  checkb "per-run rows are listed per workload" true
    (contains one "pipeline.sde_slowdown" && contains one " hello "
    && contains one " mcf ");
  let total f = List.fold_left (fun acc p -> acc + f p) 0 profiles in
  checki "pipeline.retired = sum over the profiles"
    (total (fun (p : Pipeline.profile) -> p.stats.retired))
    (sum "pipeline.retired");
  checki "pmu.pmi_count = sum over the profiles"
    (total (fun (p : Pipeline.profile) -> p.pmu_health.pmi_count))
    (sum "pmu.pmi_count")

(* ------------------------------------------------------------------ *)
(* Runtime profiler                                                    *)

let self_alloc site =
  Option.value ~default:0
    (List.assoc_opt site (Telemetry.reduce (Trace.spans ())).self_alloc)

let test_profiler_gc_metrics () =
  Trace.enable ();
  Profiler.enable ();
  Fun.protect
    ~finally:(fun () -> Profiler.disable ())
    (fun () ->
      Trace.with_span "rp-outer" (fun () ->
          Trace.with_span "rp-inner" (fun () ->
              (* Allocate enough that the word delta is
                 unmistakably nonzero. *)
              ignore (Sys.opaque_identity (Array.init 100_000 string_of_int)))));
  checkb "allocation accounted" true (derived "gc.alloc" > 0.0);
  (* Exclusive attribution: the allocation happened inside rp-inner, so
     the inner span owns (nearly all of) it; rp-outer must not
     double-count. *)
  let inner = self_alloc "hbbp/rp-inner"
  and outer = self_alloc "hbbp/rp-outer" in
  checkb "inner span owns the allocation" true (inner > 100_000);
  checkb "outer span does not double-count" true (outer < inner);
  checkb "self allocations sum to the total" true
    (float_of_int (inner + outer) = derived "gc.alloc");
  checkb "heap sampled on the gc counter track" true
    (List.exists
       (function
         | Trace.Counter { e_name = "gc"; e_values; _ } ->
             List.assoc "heap_words" e_values > 0.0
         | _ -> false)
       (Trace.events ()))

let test_profiler_disabled_leaves_no_trace () =
  Trace.enable ();
  Profiler.enable ();
  Profiler.disable ();
  Trace.with_span "rp-after" (fun () ->
      ignore (Sys.opaque_identity (Array.make 1000 0)));
  checkb "no gc args after disable" true
    (List.for_all (fun (s : Trace.span) -> s.args = []) (Trace.spans ()));
  checkb "no gc metrics after disable" true (metric "gc.alloc" = None)

(* A span on the main domain that waits on a pool is charged only for
   what the main domain allocated; the workers' allocation lands on
   their own task spans. *)
let test_profiler_worker_allocation () =
  let refs_per_task = 300_000 in
  let allocated = 2 * 2 * refs_per_task in
  Trace.enable ();
  Profiler.enable ();
  Fun.protect ~finally:Profiler.disable (fun () ->
      Trace.with_span "rp-wait" (fun () ->
          ignore @@ Pool.run ~jobs:2
            (fun n ->
              for _ = 1 to n do
                ignore (Sys.opaque_identity (ref 0))
              done)
            [ refs_per_task; refs_per_task ]));
  checkb "waiting span not charged for the workers" true
    (self_alloc "hbbp/rp-wait" < allocated / 10);
  checkb "task spans carry the workers' allocation" true
    (self_alloc "pool/task" >= allocated)

let test_profiled_byte_identity () =
  let ws = [ mk_workload ~seed:0xACEDL "prof-a" ] in
  let off, off_archives = profiles_and_archives ws in
  Trace.enable ();
  Profiler.enable ();
  let on, on_archives =
    Fun.protect ~finally:Profiler.disable (fun () -> profiles_and_archives ws)
  in
  List.iter2
    (fun a b ->
      checkb "profiles byte-identical with spans and profiler" true
        (profiles_equal a b))
    off on;
  checkb "archives byte-identical with spans and profiler" true
    (List.for_all2 Bytes.equal off_archives on_archives);
  checkb "span allocation attributed" true
    (List.exists
       (fun (_, n) -> n > 0)
       (Telemetry.reduce (Trace.spans ())).self_alloc);
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
      checkb "profiler off after finalize" false (Profiler.enabled ());
      (* finalize-then-span: a silent no-op, nothing recorded. *)
      Trace.with_span "ghost" (fun () -> ());
      checki "no spans after finalize" 0 (Trace.span_count ());
      (* finalize is idempotent. *)
      Telemetry.finalize null_ppf;
      (* Re-configure after finalize: starts from empty buffers. *)
      Telemetry.configure ~trace:trace_path ();
      checkb "re-armed after finalize" true (Trace.enabled ());
      checki "fresh span buffer" 0 (Trace.span_count ());
      Trace.with_span "reborn" (fun () -> ());
      checki "recording again" 1 (Trace.span_count ()))

(* [--metrics] alone records spans, renders them from the command's
   root span down, and writes no trace file. *)
let test_configure_metrics_only () =
  let out = Buffer.create 256 in
  Fun.protect
    ~finally:(fun () -> Telemetry.finalize null_ppf)
    (fun () ->
      Telemetry.configure ~metrics:`Json ();
      checkb "span recording armed" true (Trace.enabled ());
      checkb "active" true (Telemetry.active ());
      Telemetry.with_root "test" (fun () ->
          Trace.annotate (fun () -> [ Trace.int_arg "t.root" 3 ]));
      Telemetry.finalize (Format.formatter_of_buffer out));
  let text = Buffer.contents out in
  checkb "metrics printed" true
    (contains text "\"t.root\":{\"type\":\"sum\",\"value\":3}");
  checkb "no trace written" false (contains text "wrote trace");
  checkb "recording off after finalize" false (Trace.enabled ())

let () =
  Alcotest.run "telemetry"
    [
      ( "metrics",
        [
          Alcotest.test_case "kinds rendered from the span tree" `Quick
            (clean test_metrics_kinds);
          Alcotest.test_case "atomic under domain pool" `Quick
            (clean test_metrics_atomic_under_pool);
          Alcotest.test_case "disabled records nothing" `Quick
            (clean test_metrics_disabled_invisible);
          Alcotest.test_case "same rows at -j 1 and -j 2" `Quick
            (clean test_metrics_independent_of_jobs);
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
          Alcotest.test_case "metrics-only configure" `Quick
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
