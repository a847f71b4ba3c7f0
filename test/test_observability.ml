(* Tests for the pool's task spans and the doctor's parallel-efficiency
   attribution. *)

open Hbbp_core
module Trace = Hbbp_telemetry.Trace
module Telemetry = Hbbp_telemetry.Telemetry
module Pool = Hbbp_util.Domain_pool

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let clean f () =
  let finally () =
    Trace.disable ();
    Trace.reset ()
  in
  Fun.protect ~finally f

(* ------------------------------------------------------------------ *)
(* Pool timelines                                                      *)

(* The [pool]/[task] spans are the pool's only timeline: one per task,
   on the track of the domain that ran it — the caller's on the
   sequential path, at most one worker's each otherwise — and the
   reduction's per-domain task counts are those spans' counts. *)
let test_pool_timeline () =
  let tasks = 8 in
  let check_timeline jobs =
    Trace.reset ();
    Trace.enable ();
    Pool.with_pool ~jobs (fun pool ->
        let (_ : unit list) =
          Pool.map pool
            (fun _ -> ignore (Sys.opaque_identity (ref 0)))
            (List.init tasks Fun.id)
        in
        ());
    Trace.disable ();
    let task_spans =
      List.filter
        (fun (s : Trace.span) -> s.cat = "pool" && s.name = "task")
        (Trace.spans ())
    in
    checki "one task span per task" tasks (List.length task_spans);
    let tracks =
      List.sort_uniq compare
        (List.map (fun (s : Trace.span) -> s.track) task_spans)
    in
    let caller = (Domain.self () :> int) in
    if jobs = 1 then
      Alcotest.(check (list int)) "sequential tasks on the caller's track"
        [ caller ] tracks
    else
      checkb "parallel tasks on at most [jobs] worker tracks" true
        (List.length tracks <= jobs && not (List.mem caller tracks));
    Alcotest.(check (list (pair int int)))
      "reduction task counts = span counts per track"
      (List.map
         (fun track ->
           let mine (s : Trace.span) = s.track = track in
           (track, List.length (List.filter mine task_spans)))
         tracks)
      (List.map
         (fun (d : Telemetry.domain) -> (d.domain, d.tasks))
         (Telemetry.reduce (Trace.spans ())).domains)
  in
  (* The sequential path must trace its tasks too. *)
  check_timeline 1;
  check_timeline 3

(* ------------------------------------------------------------------ *)
(* Doctor                                                              *)

let mk_workload ~seed name =
  let ctx = Hbbp_workloads.Codegen.create_ctx ~seed in
  let funcs =
    Hbbp_workloads.Codegen.synthetic_funcs ctx ~name:("f_" ^ name) ~helpers:2
      {
        Hbbp_workloads.Codegen.blocks = 15;
        mean_len = 5;
        len_jitter = 3;
        iterations = 4000;
        call_rate = 0.2;
        indirect_calls = false;
        profile = Hbbp_workloads.Codegen.int_only;
      }
  in
  Hbbp_workloads.Codegen.user_workload ~name funcs

let test_doctor_report () =
  let w = mk_workload ~seed:0xD0C7L "doc-a" in
  let report = Doctor.run ~max_jobs:2 ~shards:4 w in
  checks "workload recorded" "doc-a" report.Doctor.rep_workload;
  checki "requested shard count" 4 report.Doctor.rep_shards;
  checkb "records counted" true (report.Doctor.rep_records > 0);
  checki "one run per job count" 2 (List.length report.Doctor.rep_runs);
  checkb "reconstruction consistent across job counts" true
    report.Doctor.rep_consistent;
  let r1 = List.hd report.Doctor.rep_runs in
  checki "first run is -j 1" 1 r1.Doctor.jr_jobs;
  Alcotest.(check (float 1e-9)) "j=1 speedup is 1" 1.0 r1.Doctor.jr_speedup;
  List.iter
    (fun (r : Doctor.jobs_run) ->
      checkb "wall covers stream phase" true (r.jr_wall_s >= r.jr_stream_s);
      checkb "efficiency positive" true (r.jr_efficiency > 0.0);
      checkb "utilization in [0,1]" true
        (r.jr_utilization >= 0.0 && r.jr_utilization <= 1.0 +. 1e-9);
      checkb "imbalance at least 1" true (r.jr_imbalance >= 1.0 -. 1e-9);
      checkb "task max >= mean" true (r.jr_task_max_s >= r.jr_task_mean_s);
      checkb "per-domain GC attributed" true (r.jr_domains <> []);
      let dg_tasks =
        List.fold_left
          (fun a (d : Doctor.domain_gc) -> a + d.tasks)
          0 r.jr_domains
      in
      checki "one pool/task span per shard" report.Doctor.rep_shards dg_tasks;
      checkb "task spans carry their allocation" true
        (List.for_all
           (fun (d : Doctor.domain_gc) -> d.allocated_words > 0)
           r.jr_domains))
    report.Doctor.rep_runs;
  checkb "profiler attributed allocation spans" true
    (report.Doctor.rep_alloc_sites <> []);
  List.iter
    (fun (s : Doctor.alloc_site) ->
      checkb "site words positive" true (s.site_words > 0);
      checkb "site keyed cat/name" true (String.contains s.site_span '/'))
    report.Doctor.rep_alloc_sites;
  checkb "pool tasks are a site" true
    (List.exists
       (fun (s : Doctor.alloc_site) -> s.site_span = "pool/task")
       report.Doctor.rep_alloc_sites);
  checkb "the enclosing doctor span is not a site" true
    (List.for_all
       (fun (s : Doctor.alloc_site) -> s.site_span <> "doctor/doctor")
       report.Doctor.rep_alloc_sites);
  (* JSON rendering is a single object with the headline fields. *)
  let json = Doctor.to_json report in
  let contains sub =
    let n = String.length sub and m = String.length json in
    let rec go i = i + n <= m && (String.sub json i n = sub || go (i + 1)) in
    go 0
  in
  checkb "json has workload" true (contains "\"workload\"");
  checkb "json has runs" true (contains "\"runs\"");
  checkb "json has consistency bit" true (contains "\"consistent\"");
  checkb "json has alloc sites" true (contains "\"alloc_sites\"");
  checkb "json has no sampler" false (contains "\"sampler\"")

let test_doctor_leaves_telemetry_off () =
  checkb "tracing off before" false (Trace.enabled ());
  let w = mk_workload ~seed:0xD0C8L "doc-b" in
  let (_ : Doctor.report) = Doctor.run ~max_jobs:1 ~shards:2 w in
  (* The doctor armed tracing + profiler for itself and must restore the
     caller's (off) state, leaving no span behind. *)
  checkb "tracing restored to off" false (Trace.enabled ());
  checki "no spans left" 0 (Trace.span_count ());
  checkb "profiler restored to off" false
    (Hbbp_telemetry.Runtime_profiler.enabled ());
  (* Tracing that was on stays on and keeps the doctor's spans. *)
  Trace.enable ();
  let (_ : Doctor.report) = Doctor.run ~max_jobs:1 ~shards:2 w in
  checkb "tracing still on" true (Trace.enabled ());
  checkb "doctor spans kept" true
    (List.exists
       (fun (s : Trace.span) -> s.cat = "doctor" && s.name = "doctor")
       (Trace.spans ()));
  (* A metrics-armed run (recording and profiler on) keeps both on, and
     the doctor's task spans reach the rendered metrics. *)
  let module Profiler = Hbbp_telemetry.Runtime_profiler in
  Trace.reset ();
  Profiler.enable ();
  Fun.protect ~finally:Profiler.disable @@ fun () ->
  let (_ : Doctor.report) = Doctor.run ~max_jobs:1 ~shards:2 w in
  checkb "profiler still on" true (Profiler.enabled ());
  match List.assoc_opt "pool.tasks" (Telemetry.metrics (Trace.spans ())) with
  | Some (Telemetry.Derived n) -> checkb "doctor tasks rendered" true (n >= 2.0)
  | _ -> Alcotest.fail "no pool.tasks row"

(* Everything the doctor writes is scratch: the base file, the shards
   and their manifest all go when it returns. *)
let test_doctor_leaves_no_files () =
  let dir = Filename.temp_file "hbbp-doctor-tmp" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let saved = Filename.get_temp_dir_name () in
  Fun.protect
    ~finally:(fun () ->
      Filename.set_temp_dir_name saved;
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir)
  @@ fun () ->
  Filename.set_temp_dir_name dir;
  let w = mk_workload ~seed:0xD0C9L "doc-c" in
  let (_ : Doctor.report) = Doctor.run ~max_jobs:1 ~shards:2 w in
  Alcotest.(check (list string)) "temp dir left empty" []
    (Array.to_list (Sys.readdir dir))

let () =
  Alcotest.run "observability"
    [
      ( "pool_timeline",
        [
          Alcotest.test_case "per-worker task intervals" `Quick
            (clean test_pool_timeline);
        ] );
      ( "doctor",
        [
          Alcotest.test_case "attribution report" `Quick
            (clean test_doctor_report);
          Alcotest.test_case "restores telemetry state" `Quick
            (clean test_doctor_leaves_telemetry_off);
          Alcotest.test_case "leaves no files behind" `Quick
            (clean test_doctor_leaves_no_files);
        ] );
    ]
