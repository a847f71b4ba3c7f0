(* Tests for the multicore execution layer: Domain_pool semantics
   (ordering, exception propagation, empty input, shutdown) and the
   hard invariant that Pipeline.run_many produces byte-identical
   profiles for every job count. *)

open Hbbp_core
module Pool = Hbbp_util.Domain_pool

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check_ilist = Alcotest.(check (list int))

(* ------------------------------------------------------------------ *)
(* Domain_pool                                                         *)

let test_map_empty () =
  Pool.with_pool ~jobs:4 (fun pool ->
      check_ilist "parallel empty" [] (Pool.map pool Fun.id []));
  check_ilist "sequential empty" [] (Pool.run ~jobs:1 Fun.id [])

let test_map_order () =
  let xs = List.init 100 Fun.id in
  let expected = List.map (fun x -> x * x) xs in
  Pool.with_pool ~jobs:4 (fun pool ->
      check_ilist "squares in input order" expected
        (Pool.map pool (fun x -> x * x) xs));
  check_ilist "jobs:1 identical" expected (Pool.run ~jobs:1 (fun x -> x * x) xs)

let test_exception_propagation () =
  Pool.with_pool ~jobs:3 (fun pool ->
      (match
         Pool.map pool
           (fun x ->
             if x >= 5 then failwith (Printf.sprintf "boom %d" x) else x)
           (List.init 10 Fun.id)
       with
      | _ -> Alcotest.fail "expected a Failure to propagate"
      | exception Failure msg ->
          Alcotest.(check string) "lowest-indexed failure wins" "boom 5" msg);
      (* A failing batch must not poison the pool. *)
      check_ilist "pool survives failure" [ 2; 4 ]
        (Pool.map pool (fun x -> 2 * x) [ 1; 2 ]))

let test_shutdown () =
  let pool = Pool.create ~jobs:2 () in
  checki "jobs" 2 (Pool.jobs pool);
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* idempotent *)
  match Pool.map pool Fun.id [ 1 ] with
  | _ -> Alcotest.fail "expected Invalid_argument after shutdown"
  | exception Invalid_argument _ -> ()

let test_default_jobs_positive () =
  checkb "default jobs >= 1" true (Pool.default_jobs () >= 1)

(* ------------------------------------------------------------------ *)
(* Parallel profiling determinism                                      *)

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

let workloads () =
  [
    mk_workload ~seed:0xBEEFL "par-a";
    mk_workload ~seed:0x1234L "par-b";
    mk_workload ~seed:0xF00DL "par-c";
  ]

(* Byte-identity of everything downstream analysis consumes. *)
let profiles_equal (a : Pipeline.profile) (b : Pipeline.profile) =
  compare a.stats b.stats = 0
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

let archive_bytes = List.map Hbbp_collector.Perf_data.to_bytes

let test_run_many_matches_sequential () =
  let seq = Pipeline.run_many ~jobs:1 (workloads ()) in
  let par = Pipeline.run_many ~jobs:4 (workloads ()) in
  checki "same cardinality" (List.length seq) (List.length par);
  List.iter2
    (fun a b -> checkb "profile byte-identical across job counts" true
        (profiles_equal a b))
    seq par;
  let direct = List.map Pipeline.run (workloads ()) in
  List.iter2
    (fun a b -> checkb "run_many jobs:1 = plain run" true (profiles_equal a b))
    seq direct;
  (* The record streams the runs fed, as collection writes them. *)
  let seq = archive_bytes (Pipeline.collect_many ~jobs:1 (workloads ())) in
  let par = archive_bytes (Pipeline.collect_many ~jobs:4 (workloads ())) in
  let direct =
    archive_bytes (List.map Pipeline.collect_archive (workloads ()))
  in
  List.iter2
    (fun a b -> checkb "archive byte-identical across job counts" true
        (Bytes.equal a b))
    seq par;
  List.iter2
    (fun a b -> checkb "collect_many jobs:1 = plain collect" true
        (Bytes.equal a b))
    seq direct

let test_run_many_mixes_and_errors_identical () =
  let seq = Pipeline.run_many ~jobs:1 (workloads ()) in
  let par = Pipeline.run_many ~jobs:4 (workloads ()) in
  List.iter2
    (fun (a : Pipeline.profile) (b : Pipeline.profile) ->
      checkb "HBBP mix identical" true
        (compare (Pipeline.mix_of a a.hbbp) (Pipeline.mix_of b b.hbbp) = 0);
      checkb "error report identical" true
        (compare
           (Pipeline.error_report a a.hbbp)
           (Pipeline.error_report b b.hbbp)
        = 0))
    seq par

let test_training_build_deterministic () =
  let ws = workloads () in
  let tree1, _ = Training.build ~jobs:1 ws in
  let tree4, _ = Training.build ~jobs:4 ws in
  checkb "trained tree identical across job counts" true
    (compare tree1 tree4 = 0)

let () =
  Alcotest.run "parallel"
    [
      ( "domain_pool",
        [
          Alcotest.test_case "empty input" `Quick test_map_empty;
          Alcotest.test_case "ordering" `Quick test_map_order;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation;
          Alcotest.test_case "shutdown" `Quick test_shutdown;
          Alcotest.test_case "default jobs" `Quick test_default_jobs_positive;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "run_many byte-identical" `Quick
            test_run_many_matches_sequential;
          Alcotest.test_case "mixes and error reports" `Quick
            test_run_many_mixes_and_errors_identical;
          Alcotest.test_case "training build" `Quick
            test_training_build_deterministic;
        ] );
    ]
