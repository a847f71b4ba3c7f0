(* Count-repair tests.

   Three layers: (1) solver laws as QCheck properties — idempotence,
   exact-conservation fixpoint (scale-closed), and determinism across
   shard splits of the same collection; (2) solver unit behavior —
   materiality floor, never-worse budget fallback, confidence mapping,
   zero-vector feasibility; (3) pipeline integration — the report on
   every profile, [Apply] semantics (counts replaced, verdict still
   pre-repair), repair.* metrics and the verify span. *)

open Hbbp_program
open Hbbp_program.Asm
open Hbbp_cpu
open Hbbp_collector
open Hbbp_analyzer
open Hbbp_core
open Hbbp_verifier

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let base = Layout.user_code_base

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)

let profile = lazy (Pipeline.run (Hbbp_workloads.Registry.find "fitter-sse"))

let structure_of (p : Pipeline.profile) = Flow.structure p.Pipeline.static

(* A diamond CFG with a loop — enough structure for both bound kinds:
   entry -> cond -> (left | right) -> join -> cond (back edge), exit. *)
let diamond_static =
  lazy
    (let img =
       assemble ~name:"diamond" ~base ~ring:Ring.User
         [
           func "main"
             [
               i MOV [ rax; imm 0 ];
               label "cond";
               i CMP [ rax; imm 10 ];
               i JNZ [ L "right" ];
               i ADD [ rax; imm 1 ];
               i JMP [ L "join" ];
               label "right";
               i ADD [ rax; imm 2 ];
               label "join";
               i CMP [ rax; imm 20 ];
               i JNZ [ L "cond" ];
               i RET_NEAR [];
             ];
         ]
     in
     Static.create_exn (Process.create [ img ]))

let bbec_of counts = { Bbec.method_ = Bbec.Hbbp; counts }

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                   *)

let gen_counts n =
  QCheck2.Gen.(array_size (pure n) (float_range 0.0 1000.0))

(* Idempotence: once the solver converges, feeding its output back in
   changes nothing — bit for bit. *)
let prop_idempotent =
  let static = Lazy.force diamond_static in
  let s = Flow.structure static in
  QCheck2.Test.make ~name:"repair is idempotent" ~count:200
    (gen_counts s.Flow.s_blocks)
    (fun counts ->
      let r1 = Repair.repair ~min_violation:0. s (bbec_of counts) in
      if not r1.Repair.converged then QCheck2.assume_fail ();
      let r2 = Repair.repair ~min_violation:0. s r1.Repair.repaired in
      r2.Repair.adjusted_blocks = 0
      && r2.Repair.repaired.Bbec.counts = r1.Repair.repaired.Bbec.counts)

(* Exact conservation is a fixpoint, and the polytope is closed under
   positive scaling: any scaled reference BBEC passes through the
   solver untouched. *)
let prop_conserving_fixpoint =
  QCheck2.Test.make ~name:"conserving vectors are fixpoints under scaling"
    ~count:50
    QCheck2.Gen.(float_range 0.1 8.0)
    (fun lambda ->
      let p = Lazy.force profile in
      let s = structure_of p in
      let scaled =
        bbec_of
          (Array.map (fun c -> c *. lambda) p.Pipeline.reference.Bbec.counts)
      in
      let r = Repair.repair ~min_violation:0. s scaled in
      r.Repair.iterations = 1 && r.Repair.converged
      && r.Repair.adjusted_blocks = 0
      && r.Repair.repaired.Bbec.counts = scaled.Bbec.counts)

(* Merge compatibility: analyzing any shard split of one collection
   with repair applied produces the same repaired counts as the
   unsharded analysis — repair is a pure function of the merged
   reconstruction, so sharding cannot leak into it. *)
let prop_sharded_repair_identical =
  QCheck2.Test.make ~name:"repair invariant under shard splits" ~count:8
    QCheck2.Gen.(int_range 2 5)
    (fun shards ->
      let archive =
        Pipeline.collect_archive
          (Hbbp_workloads.Registry.find "train-short-int")
      in
      let whole = Pipeline.analyze_archive ~repair:Pipeline.Apply archive in
      let path =
        Filename.temp_file "hbbp_repair_shard" ".hbbp"
      in
      let shard_paths = Perf_data.save_sharded archive ~shards ~path in
      Fun.protect
        ~finally:(fun () ->
          List.iter
            (fun p -> try Sys.remove p with Sys_error _ -> ())
            (path :: shard_paths))
        (fun () ->
          match
            Pipeline.analyze_archives ~repair:Pipeline.Apply shard_paths
          with
          | Error e -> QCheck2.Test.fail_reportf "sharded analysis: %s" e
          | Ok (_, sharded) ->
              sharded.Pipeline.r_hbbp.Bbec.counts
              = whole.Pipeline.r_hbbp.Bbec.counts
              && Option.is_some sharded.Pipeline.r_repair))

(* ------------------------------------------------------------------ *)
(* Solver unit behavior                                                *)

(* The skewed fixture from the verifier tests: all counts on a block
   whose guaranteed successor never gets counted. *)
let skewed () =
  let static = Lazy.force diamond_static in
  let s = Flow.structure static in
  let counts = Array.make s.Flow.s_blocks 0. in
  counts.(0) <- 1000.;
  (s, bbec_of counts)

let test_skewed_repaired () =
  let s, bbec = skewed () in
  let r = Repair.repair s bbec in
  checkb "violation was material" true
    (r.Repair.pre.Flow.conservation_error > Repair.default_min_violation);
  checkb "post strictly below pre" true
    (r.Repair.post.Flow.conservation_error
    < r.Repair.pre.Flow.conservation_error);
  checkb "converged" true r.Repair.converged;
  checkb "blocks adjusted" true (r.Repair.adjusted_blocks > 0);
  checkb "mass moved" true (r.Repair.moved_mass > 0.)

let test_materiality_floor () =
  let p = Lazy.force profile in
  let s = structure_of p in
  (* Perturb the reference by well under the floor: repair must
     decline. *)
  let counts = Array.copy p.Pipeline.reference.Bbec.counts in
  let total = Array.fold_left ( +. ) 0. counts in
  counts.(0) <- counts.(0) +. (1e-4 *. total);
  let bbec = bbec_of counts in
  let r = Repair.repair s bbec in
  checkb "below floor" true
    (r.Repair.pre.Flow.conservation_error < Repair.default_min_violation);
  checki "zero sweeps" 0 r.Repair.iterations;
  checki "nothing adjusted" 0 r.Repair.adjusted_blocks;
  checkb "input returned verbatim" true
    (r.Repair.repaired.Bbec.counts == bbec.Bbec.counts);
  (* The same perturbation with the floor disabled is repaired. *)
  let r = Repair.repair ~min_violation:0. s bbec in
  checkb "repaired without floor" true (r.Repair.adjusted_blocks > 0)

let test_never_worse_on_budget () =
  let s, bbec = skewed () in
  let r = Repair.repair ~max_sweeps:1 s bbec in
  checkb "budget of one sweep does not converge here" true
    (not r.Repair.converged || r.Repair.iterations <= 1);
  checkb "result never worse than input" true
    (r.Repair.post.Flow.total_residual
    <= r.Repair.pre.Flow.total_residual +. 1e-9)

let test_zero_vector_fixpoint () =
  let static = Lazy.force diamond_static in
  let s = Flow.structure static in
  let bbec = bbec_of (Array.make s.Flow.s_blocks 0.) in
  let r = Repair.repair ~min_violation:0. s bbec in
  checki "zero vector untouched" 0 r.Repair.adjusted_blocks;
  checkb "zero vector feasible" true
    (r.Repair.post.Flow.total_residual = 0.)

let test_confidence_weights () =
  let w =
    Repair.confidence
      ~use_ebs:[| true; false; true |]
      ~ebs_raw:[| 99; 7; 0 |]
      ~lbr_weight:[| 0.; 63.; 0. |]
      4
  in
  checki "length covers all blocks" 4 (Array.length w);
  checkb "EBS density drives EBS-fused blocks" true
    (w.(0) = sqrt 100.);
  checkb "LBR weight drives LBR-fused blocks" true (w.(1) = sqrt 64.);
  checkb "unsampled blocks get unit weight" true (w.(2) = 1.);
  checkb "blocks past provenance arrays get unit weight" true (w.(3) = 1.);
  (* Heavier evidence must never lower the weight. *)
  checkb "monotone in density" true (w.(0) > w.(1) && w.(1) > w.(2))

let test_weighted_repair_protects_confident_blocks () =
  let s, bbec = skewed () in
  let n = s.Flow.s_blocks in
  (* Block 0 maximally trusted, everything else not: the correction
     must land away from block 0. *)
  let weights = Array.make n 1. in
  weights.(0) <- 1e6;
  let r = Repair.repair ~weights s bbec in
  let moved_0 =
    Float.abs (Bbec.count r.Repair.repaired 0 -. Bbec.count bbec 0)
  in
  let weights' = Array.make n 1. in
  weights'.(0) <- 1e-6;
  let r' = Repair.repair ~weights:weights' s bbec in
  let moved_0' =
    Float.abs (Bbec.count r'.Repair.repaired 0 -. Bbec.count bbec 0)
  in
  checkb "trusted block moves less than distrusted block" true
    (moved_0 < moved_0')

(* ------------------------------------------------------------------ *)
(* Pipeline integration                                                *)

let test_report_mode_default () =
  let p = Lazy.force profile in
  match p.Pipeline.repair_report with
  | None -> Alcotest.fail "default config carries no repair report"
  | Some r ->
      checkb "post never above pre" true
        (r.Repair.post.Flow.conservation_error
        <= r.Repair.pre.Flow.conservation_error +. 1e-12);
      (* Report mode must not touch the published counts. *)
      checkb "hbbp counts untouched in Report mode" true
        (Bbec.count p.Pipeline.hbbp 0 = Bbec.count p.Pipeline.hbbp 0)

let test_off_mode () =
  let config = { Pipeline.default_config with repair = Pipeline.Off } in
  let p =
    Pipeline.run ~config (Hbbp_workloads.Registry.find "train-short-int")
  in
  checkb "Off mode carries no report" true
    (Option.is_none p.Pipeline.repair_report)

let test_apply_mode_replaces_counts () =
  let w = Hbbp_workloads.Registry.find "train-short-int" in
  let report_p = Pipeline.run w in
  let apply_p =
    Pipeline.run
      ~config:{ Pipeline.default_config with repair = Pipeline.Apply }
      w
  in
  let rep =
    match report_p.Pipeline.repair_report with
    | Some r -> r
    | None -> Alcotest.fail "no repair report"
  in
  checkb "fixture actually repairs" true (rep.Repair.adjusted_blocks > 0);
  checkb "Apply publishes the repaired counts" true
    (apply_p.Pipeline.hbbp.Bbec.counts = rep.Repair.repaired.Bbec.counts);
  checkb "Report leaves raw counts" true
    (report_p.Pipeline.hbbp.Bbec.counts <> rep.Repair.repaired.Bbec.counts)

(* Apply must not launder a corrupt reconstruction: the quality verdict
   reflects the PRE-repair flow check. *)
let test_apply_does_not_launder_quality () =
  let img =
    assemble ~name:"skew" ~base ~ring:Ring.User
      [
        func "main"
          [ i MOV [ rax; imm 0 ]; i JMP [ L "tail" ]; label "tail";
            i RET_NEAR [] ];
      ]
  in
  let static = Static.create_exn (Process.create [ img ]) in
  let records =
    List.init 16 (fun k ->
        Record.Sample
          {
            Record.event = Pmu_event.Inst_retired_prec_dist;
            ip = base;
            lbr = [||];
            ring = Ring.User;
            time = k;
          })
  in
  let r =
    Pipeline.reconstruct ~repair:Pipeline.Apply ~static ~ebs_period:1
      ~lbr_period:1 records
  in
  (match r.Pipeline.r_quality with
  | Pipeline.Full -> Alcotest.fail "repaired corruption reported Full"
  | Pipeline.Degraded reasons ->
      checkb "flow violation verdict survives Apply" true
        (List.exists
           (function Pipeline.Flow_violation _ -> true | _ -> false)
           reasons));
  match r.Pipeline.r_repair with
  | None -> Alcotest.fail "Apply carries no repair report"
  | Some rep ->
      checkb "published counts are the repaired ones" true
        (r.Pipeline.r_hbbp.Bbec.counts = rep.Repair.repaired.Bbec.counts);
      checkb "repair reduced the residual" true
        (rep.Repair.post.Flow.total_residual
        < rep.Repair.pre.Flow.total_residual)

(* The [verify/repair] span carries the run's repair report as args. *)
let test_repair_metrics_and_span () =
  let module Trace = Hbbp_telemetry.Trace in
  Trace.reset ();
  Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.reset ())
    (fun () ->
      let w = Hbbp_workloads.Registry.find "train-short-int" in
      let p =
        Pipeline.run
          ~config:{ Pipeline.default_config with repair = Pipeline.Apply }
          w
      in
      let rep =
        match p.Pipeline.repair_report with
        | Some rep -> rep
        | None -> Alcotest.fail "Apply carries no repair report"
      in
      match
        List.filter
          (fun (s : Trace.span) -> s.name = "repair" && s.cat = "verify")
          (Trace.spans ())
      with
      | [ s ] ->
          let arg key =
            match List.assoc_opt key s.args with
            | Some v -> v
            | None -> Alcotest.failf "verify/repair has no %s arg" key
          in
          Alcotest.(check string) "repair ran" "1" (arg "repair.runs");
          Alcotest.(check string) "apply counted" "1" (arg "repair.applied");
          Alcotest.(check string) "sweeps" (string_of_int rep.Repair.iterations)
            (arg "repair.sweeps");
          Alcotest.(check (float 0.0)) "post error is the report's"
            rep.Repair.post.Flow.conservation_error
            (float_of_string (arg "repair.post_conservation_error"))
      | spans ->
          Alcotest.failf "%d verify/repair spans, expected 1"
            (List.length spans))

(* ------------------------------------------------------------------ *)
(* Profile export                                                      *)

let test_profile_export_shape () =
  let p = Lazy.force profile in
  let json =
    Profile_export.to_json ~workload:p.Pipeline.workload.Workload.name
      p.Pipeline.static p.Pipeline.hbbp
  in
  List.iter
    (fun needle ->
      checkb (Printf.sprintf "export contains %s" needle) true
        (let len = String.length json and nlen = String.length needle in
         let rec scan i =
           i + nlen <= len
           && (String.equal (String.sub json i nlen) needle || scan (i + 1))
         in
         scan 0))
    [
      {|"schema_version": 1|};
      {|"format": "hbbp-pgo"|};
      {|"workload": "fitter-sse"|};
      {|"functions": [|};
      {|"branches"|};
      {|"probability"|};
    ];
  (* Byte-stable: the same reconstruction exports identical bytes. *)
  let again =
    Profile_export.to_json ~workload:p.Pipeline.workload.Workload.name
      p.Pipeline.static p.Pipeline.hbbp
  in
  checkb "export is byte-stable" true (String.equal json again)

let () =
  Alcotest.run "repair"
    [
      ( "laws",
        [
          QCheck_alcotest.to_alcotest prop_idempotent;
          QCheck_alcotest.to_alcotest prop_conserving_fixpoint;
          QCheck_alcotest.to_alcotest prop_sharded_repair_identical;
        ] );
      ( "solver",
        [
          Alcotest.test_case "skewed fixture repaired" `Quick
            test_skewed_repaired;
          Alcotest.test_case "materiality floor" `Slow test_materiality_floor;
          Alcotest.test_case "never worse on exhausted budget" `Quick
            test_never_worse_on_budget;
          Alcotest.test_case "zero vector is a fixpoint" `Quick
            test_zero_vector_fixpoint;
          Alcotest.test_case "confidence weight mapping" `Quick
            test_confidence_weights;
          Alcotest.test_case "weights steer the correction" `Quick
            test_weighted_repair_protects_confident_blocks;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "Report is the default and never regresses"
            `Slow test_report_mode_default;
          Alcotest.test_case "Off carries no report" `Slow test_off_mode;
          Alcotest.test_case "Apply replaces counts" `Slow
            test_apply_mode_replaces_counts;
          Alcotest.test_case "Apply cannot launder quality" `Quick
            test_apply_does_not_launder_quality;
          Alcotest.test_case "repair metrics + span exported" `Slow
            test_repair_metrics_and_span;
        ] );
      ( "export",
        [
          Alcotest.test_case "profile export shape and stability" `Slow
            test_profile_export_shape;
        ] );
    ]
