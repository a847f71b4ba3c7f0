(* Tests for the collector: periods, capabilities, the dual-LBR session
   and the record stream. *)

open Hbbp_program
open Hbbp_program.Asm
open Hbbp_cpu
open Hbbp_collector

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let test_period_table () =
  let p = Period.paper Period.Seconds in
  checki "seconds EBS" 1_000_037 p.Period.ebs;
  checki "seconds LBR" 100_003 p.Period.lbr;
  let p = Period.paper Period.Minutes_spec in
  checki "spec EBS" 100_000_007 p.Period.ebs;
  checki "spec LBR" 10_000_019 p.Period.lbr;
  List.iter
    (fun cls ->
      let paper = Period.paper cls and sim = Period.simulation cls in
      checkb "LBR period below EBS period" true (paper.Period.lbr < paper.Period.ebs);
      checkb "sim LBR below sim EBS" true (sim.Period.lbr < sim.Period.ebs))
    Period.all_classes

let test_period_classify () =
  checkb "small run is seconds class" true
    (Period.classify ~expected_instructions:1_000_000 = Period.Seconds);
  checkb "large run is SPEC class" true
    (Period.classify ~expected_instructions:50_000_000 = Period.Minutes_spec)

let test_capabilities_decline () =
  (* The paper's point: support declines with newer generations. *)
  let count gen =
    List.length
      (List.filter
         (fun cls -> Capabilities.support gen cls = Capabilities.Supported)
         Capabilities.event_classes)
  in
  checkb "haswell supports fewer than westmere" true
    (count Capabilities.Haswell < count Capabilities.Westmere);
  checkb "avx events absent on westmere" true
    (Capabilities.support Capabilities.Westmere Capabilities.Math_avx_fp
    = Capabilities.Not_available)

let test_capabilities_event_mapping () =
  checkb "div cycles maps to an event" true
    (Option.is_some (Capabilities.event_for Capabilities.Div_cycles));
  checkb "int simd removed on ivy bridge" true
    (Option.is_none (Capabilities.event_for Capabilities.Int_simd))

let collect () =
  let funcs =
    [
      func "main"
        [
          i Hbbp_isa.Mnemonic.MOV [ rcx; imm 30000 ];
          label "l";
          i Hbbp_isa.Mnemonic.ADD [ rax; imm 1 ];
          i Hbbp_isa.Mnemonic.TEST [ rax; imm 3 ];
          i Hbbp_isa.Mnemonic.JZ [ L "skip" ];
          i Hbbp_isa.Mnemonic.SUB [ rbx; imm 1 ];
          label "skip";
          i Hbbp_isa.Mnemonic.DEC [ rcx ];
          i Hbbp_isa.Mnemonic.JNZ [ L "l" ];
          i Hbbp_isa.Mnemonic.RET_NEAR [];
        ];
    ]
  in
  let img =
    assemble ~name:"w" ~base:Layout.user_code_base ~ring:Ring.User funcs
  in
  let process = Process.create [ img ] in
  let machine = Machine.create ~process () in
  let session =
    Session.configure Pmu_model.default { Period.ebs = 997; lbr = 211 }
  in
  Machine.add_observer machine (Pmu.observer (Session.pmu session));
  let entry =
    (Option.get (Image.find_symbol img "main")).Hbbp_program.Symbol.addr
  in
  let stats = Machine.run machine ~entry () in
  (session, process, stats)

let test_session_records () =
  let session, process, stats = collect () in
  let records = Session.records session process ~pid:1 ~name:"w" in
  let samples = Record.samples records in
  checkb "has samples" true (List.length samples > 50);
  checki "one mmap per image" 1 (List.length (Record.mmaps records));
  (* Both events appear; EBS samples carry an IP, LBR samples carry a
     stack. *)
  let ebs, lbr =
    List.partition
      (fun (s : Record.sample) ->
        Pmu_event.equal s.event Pmu_event.Inst_retired_prec_dist)
      samples
  in
  checkb "ebs samples present" true (List.length ebs > 0);
  checkb "lbr samples present" true (List.length lbr > 0);
  List.iter
    (fun (s : Record.sample) ->
      checkb "lbr samples have stacks" true (Array.length s.lbr > 0))
    lbr;
  checkb "approximately retired/period EBS samples" true
    (abs (List.length ebs - (stats.Machine.retired / 997)) <= 3)

let test_overhead_model () =
  let _, _, stats = collect () in
  let small =
    Session.overhead_fraction
      ~paper:(Period.paper Period.Minutes_spec)
      ~stats ~model:Pmu_model.default
  in
  let large =
    Session.overhead_fraction
      ~paper:(Period.paper Period.Seconds)
      ~stats ~model:Pmu_model.default
  in
  checkb "overhead positive" true (small > 0.0);
  checkb "shorter periods cost more" true (large > small);
  checkb "overhead stays small" true (large < 0.1)

(* ------------------------------------------------------------------ *)
(* Perf_data archives                                                  *)

let test_archive_roundtrip () =
  let w = Hbbp_workloads.Kernelbench.workload () in
  let archive =
    Hbbp_core.Pipeline.collect_archive
      ~config:
        { Hbbp_core.Pipeline.default_config with
          periods = `Fixed { Period.ebs = 2003; lbr = 401 } }
      w
  in
  let data = Perf_data.to_bytes archive in
  match Perf_data.of_bytes data with
  | Error e -> Alcotest.fail (Format.asprintf "%a" Perf_data.pp_error e)
  | Ok { Perf_data.archive = archive'; ledger } ->
      checki "clean ledger" 0 (List.length ledger);
      Alcotest.(check string)
        "workload name" archive.Perf_data.workload_name
        archive'.Perf_data.workload_name;
      checki "ebs period" archive.Perf_data.ebs_period
        archive'.Perf_data.ebs_period;
      checki "images" (List.length archive.Perf_data.analysis_images)
        (List.length archive'.Perf_data.analysis_images);
      checki "records" (List.length archive.Perf_data.records)
        (List.length archive'.Perf_data.records);
      checki "live kernel texts"
        (List.length archive.Perf_data.live_kernel_text)
        (List.length archive'.Perf_data.live_kernel_text);
      (* Byte-identical re-serialisation. *)
      checkb "canonical bytes" true
        (Bytes.equal data (Perf_data.to_bytes archive'))

let test_archive_errors () =
  (match Perf_data.of_bytes (Bytes.of_string "NOTHBBP!") with
  | Error Perf_data.Bad_magic -> ()
  | _ -> Alcotest.fail "expected Bad_magic");
  (match Perf_data.of_bytes (Bytes.of_string "HB") with
  | Error Perf_data.Truncated -> ()
  | _ -> Alcotest.fail "expected Truncated");
  let bad_version = Bytes.of_string "HBBPDATA\xff" in
  match Perf_data.of_bytes bad_version with
  | Error (Perf_data.Bad_version 255) -> ()
  | _ -> Alcotest.fail "expected Bad_version"

let test_archive_kernel_patch () =
  let w = Hbbp_workloads.Kernelbench.workload () in
  let archive = Hbbp_core.Pipeline.collect_archive w in
  let process = Perf_data.analysis_process archive in
  let patched =
    Option.get (Hbbp_program.Process.find_image process "vmlinux")
  in
  let live =
    Option.get
      (Hbbp_program.Process.find_image
         w.Hbbp_core.Workload.live_process "vmlinux")
  in
  checkb "archive analysis uses live kernel text" true
    (Bytes.equal patched.Hbbp_program.Image.code live.Hbbp_program.Image.code)

let test_offline_analysis_matches_online () =
  (* The same records analyzed offline must give the same HBBP BBECs as
     the live pipeline. *)
  let w = Hbbp_workloads.Spec.find "mcf" in
  let p = Hbbp_core.Pipeline.run w in
  let archive = Hbbp_core.Pipeline.collect_archive w in
  let static = p.Hbbp_core.Pipeline.static in
  let r =
    Hbbp_core.Pipeline.reconstruct ~static
      ~ebs_period:p.Hbbp_core.Pipeline.sim_periods.Period.ebs
      ~lbr_period:p.Hbbp_core.Pipeline.sim_periods.Period.lbr
      archive.Perf_data.records
  in
  Hbbp_analyzer.Static.iter
    (fun gid _ _ ->
      Alcotest.(check (float 1e-9))
        "identical hbbp count"
        (Hbbp_analyzer.Bbec.count p.Hbbp_core.Pipeline.hbbp gid)
        (Hbbp_analyzer.Bbec.count r.Hbbp_core.Pipeline.r_hbbp gid))
    static

let prop_archive_truncation_total =
  (* Parsing any truncated prefix of a valid archive returns an error
     (or, for the full length, the archive) without raising. *)
  QCheck2.Test.make ~name:"truncated archives parse totally" ~count:40
    QCheck2.Gen.(float_range 0.0 1.0)
    (fun frac ->
      let w = Hbbp_workloads.Spec.find "mcf" in
      let archive =
        Hbbp_core.Pipeline.collect_archive
          ~config:
            { Hbbp_core.Pipeline.default_config with
              periods = `Fixed { Period.ebs = 50021; lbr = 10007 } }
          w
      in
      let data = Perf_data.to_bytes archive in
      let n = int_of_float (frac *. float_of_int (Bytes.length data)) in
      (* Salvage-and-continue: a truncated records section may come back
         [Ok] with a non-empty fault ledger; anything shorter is a typed
         error.  Never an exception. *)
      match Perf_data.of_bytes (Bytes.sub data 0 n) with
      | Ok { Perf_data.ledger; _ } ->
          n = Bytes.length data || ledger <> []
      | Error _ -> n < Bytes.length data)

let () =
  Alcotest.run "collector"
    [
      ( "period",
        [
          Alcotest.test_case "table 4 values" `Quick test_period_table;
          Alcotest.test_case "classify" `Quick test_period_classify;
        ] );
      ( "capabilities",
        [
          Alcotest.test_case "decline" `Quick test_capabilities_decline;
          Alcotest.test_case "event mapping" `Quick
            test_capabilities_event_mapping;
        ] );
      ( "session",
        [
          Alcotest.test_case "records" `Quick test_session_records;
          Alcotest.test_case "overhead model" `Quick test_overhead_model;
        ] );
      ( "perf_data",
        [
          Alcotest.test_case "roundtrip" `Quick test_archive_roundtrip;
          Alcotest.test_case "errors" `Quick test_archive_errors;
          Alcotest.test_case "kernel patch" `Quick test_archive_kernel_patch;
          Alcotest.test_case "offline = online" `Slow
            test_offline_analysis_matches_online;
          QCheck_alcotest.to_alcotest prop_archive_truncation_total;
        ] );
    ]
