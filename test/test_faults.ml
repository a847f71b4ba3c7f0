(* Chaos, fuzz and graceful-degradation tests for the fault-injection
   subsystem: plan parsing, the zero-cost-when-disarmed guarantee,
   per-layer injection (PMU, collector, archive), salvage-and-continue
   archive reading, quality thresholds with single-channel fallback, and
   a seeded chaos grid asserting that every fault plan yields either a
   bounded-accuracy result or a typed diagnostic — never an uncaught
   exception. *)

open Hbbp_program
open Hbbp_program.Asm
open Hbbp_cpu
open Hbbp_collector
open Hbbp_core
module Plan = Hbbp_faults.Fault_plan
module Faults = Hbbp_faults.Faults
module Durable = Hbbp_durable.Durable

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* The record stream a run of [w] feeds under the armed plan, as
   collection writes it. *)
let stream_of w = (Pipeline.collect_archive w).Perf_data.records

(* Every test leaves the global fault state as it found it: disarmed and
   with a clean tally. *)
let clean f () =
  let finally () =
    Faults.disarm ();
    Faults.reset_tally ()
  in
  Fun.protect ~finally f

let plan_of_spec spec =
  match Plan.of_string spec with
  | Ok p -> p
  | Error msg -> Alcotest.failf "bad plan %S: %s" spec msg

(* Small deterministic synthetic workload; same shape as the telemetry
   determinism tests. *)
let mk_workload ~seed name =
  let ctx = Hbbp_workloads.Codegen.create_ctx ~seed in
  let funcs =
    Hbbp_workloads.Codegen.synthetic_funcs ctx ~name:("f_" ^ name) ~helpers:2
      {
        Hbbp_workloads.Codegen.blocks = 14;
        mean_len = 5;
        len_jitter = 3;
        iterations = 5000;
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
  && compare a.record_count b.record_count = 0
  && compare a.quality b.quality = 0

let avg_err (p : Pipeline.profile) =
  (Pipeline.error_report p p.Pipeline.hbbp).Error.avg_weighted_error

let lost_in records =
  List.fold_left
    (fun acc r -> match r with Record.Lost n -> acc + n | _ -> acc)
    0 records

(* ------------------------------------------------------------------ *)
(* Fault plans                                                         *)

let full_spec =
  "seed=7,pmu.drop=0.05,pmu.burst_every=50,pmu.burst_len=4,pmu.skid=2,\
   pmu.jitter=3,lbr.truncate=8,lbr.stuck=0.05,lbr.misrotate=0.02,\
   rec.drop_comm=1.0,rec.drop_mmap=0.5,rec.drop_sample=0.02,rec.reorder=16,\
   arch.flips=3,arch.truncate=-100,io.enospc=0.01,io.partial_write=0.2,\
   io.eintr=0.3,io.rename_fail=0.05,io.fsync_fail=0.04"

let test_plan_parse () =
  let p = plan_of_spec full_spec in
  checkb "seed" true (p.Plan.seed = 7L);
  Alcotest.(check (float 1e-9)) "drop rate" 0.05 p.Plan.pmu.Plan.drop_rate;
  checki "burst every" 50 p.Plan.pmu.Plan.burst_every;
  checki "burst len" 4 p.Plan.pmu.Plan.burst_len;
  checki "extra skid" 2 p.Plan.pmu.Plan.extra_skid;
  checki "lbr truncate" 8 p.Plan.pmu.Plan.lbr_truncate;
  Alcotest.(check (float 1e-9))
    "drop comm" 1.0 p.Plan.collector.Plan.drop_comm_rate;
  checki "reorder window" 16 p.Plan.collector.Plan.reorder_window;
  checki "bit flips" 3 p.Plan.archive.Plan.bit_flips;
  checki "truncate at" (-100) p.Plan.archive.Plan.truncate_at;
  Alcotest.(check (float 1e-9)) "io enospc" 0.01 p.Plan.io.Plan.enospc_rate;
  Alcotest.(check (float 1e-9))
    "io partial write" 0.2 p.Plan.io.Plan.partial_write_rate;
  Alcotest.(check (float 1e-9)) "io eintr" 0.3 p.Plan.io.Plan.eintr_rate;
  Alcotest.(check (float 1e-9))
    "io rename fail" 0.05 p.Plan.io.Plan.rename_fail_rate;
  Alcotest.(check (float 1e-9))
    "io fsync fail" 0.04 p.Plan.io.Plan.fsync_fail_rate;
  checkb "io active" true (Plan.io_active p.Plan.io);
  checkb "inert io inactive" false (Plan.io_active Plan.none.Plan.io);
  (* Canonical spec strings parse back to the same plan. *)
  (match Plan.of_string (Plan.to_string p) with
  | Ok p' -> checkb "roundtrip" true (p = p')
  | Error e -> Alcotest.failf "roundtrip of %S: %s" (Plan.to_string p) e);
  match Plan.of_string (Plan.to_string Plan.none) with
  | Ok p' -> checkb "inert roundtrip" true (p' = Plan.none)
  | Error e -> Alcotest.failf "inert roundtrip: %s" e

let test_plan_bad_specs () =
  List.iter
    (fun spec ->
      match Plan.of_string spec with
      | Ok _ -> Alcotest.failf "accepted bad spec %S" spec
      | Error _ -> ())
    [
      "pmu.drop=1.5";
      "pmu.drop=-0.1";
      "bogus=1";
      "io.enospc=1.5";
      "io.eintr=-0.2";
      "io.bogus=1";
      "pmu.drop=abc";
      "seed=";
      "=1";
      "pmu.drop";
    ]

(* ------------------------------------------------------------------ *)
(* Zero cost when disarmed                                             *)

let test_disarmed_identity () =
  let w = mk_workload ~seed:0xFA01L "ident" in
  let p_off = Pipeline.run w in
  let data = Perf_data.to_bytes (Pipeline.collect_archive w) in
  Faults.arm Plan.none;
  let p_inert = Pipeline.run w in
  let data_inert = Perf_data.to_bytes (Pipeline.collect_archive w) in
  Faults.disarm ();
  checkb "arming the inert plan leaves profiles byte-identical" true
    (profiles_equal p_off p_inert);
  checkb "arming the inert plan leaves archives byte-identical" true
    (Bytes.equal data data_inert);
  checkb "disarmed mangle is physically the identity" true
    (Faults.mangle_archive data == data);
  Faults.arm Plan.none;
  checkb "inert mangle is physically the identity" true
    (Faults.mangle_archive data == data);
  Faults.disarm ();
  checki "nothing tallied" 0 (List.length (Faults.tally ()))

(* ------------------------------------------------------------------ *)
(* Per-layer injection                                                 *)

let test_pmu_drops () =
  let w = mk_workload ~seed:0xFA02L "pmudrop" in
  let clean_p = Pipeline.run w in
  let n_clean = List.length (Record.samples (stream_of w)) in
  Faults.reset_tally ();
  Faults.arm (plan_of_spec "seed=11,pmu.drop=0.05");
  let n = List.length (Record.samples (stream_of w)) in
  let tallied =
    match List.assoc_opt "pmu.samples_dropped" (Faults.tally ()) with
    | Some v -> v
    | None -> 0
  in
  let p = Pipeline.run w in
  Faults.disarm ();
  checkb "samples were dropped" true (n < n_clean);
  checki "tally matches the stream" (n_clean - n) tallied;
  checki "the run fed the same stream"
    (clean_p.Pipeline.record_count - tallied) p.Pipeline.record_count;
  checkb "PMIs still counted (the interrupt happened)" true
    (p.Pipeline.pmu_health.Pmu.pmi_count
    = clean_p.Pipeline.pmu_health.Pmu.pmi_count)

let test_lbr_corruption () =
  let w = mk_workload ~seed:0xFA03L "lbr" in
  Faults.reset_tally ();
  Faults.arm (plan_of_spec "seed=13,lbr.stuck=0.3,lbr.misrotate=0.3,lbr.truncate=4");
  let records = stream_of w in
  Faults.disarm ();
  let t = Faults.tally () in
  checkb "forced stuck snapshots tallied" true
    (List.mem_assoc "lbr.forced_stuck" t);
  checkb "forced misrotations tallied" true
    (List.mem_assoc "lbr.forced_misrotated" t);
  List.iter
    (fun (s : Record.sample) ->
      checkb "snapshots truncated to 4" true (Lbr.entries s.Record.lbr <= 4))
    (Record.samples records)


(* Each forced LBR fault acts on the right slots of the flat snapshot
   (entry [k]'s source at [2k], target at [2k + 1]).  The injector draws
   from its own PRNG, so the armed run delivers the same samples as the
   clean one and each faulted snapshot is a function of its clean twin:
   stuck rewrites entries 0 and 1 with one branch (the trigger, or the
   newest entry for a non-branch event), mis-rotation moves the newest
   entry to the front, truncation keeps the newest entries. *)
let test_lbr_fault_slots () =
  let w = mk_workload ~seed:0xFA03L "lbr" in
  let snapshots () =
    List.map
      (fun (s : Record.sample) -> (s.Record.event, s.Record.ip, s.Record.lbr))
      (Record.samples (stream_of w))
  in
  let clean = snapshots () in
  let faulted spec =
    Faults.arm (plan_of_spec spec);
    let f = snapshots () in
    Faults.disarm ();
    checki (spec ^ ": same samples") (List.length clean) (List.length f);
    List.map2
      (fun (e, ip, c) (e', ip', f) ->
        checkb (spec ^ ": aligned") true (Pmu_event.equal e e' && ip = ip');
        (e, c, f))
      clean f
  in
  let words = Array.length in
  let deep = ref 0 in
  List.iter
    (fun (e, c, f) ->
      let n = words c in
      if Lbr.entries c > 2 then begin
        incr deep;
        checkb "stuck: entries 0 and 1 equal" true
          (f.(0) = f.(2) && f.(1) = f.(3));
        checkb "stuck: deeper entries intact" true
          (Array.sub f 4 (n - 4) = Array.sub c 4 (n - 4));
        if not (Pmu_event.equal e Pmu_event.Br_inst_retired_near_taken) then
          checkb "stuck: no trigger -> newest entry" true
            (f.(0) = c.(n - 2) && f.(1) = c.(n - 1))
      end
      else checkb "stuck: short snapshot untouched" true (f = c))
    (faulted "seed=5,lbr.stuck=1");
  checkb "some snapshots deep enough to stick" true (!deep > 0);
  List.iter
    (fun (_, c, f) ->
      let n = words c in
      if n > 0 then
        checkb "misrotate: newest entry first, the rest shifted" true
          (f = Array.append (Array.sub c (n - 2) 2) (Array.sub c 0 (n - 2))))
    (faulted "seed=5,lbr.misrotate=1");
  List.iter
    (fun (_, c, f) ->
      let n = words c in
      checkb "truncate: newest 3 entries kept" true
        (f = if n > 6 then Array.sub c (n - 6) 6 else c))
    (faulted "seed=5,lbr.truncate=3")

let test_stream_faults_degrade () =
  let w = mk_workload ~seed:0xFA04L "stream" in
  Faults.arm (plan_of_spec "seed=5,rec.drop_sample=0.1,rec.reorder=8");
  let p = Pipeline.run w in
  let lost = lost_in (stream_of w) in
  Faults.disarm ();
  checkb "drops reported via a trailing Lost record" true (lost > 0);
  match p.Pipeline.quality with
  | Pipeline.Full -> Alcotest.fail "expected degraded quality"
  | Pipeline.Degraded reasons ->
      checkb "Lost_records reason carries the count" true
        (List.exists
           (function Pipeline.Lost_records n -> n = lost | _ -> false)
           reasons)

(* The collector filter draws as records are written: a drop draw per
   record, shuffle draws when a window of survivors fills.  A plan with
   one kind of draw writes the same stream however the draws would
   interleave, so its stream is pinned by the digest of the "stream"
   workload's records (652 records clean: the last window of 8 is
   partial, the last of 7 holds one record).  The digest is over a text
   rendering of every record field, LBR entries included, so it does
   not move with the archive format.  The values were computed with the
   version-2 encoder, while the archive digests that pinned these
   streams before still held. *)
let pinned_streams =
  [
    ("seed=5,rec.drop_sample=0.1", 586, "d5d7767fbec4dee6f4a47fff0e5934a7");
    ( "seed=5,rec.drop_sample=0.1,rec.drop_comm=1.0,rec.drop_mmap=0.5",
      584,
      "d8922986be0dc73cc09654169db7257f" );
    ("seed=5,rec.reorder=8", 652, "a3a30069f726c4ebc97f922b126072ea");
    ("seed=5,rec.reorder=7", 652, "fced74a247aff9a61f41906b64028948");
  ]

let records_digest records =
  let b = Buffer.create 65536 in
  List.iter
    (fun r ->
      Buffer.add_string b (Format.asprintf "%a" Record.pp r);
      (match r with
      | Record.Sample s ->
          Array.iter
            (fun v -> Buffer.add_string b (Printf.sprintf " %x" v))
            s.Record.lbr
      | _ -> ());
      Buffer.add_char b '\n')
    records;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_single_kind_streams_pinned () =
  let w = mk_workload ~seed:0xFA04L "stream" in
  List.iter
    (fun (spec, n, digest) ->
      Faults.arm (plan_of_spec spec);
      let a = Pipeline.collect_archive w in
      Faults.disarm ();
      checki (spec ^ ": records") n (List.length a.Perf_data.records);
      Alcotest.(check string)
        (spec ^ ": records digest") digest
        (records_digest a.Perf_data.records))
    pinned_streams

(* Drops and shuffles together: the output, cut into windows of the
   reorder size, is each window's run of consecutive survivors in some
   order, and the trailing Lost record counts what went missing. *)
let test_drop_and_reorder_windows () =
  let w = mk_workload ~seed:0xFA04L "stream" in
  let clean = stream_of w in
  let index = Hashtbl.create 1024 in
  List.iteri (fun k r -> Hashtbl.replace index r k) clean;
  checki "clean records are distinct" (List.length clean)
    (Hashtbl.length index);
  let window = 8 in
  let faulted () =
    Faults.arm (plan_of_spec "seed=5,rec.drop_sample=0.1,rec.reorder=8");
    let a = Pipeline.collect_archive w in
    Faults.disarm ();
    a
  in
  let a = faulted () in
  let body, lost =
    match List.rev a.Perf_data.records with
    | Record.Lost n :: rest -> (List.rev rest, n)
    | _ -> Alcotest.fail "expected a trailing Lost record"
  in
  checkb "records were dropped" true (lost > 0);
  checki "Lost n = inputs - outputs" (List.length clean - List.length body)
    lost;
  let idx =
    Array.of_list
      (List.map
         (fun r ->
           match Hashtbl.find_opt index r with
           | Some k -> k
           | None -> Alcotest.fail "output record not in the clean stream")
         body)
  in
  let n = Array.length idx and last = ref (-1) and reordered = ref false in
  let start = ref 0 in
  while !start < n do
    let win = Array.sub idx !start (min window (n - !start)) in
    let sorted = Array.copy win in
    Array.sort compare sorted;
    if sorted <> win then reordered := true;
    checkb "window follows the previous one" true (sorted.(0) > !last);
    Array.iteri
      (fun k i ->
        if k > 0 then checkb "no record twice" true (i > sorted.(k - 1)))
      sorted;
    last := sorted.(Array.length sorted - 1);
    start := !start + window
  done;
  checkb "some window reordered" true !reordered;
  checkb "two runs give the same bytes" true
    (Bytes.equal (Perf_data.to_bytes a) (Perf_data.to_bytes (faulted ())))

(* ------------------------------------------------------------------ *)
(* Archive mangling, salvage and the fault ledger                      *)

let test_archive_truncation_salvage () =
  let w = mk_workload ~seed:0xFA05L "arctrunc" in
  let archive = Pipeline.collect_archive w in
  Faults.arm (plan_of_spec "seed=3,arch.truncate=-64");
  let data = Faults.mangle_archive (Perf_data.to_bytes archive) in
  Faults.disarm ();
  checki "64 bytes cut" (Bytes.length (Perf_data.to_bytes archive) - 64)
    (Bytes.length data);
  match Perf_data.of_bytes data with
  | Error e ->
      Alcotest.failf "tail truncation should salvage, got %s"
        (Format.asprintf "%a" Perf_data.pp_error e)
  | Ok { Perf_data.archive = salvaged; ledger } ->
      checkb "ledger records the damage" true (ledger <> []);
      checkb "a record prefix survived" true
        (List.length salvaged.Perf_data.records
        < List.length archive.Perf_data.records
        && salvaged.Perf_data.records <> []);
      let r = Pipeline.analyze_archive ~ledger salvaged in
      (match r.Pipeline.r_quality with
      | Pipeline.Degraded reasons ->
          checkb "archive fault surfaces as a degrade reason" true
            (List.exists
               (function Pipeline.Archive_fault _ -> true | _ -> false)
               reasons)
      | Pipeline.Full -> Alcotest.fail "salvaged archive must be degraded")

let test_archive_bit_flips () =
  let w = mk_workload ~seed:0xFA06L "arcflip" in
  let original = Perf_data.to_bytes (Pipeline.collect_archive w) in
  Faults.arm (plan_of_spec "seed=17,arch.flips=5");
  let data = Faults.mangle_archive original in
  Faults.disarm ();
  checkb "bytes actually changed" true (not (Bytes.equal data original));
  match Perf_data.of_bytes data with
  | Error _ -> () (* flips hit metadata: typed error *)
  | Ok { Perf_data.ledger; _ } ->
      checkb "flips in the payload show up in the ledger" true (ledger <> [])
  | exception e ->
      Alcotest.failf "bit flips raised %s" (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Byte-level fuzz: truncation at every offset, flips at every byte    *)

(* Hand-built minimal archive so the O(length²) truncation sweep stays
   fast, with every record constructor represented. *)
let tiny_archive () =
  let img =
    assemble ~name:"w" ~base:Layout.user_code_base ~ring:Ring.User
      [
        func "main"
          [
            i Hbbp_isa.Mnemonic.ADD [ rax; imm 1 ];
            i Hbbp_isa.Mnemonic.RET_NEAR [];
          ];
      ]
  in
  let sample ?(lbr = [||]) event ip =
    Record.Sample { Record.event; ip; lbr; ring = Ring.User; time = ip }
  in
  {
    Perf_data.workload_name = "tiny";
    ebs_period = 97;
    lbr_period = 13;
    analysis_images = [ img ];
    live_kernel_text = [ ("vmlinux", Bytes.of_string "\x90\xc3") ];
    records =
      [
        Record.Comm { pid = 1; name = "tiny" };
        Record.Mmap
          {
            addr = Layout.user_code_base;
            len = 64;
            name = "w";
            ring = Ring.User;
          };
        Record.Fork { parent = 1; child = 2 };
        sample Pmu_event.Inst_retired_prec_dist (Layout.user_code_base + 4);
        sample
          ~lbr:
            [|
              Layout.user_code_base + 8;
              Layout.user_code_base;
              Layout.user_code_base + 16;
              Layout.user_code_base + 4;
            |]
          Pmu_event.Br_inst_retired_near_taken
          (Layout.user_code_base + 8);
        Record.Lost 1;
      ];
  }

(* Where the records payload starts: past the magic, the version byte
   and three metadata sections, then the records section header. *)
let records_payload_start data =
  let pos = ref 9 in
  for _ = 1 to 3 do
    pos := !pos + 24 + Int64.to_int (Bytes.get_int64_le data !pos)
  done;
  !pos + 24

let test_fuzz_truncation_every_offset () =
  let data = Perf_data.to_bytes (tiny_archive ()) in
  checkb "tiny archive stays small" true (Bytes.length data < 8192);
  let payload = records_payload_start data in
  for n = 0 to Bytes.length data do
    match Perf_data.of_bytes (Bytes.sub data 0 n) with
    | Ok { Perf_data.ledger; _ } ->
        if not (n = Bytes.length data || ledger <> []) then
          Alcotest.failf "clean Ok on truncated prefix %d/%d" n
            (Bytes.length data);
        (* A cut inside the records payload is a truncation, never a
           corruption: the section header declares the bytes the cut
           removed. *)
        if n > payload && n < Bytes.length data then
          List.iter
            (function
              | Perf_data.Corrupt_records { reason; _ } ->
                  Alcotest.failf "cut at %d/%d reported corrupt (%s)" n
                    (Bytes.length data) reason
              | _ -> ())
            ledger
    | Error _ -> ()
    | exception e ->
        Alcotest.failf "truncation at %d raised %s" n (Printexc.to_string e)
  done

let test_fuzz_bit_flip_every_byte () =
  let data = Perf_data.to_bytes (tiny_archive ()) in
  for off = 0 to Bytes.length data - 1 do
    let flipped = Bytes.copy data in
    Bytes.set_uint8 flipped off
      (Bytes.get_uint8 flipped off lxor (1 lsl (off mod 8)));
    match Perf_data.of_bytes flipped with
    | Ok _ | Error _ -> ()
    | exception e ->
        Alcotest.failf "flip at byte %d raised %s" off (Printexc.to_string e)
  done

(* ------------------------------------------------------------------ *)
(* Round-trip edge cases                                               *)

let roundtrip a =
  let data = Perf_data.to_bytes a in
  match Perf_data.of_bytes data with
  | Error e -> Alcotest.failf "%s" (Format.asprintf "%a" Perf_data.pp_error e)
  | Ok { Perf_data.archive = a'; ledger } ->
      checki "clean ledger" 0 (List.length ledger);
      checkb "canonical bytes" true (Bytes.equal data (Perf_data.to_bytes a'))

let test_roundtrip_empty_records () =
  roundtrip { (tiny_archive ()) with Perf_data.records = [] }

let test_roundtrip_empty_lbr_sample () =
  let a = tiny_archive () in
  roundtrip
    {
      a with
      Perf_data.records =
        [
          Record.Sample
            {
              Record.event = Pmu_event.Br_inst_retired_near_taken;
              ip = Layout.user_code_base;
              lbr = [||];
              ring = Ring.User;
              time = 1;
            };
        ];
    }

let test_roundtrip_kernel_only_images () =
  let kimg =
    assemble ~name:"vmlinux" ~base:Layout.kernel_code_base ~ring:Ring.Kernel
      [ func "kmain" [ i Hbbp_isa.Mnemonic.RET_NEAR [] ] ]
  in
  let a =
    {
      (tiny_archive ()) with
      Perf_data.analysis_images = [ kimg ];
      live_kernel_text = [ ("vmlinux", kimg.Image.code) ];
      records = [];
    }
  in
  roundtrip a;
  (* The patched analysis process is still constructible. *)
  let p = Perf_data.analysis_process a in
  checkb "kernel image present" true
    (Option.is_some (Process.find_image p "vmlinux"))

let test_session_records_no_run () =
  let img =
    assemble ~name:"w" ~base:Layout.user_code_base ~ring:Ring.User
      [ func "main" [ i Hbbp_isa.Mnemonic.RET_NEAR [] ] ]
  in
  let process = Process.create [ img ] in
  let session =
    Session.configure Pmu_model.default { Period.ebs = 997; lbr = 211 }
  in
  (* Never ran: the stream is just the COMM/MMAP header. *)
  let records = Session.records session process ~pid:1 ~name:"w" in
  checki "no samples" 0 (List.length (Record.samples records));
  checkb "header records present" true (List.length records >= 2);
  (* Armed sample-dropping faults have nothing to drop — and must not
     fabricate a Lost record. *)
  Faults.arm (plan_of_spec "seed=3,rec.drop_sample=1.0");
  let records' = Session.records session process ~pid:1 ~name:"w" in
  Faults.disarm ();
  checki "headers survive a sample-only drop plan" (List.length records)
    (List.length records');
  checki "no fabricated loss" 0 (lost_in records')

(* ------------------------------------------------------------------ *)
(* Quality thresholds and single-channel fallback                      *)

let reconstruct_of (p : Pipeline.profile) ?criteria ?thresholds records =
  Pipeline.reconstruct ?criteria ?thresholds ~static:p.Pipeline.static
    ~ebs_period:p.Pipeline.sim_periods.Period.ebs
    ~lbr_period:p.Pipeline.sim_periods.Period.lbr records

let bbec_counts_equal (a : Pipeline.reconstruction)
    (b : Pipeline.reconstruction) =
  compare a.Pipeline.r_hbbp.Hbbp_analyzer.Bbec.counts
    b.Pipeline.r_hbbp.Hbbp_analyzer.Bbec.counts
  = 0

let test_threshold_boundaries () =
  let w = mk_workload ~seed:0xFA07L "thresh" in
  let p = Pipeline.run w and records = stream_of w in
  let r = reconstruct_of p records in
  checkb "clean run is full quality" true
    (r.Pipeline.r_quality = Pipeline.Full);
  let snaps = r.Pipeline.r_lbr.Hbbp_analyzer.Lbr_estimator.snapshots in
  let ebs_total =
    Array.fold_left ( + )
      r.Pipeline.r_ebs.Hbbp_analyzer.Ebs_estimator.unattributed
      r.Pipeline.r_ebs.Hbbp_analyzer.Ebs_estimator.raw
  in
  (* LBR threshold: exactly at the boundary stays Full; one past trips
     degradation and the EBS-only fallback. *)
  let at =
    { Pipeline.default_thresholds with Pipeline.min_lbr_snapshots = snaps }
  in
  checkb "snapshots = min is full" true
    ((reconstruct_of p ~thresholds:at records).Pipeline.r_quality
    = Pipeline.Full);
  let past =
    { Pipeline.default_thresholds with Pipeline.min_lbr_snapshots = snaps + 1 }
  in
  let r' = reconstruct_of p ~thresholds:past records in
  (match r'.Pipeline.r_quality with
  | Pipeline.Full -> Alcotest.fail "expected degraded"
  | Pipeline.Degraded reasons ->
      checkb "LBR starvation reported" true
        (List.exists
           (function Pipeline.Lbr_starved _ -> true | _ -> false)
           reasons);
      checkb "EBS-only fallback reported" true
        (List.mem (Pipeline.Fallback `Ebs_only) reasons));
  (* The fallback result is exactly the cutoff-0 (all-EBS) fusion. *)
  let all_ebs =
    reconstruct_of p
      ~criteria:(Criteria.Length_rule { cutoff = 0; bias_to_ebs = false })
      records
  in
  checkb "EBS-only fallback equals cutoff-0 fusion" true
    (bbec_counts_equal r' all_ebs);
  (* Same dance on the EBS side. *)
  let at =
    { Pipeline.default_thresholds with Pipeline.min_ebs_samples = ebs_total }
  in
  checkb "samples = min is full" true
    ((reconstruct_of p ~thresholds:at records).Pipeline.r_quality
    = Pipeline.Full);
  let past =
    {
      Pipeline.default_thresholds with
      Pipeline.min_ebs_samples = ebs_total + 1;
    }
  in
  let r'' = reconstruct_of p ~thresholds:past records in
  match r''.Pipeline.r_quality with
  | Pipeline.Full -> Alcotest.fail "expected degraded"
  | Pipeline.Degraded reasons ->
      checkb "LBR-only fallback reported" true
        (List.mem (Pipeline.Fallback `Lbr_only) reasons)

let strip_event event records =
  List.filter
    (fun r ->
      match r with
      | Record.Sample s -> not (Pmu_event.equal s.Record.event event)
      | _ -> true)
    records

let test_stripped_channel_fallback () =
  let w = mk_workload ~seed:0xFA08L "strip" in
  let p = Pipeline.run w and records = stream_of w in
  (* No EBS samples at all → reconstruct from LBR alone. *)
  let no_ebs = strip_event Pmu_event.Inst_retired_prec_dist records in
  let r = reconstruct_of p no_ebs in
  (match r.Pipeline.r_quality with
  | Pipeline.Full -> Alcotest.fail "no EBS: expected degraded"
  | Pipeline.Degraded reasons ->
      checkb "EBS starvation reported" true
        (List.exists
           (function Pipeline.Ebs_starved _ -> true | _ -> false)
           reasons);
      checkb "LBR-only fallback" true
        (List.mem (Pipeline.Fallback `Lbr_only) reasons));
  (* No LBR samples at all → reconstruct from EBS alone. *)
  let no_lbr =
    strip_event Pmu_event.Br_inst_retired_near_taken records
  in
  let r = reconstruct_of p no_lbr in
  match r.Pipeline.r_quality with
  | Pipeline.Full -> Alcotest.fail "no LBR: expected degraded"
  | Pipeline.Degraded reasons ->
      checkb "EBS-only fallback" true
        (List.mem (Pipeline.Fallback `Ebs_only) reasons)

(* ------------------------------------------------------------------ *)
(* Chaos grid                                                          *)

(* Documented chaos accuracy bound: with sample loss at or below 5%, the
   HBBP average weighted mix error may exceed the clean run's by at most
   this margin (absolute).  The clean error on these synthetic workloads
   is ~2-4%; the margin is deliberately generous but still catches a
   channel collapsing. *)
let chaos_err_margin = 0.10

(* Plans exercising each layer and their combination; [bounded] marks
   plans mild enough (≤5% sample loss, no archive damage) that the
   accuracy bound must hold. *)
let chaos_plans =
  [
    ("pmu.drop=0.05", true);
    ("pmu.drop=0.02,pmu.burst_every=300,pmu.burst_len=5", true);
    ("pmu.skid=2,pmu.jitter=3", true);
    ("lbr.stuck=0.2,lbr.misrotate=0.2,lbr.truncate=6", false);
    ("rec.drop_sample=0.05,rec.reorder=8", true);
    ("rec.drop_comm=1.0,rec.drop_mmap=1.0", false);
    ("arch.flips=4", false);
    ("arch.truncate=-200", false);
    ("pmu.drop=0.03,lbr.stuck=0.1,rec.drop_sample=0.03,rec.reorder=4,arch.flips=2",
     false);
  ]

(* Fixed seeds (the CI chaos matrix), plus HBBP_CHAOS_SEED for ad-hoc
   exploration. *)
let chaos_seeds =
  let base = [ 1; 2; 3 ] in
  match Option.bind (Sys.getenv_opt "HBBP_CHAOS_SEED") int_of_string_opt with
  | Some n when not (List.mem n base) -> base @ [ n ]
  | Some _ | None -> base

(* On failure, keep the mangled archive around for post-mortem when
   HBBP_CHAOS_ARTIFACTS names a directory (the CI chaos job uploads
   it). *)
let dump_artifact ~seed ~spec data =
  match Sys.getenv_opt "HBBP_CHAOS_ARTIFACTS" with
  | None -> ()
  | Some dir ->
      (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
      let slug =
        String.map
          (fun c -> if c = '=' || c = ',' || c = '.' then '_' else c)
          spec
      in
      let path =
        Filename.concat dir (Printf.sprintf "chaos_s%d_%s.hbbp" seed slug)
      in
      let oc = open_out_bin path in
      output_bytes oc data;
      close_out oc

let test_chaos_grid () =
  let w = mk_workload ~seed:0xC0DEL "chaos" in
  let clean_p = Pipeline.run w in
  let clean_err = avg_err clean_p in
  List.iter
    (fun seed ->
      List.iter
        (fun (spec, bounded) ->
          let full = Printf.sprintf "seed=%d,%s" seed spec in
          let plan = plan_of_spec full in
          (* Injection itself must never raise. *)
          let p, archive, data =
            try
              Faults.reset_tally ();
              Faults.arm plan;
              let p = Pipeline.run w in
              let archive = Pipeline.collect_archive w in
              let data = Faults.mangle_archive (Perf_data.to_bytes archive) in
              Faults.disarm ();
              (p, archive, data)
            with e ->
              Faults.disarm ();
              Alcotest.failf "chaos %s: uncaught exception %s" full
                (Printexc.to_string e)
          in
          (* Collection loss above threshold must be labelled. *)
          let lost = lost_in archive.Perf_data.records in
          (if
             lost
             > Pipeline.default_thresholds.Pipeline.max_lost_records
           then
             match p.Pipeline.quality with
             | Pipeline.Degraded _ -> ()
             | Pipeline.Full ->
                 Alcotest.failf "chaos %s: lost %d records but quality full"
                   full lost);
          (* Mild plans: bounded accuracy loss. *)
          (if bounded then
             let err = avg_err p in
             if err > clean_err +. chaos_err_margin then
               Alcotest.failf
                 "chaos %s: error %.4f exceeds clean %.4f by more than %.2f"
                 full err clean_err chaos_err_margin);
          (* The mangled archive: typed error or salvage, and salvage
             analyzes as degraded — never an exception. *)
          match Perf_data.of_bytes data with
          | Error _ -> ()
          | Ok { Perf_data.archive; ledger } -> (
              let r =
                try Pipeline.analyze_archive ~ledger archive
                with e ->
                  dump_artifact ~seed ~spec data;
                  Alcotest.failf "chaos %s: analyze raised %s" full
                    (Printexc.to_string e)
              in
              if ledger <> [] then
                match r.Pipeline.r_quality with
                | Pipeline.Degraded _ -> ()
                | Pipeline.Full ->
                    Alcotest.failf
                      "chaos %s: %d ledger faults but full quality" full
                      (List.length ledger))
          | exception e ->
              dump_artifact ~seed ~spec data;
              Alcotest.failf "chaos %s: of_bytes raised %s" full
                (Printexc.to_string e))
        chaos_plans)
    chaos_seeds

(* ------------------------------------------------------------------ *)
(* IO-layer injection at the durable write paths                       *)

let io_payload =
  String.init 4096 (fun i -> Char.chr (((i * 31) + 7) land 0xff))

let io_target name = Filename.temp_file ("hbbp-io-" ^ name) ".bin"
let read_back path = In_channel.with_open_bin path In_channel.input_all

let no_stale path =
  checki
    ("no stale tmp beside " ^ Filename.basename path)
    0
    (Durable.remove_stale ~path)

let test_io_disarmed_identity () =
  let p1 = io_target "off" and p2 = io_target "inert" in
  Durable.write_file ~path:p1 io_payload;
  Faults.arm Plan.none;
  Durable.write_file ~path:p2 io_payload;
  Faults.disarm ();
  checkb "disarmed and inert-armed durable writes byte-identical" true
    (String.equal (read_back p1) (read_back p2));
  no_stale p1;
  no_stale p2;
  checki "nothing tallied" 0 (List.length (Faults.tally ()));
  Sys.remove p1;
  Sys.remove p2

let test_io_absorbed_faults_identical () =
  (* Transient faults at every site, at rates the in-loop absorption and
     the retry wrapper recover from: published bytes must not change. *)
  let clean = io_target "clean" and faulty = io_target "faulty" in
  Durable.write_file ~path:clean io_payload;
  Faults.reset_tally ();
  Faults.arm
    (plan_of_spec
       "seed=23,io.partial_write=1.0,io.eintr=0.5,io.rename_fail=0.3,\
        io.fsync_fail=0.3");
  Durable.write_file ~path:faulty io_payload;
  Faults.disarm ();
  checkb "published bytes identical under absorbed io faults" true
    (String.equal (read_back clean) (read_back faulty));
  no_stale faulty;
  checkb "io faults tallied" true
    (List.exists
       (fun (k, n) -> String.equal k "io.partial_write" && n > 0)
       (Faults.tally ()));
  Sys.remove clean;
  Sys.remove faulty

let test_io_enospc_typed () =
  let path = io_target "enospc" in
  Sys.remove path;
  Faults.arm (plan_of_spec "seed=29,io.enospc=1.0");
  (match Durable.write_file ~path io_payload with
  | () -> Alcotest.fail "io.enospc=1.0 write unexpectedly succeeded"
  | exception Durable.No_space _ -> ());
  Faults.disarm ();
  checkb "target absent after failed publication" false (Sys.file_exists path);
  no_stale path

let test_io_rename_exhausts () =
  let path = io_target "rename" in
  Sys.remove path;
  Faults.arm (plan_of_spec "seed=31,io.rename_fail=1.0");
  (match Durable.write_file ~path io_payload with
  | () -> Alcotest.fail "io.rename_fail=1.0 write unexpectedly succeeded"
  | exception Hbbp_durable.Retry.Exhausted _ -> ());
  Faults.disarm ();
  checkb "target absent after exhausted publication" false
    (Sys.file_exists path);
  no_stale path

let test_chaos_determinism () =
  let w = mk_workload ~seed:0xC0DEL "det" in
  let spec =
    "seed=9,pmu.drop=0.04,lbr.stuck=0.1,rec.drop_sample=0.03,rec.reorder=4,\
     arch.flips=2"
  in
  let run_once () =
    Faults.reset_tally ();
    Faults.arm (plan_of_spec spec);
    let p = Pipeline.run w in
    let data =
      Faults.mangle_archive (Perf_data.to_bytes (Pipeline.collect_archive w))
    in
    let t = Faults.tally () in
    Faults.disarm ();
    (p, data, t)
  in
  let p1, d1, t1 = run_once () in
  let p2, d2, t2 = run_once () in
  checkb "faulted profiles identical across runs" true (profiles_equal p1 p2);
  checkb "mangled archives identical across runs" true (Bytes.equal d1 d2);
  checkb "fault tallies identical across runs" true (t1 = t2)

let () =
  let tc name speed f = Alcotest.test_case name speed (clean f) in
  Alcotest.run "faults"
    [
      ( "plan",
        [
          tc "parse and roundtrip" `Quick test_plan_parse;
          tc "bad specs rejected" `Quick test_plan_bad_specs;
        ] );
      ("disarmed", [ tc "byte-identity" `Quick test_disarmed_identity ]);
      ( "inject",
        [
          tc "pmu sample drops" `Quick test_pmu_drops;
          tc "lbr corruption" `Quick test_lbr_corruption;
          tc "lbr faults act on the right slots" `Quick test_lbr_fault_slots;
          tc "stream faults degrade" `Quick test_stream_faults_degrade;
          tc "drop-only and reorder-only streams pinned" `Quick
            test_single_kind_streams_pinned;
          tc "drop and reorder per window" `Quick
            test_drop_and_reorder_windows;
        ] );
      ( "archive",
        [
          tc "truncation salvage" `Quick test_archive_truncation_salvage;
          tc "bit flips" `Quick test_archive_bit_flips;
        ] );
      ( "io",
        [
          tc "disarmed byte-identity at write sites" `Quick
            test_io_disarmed_identity;
          tc "absorbed faults keep bytes identical" `Quick
            test_io_absorbed_faults_identical;
          tc "enospc surfaces typed" `Quick test_io_enospc_typed;
          tc "rename exhaustion surfaces typed" `Quick
            test_io_rename_exhausts;
        ] );
      ( "fuzz",
        [
          tc "truncation at every offset" `Quick
            test_fuzz_truncation_every_offset;
          tc "bit flip at every byte" `Quick test_fuzz_bit_flip_every_byte;
        ] );
      ( "roundtrip",
        [
          tc "empty records" `Quick test_roundtrip_empty_records;
          tc "empty-lbr sample" `Quick test_roundtrip_empty_lbr_sample;
          tc "kernel-only images" `Quick test_roundtrip_kernel_only_images;
          tc "session without a run" `Quick test_session_records_no_run;
        ] );
      ( "degrade",
        [
          tc "threshold boundaries" `Quick test_threshold_boundaries;
          tc "stripped-channel fallback" `Quick
            test_stripped_channel_fallback;
        ] );
      ( "chaos",
        [
          tc "seeded fault-plan grid" `Slow test_chaos_grid;
          tc "determinism under faults" `Quick test_chaos_determinism;
        ] );
    ]
