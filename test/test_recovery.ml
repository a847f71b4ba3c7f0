(* Crash-safety tests: the durable-write layer (atomic publication,
   stale-staging cleanup), the seeded retry loop, the checkpoint and
   manifest formats (round-trip + corruption rejection), resumable
   sharded collection, checkpointed streaming analysis — and a
   kill-chaos harness that SIGKILLs a live collection at randomized
   points and asserts the resumed run converges to archives
   byte-identical to an uninterrupted one. *)

open Hbbp_core
module Perf_data = Hbbp_collector.Perf_data
module Manifest = Hbbp_collector.Manifest
module Durable = Hbbp_durable.Durable
module Retry = Hbbp_durable.Retry
module Metrics = Hbbp_telemetry.Metrics

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* Small deterministic synthetic workload, same shape as the fault and
   telemetry determinism tests. *)
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

let workload = lazy (mk_workload ~seed:0x5EC0L "recover")
let reference_archive = lazy (Pipeline.collect_archive (Lazy.force workload))

let fresh_base name = Filename.temp_file ("hbbp-recovery-" ^ name) ".hbbp"
let read_back path = In_channel.with_open_bin path In_channel.input_all

let cleanup base paths =
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    ((base :: Manifest.path_for base :: paths)
    @ [ base ^ ".ckpt" ])

(* ------------------------------------------------------------------ *)
(* Durable writes                                                      *)

let test_durable_atomic () =
  let p = Filename.temp_file "hbbp-durable" ".bin" in
  Durable.write_file ~path:p "first";
  Alcotest.(check string) "first publication" "first" (read_back p);
  Durable.write_file ~path:p "second, longer than the first";
  Alcotest.(check string)
    "overwrite is complete, never blended" "second, longer than the first"
    (read_back p);
  (* A staging file a killed writer left behind is swept by resume. *)
  let stale = p ^ ".tmp.99999" in
  Out_channel.with_open_bin stale (fun oc ->
      Out_channel.output_string oc "torn");
  checki "one stale staging file removed" 1 (Durable.remove_stale ~path:p);
  checkb "stale file gone" false (Sys.file_exists stale);
  checkb "published file untouched" true
    (String.equal (read_back p) "second, longer than the first");
  Sys.remove p

(* ------------------------------------------------------------------ *)
(* Retry                                                               *)

let quick_policy =
  { Retry.default with Retry.base_delay_s = 1e-6; max_delay_s = 1e-5 }

let test_retry () =
  let run () =
    let attempts = ref 0 in
    let v =
      Retry.with_retry ~policy:{ quick_policy with Retry.max_attempts = 5 }
        (fun () ->
          incr attempts;
          if !attempts < 4 then
            raise (Unix.Unix_error (Unix.EINTR, "test", ""));
          !attempts)
    in
    (v, !attempts)
  in
  checkb "retry schedule deterministic across runs" true (run () = run ());
  checkb "succeeds on the attempt that stops failing" true (run () = (4, 4));
  (match
     Retry.with_retry ~policy:{ quick_policy with Retry.max_attempts = 3 }
       (fun () -> raise (Unix.Unix_error (Unix.EAGAIN, "test", "")))
   with
  | () -> Alcotest.fail "expected exhaustion"
  | exception Retry.Exhausted { attempts; _ } ->
      checki "exhausted after max_attempts" 3 attempts);
  let calls = ref 0 in
  (match
     Retry.with_retry ~policy:quick_policy (fun () ->
         incr calls;
         failwith "fatal")
   with
  | () -> Alcotest.fail "expected the failure to propagate"
  | exception Failure _ -> checki "no retry on non-transient" 1 !calls)

(* ------------------------------------------------------------------ *)
(* Checkpoint format                                                   *)

let test_checkpoint_roundtrip () =
  let t =
    {
      Checkpoint.done_paths = [ "a.hbbp"; "dir with space/b.hbbp"; "" ];
      partial = Bytes.of_string "opaque partial payload";
    }
  in
  let data = Checkpoint.to_bytes t in
  (match Checkpoint.of_bytes data with
  | Ok t' -> checkb "round-trip" true (t = t')
  | Error e -> Alcotest.failf "round-trip: %s" e);
  (* Any single corrupted byte is rejected, never silently decoded. *)
  for i = 0 to Bytes.length data - 1 do
    let bad = Bytes.copy data in
    Bytes.set_uint8 bad i (Bytes.get_uint8 bad i lxor 0x40);
    match Checkpoint.of_bytes bad with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "corruption at byte %d accepted" i
  done;
  (* Every truncation is rejected. *)
  for len = 0 to Bytes.length data - 1 do
    match Checkpoint.of_bytes (Bytes.sub data 0 len) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncation to %d bytes accepted" len
  done

(* Lengths and counts read off disk are bounded by the bytes left: a
   section length near max_int (whose sum with the read position
   overflows) and an array count far beyond the data are typed errors,
   never exceptions, even behind a valid CRC. *)
let test_crafted_lengths () =
  let w_i64 buf v = Buffer.add_int64_le buf (Int64.of_int v) in
  let framed magic version payloads =
    let buf = Buffer.create 256 in
    Buffer.add_string buf magic;
    Buffer.add_uint8 buf version;
    List.iter
      (fun ints ->
        let p = Buffer.create 64 in
        List.iter (w_i64 p) ints;
        let payload = Buffer.to_bytes p in
        w_i64 buf (Bytes.length payload);
        w_i64 buf (Hbbp_util.Crc32.bytes payload);
        Buffer.add_bytes buf payload)
      payloads;
    Buffer.to_bytes buf
  in
  let overlong = Buffer.create 32 in
  Buffer.add_string overlong "HBBPCKPT";
  Buffer.add_uint8 overlong 1;
  w_i64 overlong max_int;
  w_i64 overlong 0;
  (match Checkpoint.of_bytes (Buffer.to_bytes overlong) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "overlong checkpoint section accepted");
  let static =
    Hbbp_analyzer.Static.create_exn
      (Perf_data.analysis_process (Lazy.force reference_archive))
  in
  let huge_count =
    framed "HBBPPART" 2 [ [ 1; 1; 0; 0; 0; 0; 0 ]; [ 0; 1 lsl 40; 7 ] ]
  in
  match Pipeline.Partial.restore ~static huge_count with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "partial with a huge array count accepted"

(* ------------------------------------------------------------------ *)
(* Manifest format                                                     *)

let test_manifest_roundtrip () =
  let m =
    {
      Manifest.label = "work load with spaces";
      shards = 2;
      written =
        [
          Manifest.shard_of_bytes ~index:0 ~file:"shard 0of2.hbbp"
            (Bytes.of_string "abc");
          Manifest.shard_of_bytes ~index:1 ~file:"shard 1of2.hbbp"
            (Bytes.of_string "defg");
        ];
      complete = true;
    }
  in
  (match Manifest.of_string (Manifest.to_string m) with
  | Ok m' -> checkb "round-trip (spaces in basenames)" true (m = m')
  | Error e -> Alcotest.failf "round-trip: %s" e);
  let incomplete = { m with Manifest.complete = false } in
  (match Manifest.of_string (Manifest.to_string incomplete) with
  | Ok m' -> checkb "incomplete round-trip" true (m' = incomplete)
  | Error e -> Alcotest.failf "incomplete round-trip: %s" e);
  List.iter
    (fun bad ->
      match Manifest.of_string bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted bad manifest %S" bad)
    [
      "";
      "not a manifest";
      "hbbp-manifest v2\nshards 1\ncomplete\n";
      "hbbp-manifest v1\nshard 0 12 zz file\n";
    ]

(* ------------------------------------------------------------------ *)
(* Resumable sharded collection                                        *)

let expected_shards ~shards ~path =
  Perf_data.sharded_bytes (Lazy.force reference_archive) ~shards ~path

let check_archive_set ~shards ~base paths =
  List.iter2
    (fun p (p', data) ->
      Alcotest.(check string) "shard path" p' p;
      checkb
        (Printf.sprintf "%s byte-identical to uninterrupted run"
           (Filename.basename p))
        true
        (String.equal (read_back p) (Bytes.to_string data)))
    paths
    (expected_shards ~shards ~path:base);
  (match Manifest.load ~archive_path:base with
  | Some (Ok m) ->
      checkb "manifest complete" true m.Manifest.complete;
      checki "all shards verified" shards
        (List.length
           (Manifest.verified_indices ~dir:(Filename.dirname base) m))
  | Some (Error e) -> Alcotest.failf "manifest: %s" e
  | None -> Alcotest.fail "manifest missing");
  List.iter
    (fun p -> checki "no stale staging files" 0 (Durable.remove_stale ~path:p))
    (base :: paths)

let count status l = List.length (List.filter (( = ) status) l)

let test_collect_resume () =
  let shards = 3 in
  let base = fresh_base "collect" in
  let w = Lazy.force workload in
  let paths, statuses = Recover.collect_sharded ~shards ~path:base w in
  checkb "fresh run writes every shard" true
    (List.for_all (( = ) Recover.Written) statuses);
  check_archive_set ~shards ~base paths;
  (* Resume over a complete verified set touches nothing (and skips the
     collection entirely, via the manifest fast path). *)
  let _, st = Recover.collect_sharded ~resume:true ~shards ~path:base w in
  checkb "complete set fully reused" true
    (List.for_all (( = ) Recover.Reused) st);
  (* A missing shard is re-published; intact ones are reused. *)
  let victim = List.nth paths 1 in
  Sys.remove victim;
  let _, st = Recover.collect_sharded ~resume:true ~shards ~path:base w in
  checkb "missing shard rewritten" true
    (List.nth st 1 = Recover.Written
    && count Recover.Reused st = shards - 1);
  check_archive_set ~shards ~base paths;
  (* A torn shard (raw truncation, no rename) is detected and
     re-published. *)
  Out_channel.with_open_bin victim (fun oc ->
      Out_channel.output_string oc
        (String.sub (read_back (List.nth paths 0)) 0 64));
  let _, st = Recover.collect_sharded ~resume:true ~shards ~path:base w in
  checkb "torn shard rewritten" true (List.nth st 1 = Recover.Written);
  check_archive_set ~shards ~base paths;
  cleanup base paths

(* should_stop interruption publishes a loadable partial manifest. *)
let test_collect_interrupt () =
  let shards = 4 in
  let base = fresh_base "interrupt" in
  let w = Lazy.force workload in
  let polls = ref 0 in
  let stop () =
    incr polls;
    !polls > 2
  in
  (match
     Recover.collect_sharded ~should_stop:stop ~shards ~path:base w
   with
  | _ -> Alcotest.fail "expected Interrupted"
  | exception Recover.Interrupted -> ());
  (match Manifest.load ~archive_path:base with
  | Some (Ok m) ->
      checkb "interrupted manifest incomplete" false m.Manifest.complete;
      checki "two shards published before the stop" 2
        (List.length m.Manifest.written)
  | _ -> Alcotest.fail "interrupted manifest unreadable");
  let paths, st = Recover.collect_sharded ~resume:true ~shards ~path:base w in
  checki "published prefix reused" 2 (count Recover.Reused st);
  check_archive_set ~shards ~base paths;
  cleanup base paths

(* ------------------------------------------------------------------ *)
(* Kill-chaos: SIGKILL mid-collection, resume, byte-identity           *)

let test_kill_chaos () =
  let shards = 4 in
  let w = Lazy.force workload in
  List.iter
    (fun seed ->
      let base = fresh_base (Printf.sprintf "chaos%d" seed) in
      let rng = Random.State.make [| 0xC4A05; seed |] in
      let kill_delay = 0.01 +. Random.State.float rng 0.15 in
      (match Unix.fork () with
      | 0 ->
          (* Child: publish slowly so the SIGKILL lands at a random
             point of the collect/write/manifest sequence. *)
          (try
             ignore
               (Recover.collect_sharded ~inter_shard_delay_s:0.03 ~shards
                  ~path:base w)
           with _ -> ());
          Unix._exit 0
      | pid ->
          Unix.sleepf kill_delay;
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid));
      (* Either the kill landed (a real resume) or the child finished
         first (the complete-manifest fast path) — both are accounted. *)
      let resumes = Metrics.counter "recover.resumes" in
      let hits = Metrics.counter "recover.manifest_hits" in
      let before =
        Metrics.counter_value resumes + Metrics.counter_value hits
      in
      let paths, _ =
        Recover.collect_sharded ~resume:true ~shards ~path:base w
      in
      checki "resume or fast path accounted" (before + 1)
        (Metrics.counter_value resumes + Metrics.counter_value hits);
      check_archive_set ~shards ~base paths;
      cleanup base paths)
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Checkpointed streaming analysis                                     *)

let serialize_result = function
  | Ok ((_ : Perf_data.t), r) ->
      Pipeline.Partial.serialize r.Pipeline.r_partial
  | Error msg -> Alcotest.failf "analysis failed: %s" msg

let test_partial_roundtrip () =
  let shards = 4 in
  let base = fresh_base "partial" in
  let paths =
    Perf_data.save_sharded (Lazy.force reference_archive) ~shards ~path:base
  in
  match Pipeline.analyze_archives paths with
  | Error msg -> Alcotest.failf "analyze: %s" msg
  | Ok (_, r) ->
      let p = r.Pipeline.r_partial in
      let static = Pipeline.Partial.static p in
      let blob = Pipeline.Partial.serialize p in
      (match Pipeline.Partial.restore ~static blob with
      | Error e -> Alcotest.failf "restore: %s" e
      | Ok p' ->
          checkb "serialize∘restore is the identity on the wire" true
            (Bytes.equal blob (Pipeline.Partial.serialize p')));
      (* Single-byte corruption of the blob is always rejected. *)
      let rejected = ref 0 in
      for i = 0 to Bytes.length blob - 1 do
        let bad = Bytes.copy blob in
        Bytes.set_uint8 bad i (Bytes.get_uint8 bad i lxor 0x20);
        match Pipeline.Partial.restore ~static bad with
        | Error _ -> incr rejected
        | Ok _ -> Alcotest.failf "partial corruption at byte %d accepted" i
      done;
      checki "every corruption rejected" (Bytes.length blob) !rejected;
      cleanup base paths

let test_analyze_resume_identical () =
  let shards = 4 in
  let base = fresh_base "analyze" in
  let ckpt = base ^ ".ckpt" in
  let paths =
    Perf_data.save_sharded (Lazy.force reference_archive) ~shards ~path:base
  in
  let uninterrupted = serialize_result (Pipeline.analyze_archives paths) in
  (* The resumable driver without an interruption is equivalent — and
     deletes its checkpoint on success. *)
  let straight =
    serialize_result (Recover.analyze_archives ~checkpoint:ckpt paths)
  in
  checkb "resumable driver equivalent when uninterrupted" true
    (Bytes.equal uninterrupted straight);
  checkb "checkpoint removed on success" false (Sys.file_exists ckpt);
  (* Interrupt after two archives, resume, compare. *)
  let polls = ref 0 in
  let stop () =
    incr polls;
    !polls > 2
  in
  (match Recover.analyze_archives ~checkpoint:ckpt ~should_stop:stop paths with
  | _ -> Alcotest.fail "expected Interrupted"
  | exception Recover.Interrupted -> ());
  checkb "checkpoint exists after interruption" true (Sys.file_exists ckpt);
  let restores = Metrics.counter "checkpoint.restores" in
  let restores0 = Metrics.counter_value restores in
  let resumed =
    serialize_result
      (Recover.analyze_archives ~resume:true ~checkpoint:ckpt paths)
  in
  checki "restore accounted" (restores0 + 1) (Metrics.counter_value restores);
  checkb "resumed analysis byte-identical" true
    (Bytes.equal uninterrupted resumed);
  checkb "checkpoint removed after resumed success" false
    (Sys.file_exists ckpt);
  (* A damaged checkpoint silently falls back to a full, correct run. *)
  Durable.write_file ~path:ckpt "garbage, not a checkpoint";
  let fallback =
    serialize_result
      (Recover.analyze_archives ~resume:true ~checkpoint:ckpt paths)
  in
  checkb "damaged checkpoint falls back to a full run" true
    (Bytes.equal uninterrupted fallback);
  cleanup base paths

(* Resuming must carry the bias accumulator's stream set: on [hello],
   where bias flags branches, contamination reads that set, so a resume
   whose checkpoint dropped it would finalize different flags. *)
let hello_shards =
  lazy
    (let base = fresh_base "hello" in
     let archive =
       Pipeline.collect_archive (Hbbp_workloads.Registry.find "hello")
     in
     (base, Perf_data.save_sharded archive ~shards:4 ~path:base))

let digest (r : Pipeline.reconstruction) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( r.Pipeline.r_bias.Hbbp_analyzer.Bias.flags,
            r.Pipeline.r_bias.Hbbp_analyzer.Bias.stats,
            r.Pipeline.r_lbr,
            r.Pipeline.r_ebs.Hbbp_analyzer.Ebs_estimator.raw,
            r.Pipeline.r_hbbp.Hbbp_analyzer.Bbec.counts,
            r.Pipeline.r_quality )
          []))

let analyzed = function
  | Ok ((_ : Perf_data.t), r) -> r
  | Error msg -> Alcotest.failf "analysis failed: %s" msg

let interrupt_after n ~checkpoint paths =
  let polls = ref 0 in
  let should_stop () =
    incr polls;
    !polls > n
  in
  match Recover.analyze_archives ~checkpoint ~should_stop paths with
  | _ -> Alcotest.failf "expected Interrupted after %d archives" n
  | exception Recover.Interrupted -> ()

let test_resume_carries_streams () =
  let base, paths = Lazy.force hello_shards in
  let ckpt = base ^ ".ckpt" in
  let whole = analyzed (Pipeline.analyze_archives paths) in
  checkb "hello: bias flags blocks" true
    (Hbbp_analyzer.Bias.flagged_blocks whole.Pipeline.r_bias <> []);
  List.iter
    (fun n ->
      interrupt_after n ~checkpoint:ckpt paths;
      let resumed =
        analyzed (Recover.analyze_archives ~resume:true ~checkpoint:ckpt paths)
      in
      Alcotest.(check string)
        (Printf.sprintf "resumed after %d of 4 = uninterrupted" n)
        (digest whole) (digest resumed))
    [ 1; 3 ]

(* A version-1 checkpoint predates the stream set: restoring it is a
   typed error, and a resume falls back to a clean full analysis. *)
let test_v1_checkpoint_restarts () =
  let base, paths = Lazy.force hello_shards in
  let ckpt = base ^ ".ckpt" in
  let whole = analyzed (Pipeline.analyze_archives paths) in
  interrupt_after 2 ~checkpoint:ckpt paths;
  let ck =
    match Checkpoint.load ~path:ckpt with
    | Some (Ok ck) -> ck
    | Some (Error e) -> Alcotest.failf "checkpoint: %s" e
    | None -> Alcotest.fail "no checkpoint after interruption"
  in
  (* The version byte follows the 8-byte magic. *)
  let v1 = Bytes.copy ck.Checkpoint.partial in
  Bytes.set_uint8 v1 8 1;
  (match
     Pipeline.Partial.restore
       ~static:(Pipeline.Partial.static whole.Pipeline.r_partial)
       v1
   with
  | Ok _ -> Alcotest.fail "version-1 partial restored"
  | Error e ->
      Alcotest.(check string) "typed restore error" "unsupported version 1" e);
  Checkpoint.save { ck with Checkpoint.partial = v1 } ~path:ckpt;
  let restores = Metrics.counter "checkpoint.restores" in
  let restores0 = Metrics.counter_value restores in
  let restarted =
    analyzed (Recover.analyze_archives ~resume:true ~checkpoint:ckpt paths)
  in
  checki "version-1 checkpoint not restored" restores0
    (Metrics.counter_value restores);
  Alcotest.(check string) "restarted analysis = uninterrupted"
    (digest whole) (digest restarted);
  cleanup base paths

(* A typed error ends a checkpointed analysis like a success: it names
   the archive, and no checkpoint is left behind — even when archives
   before the failing one were already checkpointed. *)
let expect_error_without_checkpoint ~what ~prefix ~checkpoint result =
  (match result with
  | Ok _ -> Alcotest.failf "%s: expected an error" what
  | Error msg ->
      if not (String.starts_with ~prefix msg) then
        Alcotest.failf "%s: %S does not start with %S" what msg prefix);
  checkb (what ^ ": no checkpoint left behind") false
    (Sys.file_exists checkpoint)

let test_missing_archive_is_typed () =
  let base = fresh_base "missing" in
  let ckpt = base ^ ".ckpt" in
  let paths =
    Perf_data.save_sharded (Lazy.force reference_archive) ~shards:2 ~path:base
  in
  let missing = base ^ ".missing" in
  expect_error_without_checkpoint ~what:"missing after two shards"
    ~prefix:(missing ^ ": ") ~checkpoint:ckpt
    (Recover.analyze_archives ~checkpoint:ckpt (paths @ [ missing ]));
  expect_error_without_checkpoint ~what:"missing, resumed"
    ~prefix:(missing ^ ": ") ~checkpoint:ckpt
    (Recover.analyze_archives ~resume:true ~checkpoint:ckpt [ missing ]);
  cleanup base paths

let test_undisassemblable_is_typed () =
  let base = fresh_base "garbage" in
  let ckpt = base ^ ".ckpt" in
  let a = Lazy.force reference_archive in
  let garbage (img : Hbbp_program.Image.t) =
    Hbbp_program.Image.make ~name:img.name ~base:img.base
      ~code:(Bytes.make (Bytes.length img.code) '\xff')
      ~symbols:img.symbols ~ring:img.ring
  in
  let bad =
    {
      a with
      Perf_data.analysis_images =
        List.mapi
          (fun k img -> if k = 0 then garbage img else img)
          a.Perf_data.analysis_images;
    }
  in
  Durable.write_bytes ~path:base (Perf_data.to_bytes bad);
  expect_error_without_checkpoint ~what:"undisassemblable archive"
    ~prefix:(base ^ ": disassembly error") ~checkpoint:ckpt
    (Recover.analyze_archives ~checkpoint:ckpt [ base ]);
  cleanup base []

let () =
  Alcotest.run "recovery"
    [
      ( "durable",
        [
          Alcotest.test_case "atomic publication" `Quick test_durable_atomic;
          Alcotest.test_case "retry" `Quick test_retry;
        ] );
      ( "formats",
        [
          Alcotest.test_case "checkpoint round-trip & corruption" `Quick
            test_checkpoint_roundtrip;
          Alcotest.test_case "manifest round-trip & corruption" `Quick
            test_manifest_roundtrip;
          Alcotest.test_case "partial round-trip & corruption" `Quick
            test_partial_roundtrip;
          Alcotest.test_case "crafted lengths are typed errors" `Quick
            test_crafted_lengths;
        ] );
      ( "collect",
        [
          Alcotest.test_case "resume reuses and repairs shards" `Quick
            test_collect_resume;
          Alcotest.test_case "interrupt publishes progress" `Quick
            test_collect_interrupt;
          Alcotest.test_case "kill-chaos converges byte-identical" `Quick
            test_kill_chaos;
        ] );
      ( "analyze",
        [
          Alcotest.test_case "resume is byte-identical" `Quick
            test_analyze_resume_identical;
          Alcotest.test_case "resume carries the bias stream set" `Quick
            test_resume_carries_streams;
          Alcotest.test_case "version-1 checkpoint restarts cleanly" `Quick
            test_v1_checkpoint_restarts;
          Alcotest.test_case "missing archive is a typed error" `Quick
            test_missing_archive_is_typed;
          Alcotest.test_case "undisassemblable image is a typed error" `Quick
            test_undisassemblable_is_typed;
        ] );
    ]
