(* Streaming/merge equivalence tests: the chunked reader, the
   incremental CRC, the mergeable accumulators and the multi-archive
   pipeline must all be *bit-identical* to their batch counterparts —
   over every bundled workload, over random shard splits (including
   empty shards), and over damaged archives, where the streaming
   reader's salvage ledger must match the batch reader's exactly. *)

open Hbbp_program
open Hbbp_program.Asm
open Hbbp_cpu
open Hbbp_collector
open Hbbp_core
open Hbbp_analyzer
module Crc32 = Hbbp_util.Crc32

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Scratch files                                                       *)

let with_tmp_file f =
  let path = Filename.temp_file "hbbp-stream" ".hbbp" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let write_file path data =
  let oc = open_out_bin path in
  output_bytes oc data;
  close_out oc

let ok_or_fail what = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s: %s" what msg

let drain_stream s =
  let rec go acc =
    match Perf_data.Stream.next s with
    | Some chunk -> go (chunk :: acc)
    | None -> List.concat (List.rev acc)
  in
  go []

(* ------------------------------------------------------------------ *)
(* Incremental CRC-32                                                  *)

let prop_crc_incremental =
  QCheck2.Test.make ~name:"incremental crc32 = one-shot" ~count:200
    QCheck2.Gen.(pair string (list_size (0 -- 6) nat))
    (fun (s, cuts) ->
      let data = Bytes.of_string s in
      let len = Bytes.length data in
      let cuts =
        List.sort_uniq compare
          (0 :: len :: List.map (fun c -> if len = 0 then 0 else c mod (len + 1)) cuts)
      in
      (* Fold the slices [c_i, c_i+1) through the stateful interface. *)
      let rec fold st = function
        | lo :: (hi :: _ as rest) ->
            fold (Crc32.update st ~off:lo ~len:(hi - lo) data) rest
        | _ -> st
      in
      Crc32.finish (fold (Crc32.init ()) cuts) = Crc32.bytes data
      && Crc32.finish (Crc32.update (Crc32.init ()) data) = Crc32.bytes data
      && Crc32.string s = Crc32.bytes data)

let test_crc_slice_validation () =
  let data = Bytes.of_string "0123456789" in
  let bad f = match f () with
    | (_ : Crc32.state) -> false
    | exception Invalid_argument _ -> true
  in
  checkb "negative off rejected" true
    (bad (fun () -> Crc32.update (Crc32.init ()) ~off:(-1) ~len:2 data));
  checkb "overlong len rejected" true
    (bad (fun () -> Crc32.update (Crc32.init ()) ~off:8 ~len:3 data));
  checkb "negative len rejected" true
    (bad (fun () -> Crc32.update (Crc32.init ()) ~off:0 ~len:(-1) data))

(* ------------------------------------------------------------------ *)
(* Shared fixtures: one collected archive, its static view, its db     *)

let fixture =
  lazy
    (let w = Hbbp_workloads.Registry.find "mcf" in
     let archive = Pipeline.collect_archive w in
     let static = Static.create_exn (Perf_data.analysis_process archive) in
     let db = Sample_db.of_records archive.Perf_data.records in
     (archive, static, db))

(* ------------------------------------------------------------------ *)
(* Sample_db.Builder                                                   *)

let test_builder_matches_of_records () =
  let archive, _, db = Lazy.force fixture in
  let records = archive.Perf_data.records in
  (* Feed in uneven chunks through separate builders, then merge. *)
  List.iter
    (fun chunk_size ->
      let rec chunks = function
        | [] -> []
        | l ->
            let rec take n = function
              | x :: rest when n > 0 ->
                  let got, rem = take (n - 1) rest in
                  (x :: got, rem)
              | l -> ([], l)
            in
            let got, rem = take chunk_size l in
            got :: chunks rem
      in
      let builders =
        List.map
          (fun chunk ->
            let b = Sample_db.Builder.create () in
            Sample_db.Builder.add_list b chunk;
            b)
          (chunks records)
      in
      let merged =
        match builders with
        | [] -> Sample_db.Builder.create ()
        | b :: rest -> List.fold_left Sample_db.Builder.merge b rest
      in
      checkb
        (Printf.sprintf "builder(chunk=%d) = of_records" chunk_size)
        true
        (compare (Sample_db.Builder.finalize merged) db = 0))
    [ 1; 7; 256; 100_000 ]

let test_builder_on_salvaged_truncation () =
  let archive, _, _ = Lazy.force fixture in
  let data = Perf_data.to_bytes archive in
  (* Cut inside the records section so batch salvage yields a proper
     prefix with a ledger. *)
  let cut = Bytes.length data * 4 / 5 in
  let truncated = Bytes.sub data 0 cut in
  let { Perf_data.archive = salvaged; ledger } =
    match Perf_data.of_bytes truncated with
    | Ok read -> read
    | Error e ->
        Alcotest.failf "batch salvage failed: %a" Perf_data.pp_error e
  in
  checkb "truncation left a ledger" true (ledger <> []);
  checkb "a record prefix survived" true (salvaged.Perf_data.records <> []);
  with_tmp_file @@ fun path ->
  write_file path truncated;
  let s =
    match Perf_data.Stream.open_file ~chunk_records:64 path with
    | Ok s -> s
    | Error e -> Alcotest.failf "stream open: %a" Perf_data.pp_error e
  in
  let b = Sample_db.Builder.create () in
  let rec pump () =
    match Perf_data.Stream.next s with
    | Some chunk ->
        Sample_db.Builder.add_list b chunk;
        pump ()
    | None -> ()
  in
  pump ();
  let stream_ledger = Perf_data.Stream.ledger s in
  Perf_data.Stream.close s;
  checkb "stream ledger = batch ledger" true (compare stream_ledger ledger = 0);
  checkb "builder over streamed salvage = of_records over batch salvage" true
    (compare
       (Sample_db.Builder.finalize b)
       (Sample_db.of_records salvaged.Perf_data.records)
    = 0)

(* ------------------------------------------------------------------ *)
(* Accumulator merge laws over random shard splits                     *)

(* Split [arr] at the given cut points (normalised into range, so empty
   slices happen whenever two cuts coincide). *)
let split_at cuts arr =
  let n = Array.length arr in
  let cuts =
    List.sort compare (0 :: n :: List.map (fun c -> if n = 0 then 0 else c mod (n + 1)) cuts)
  in
  let rec slices = function
    | lo :: (hi :: _ as rest) -> Array.sub arr lo (hi - lo) :: slices rest
    | _ -> []
  in
  slices cuts

let gen_cuts = QCheck2.Gen.(list_size (1 -- 6) nat)

let prop_ebs_merge_shard_split =
  QCheck2.Test.make ~name:"EBS acc: any shard split reconstructs batch"
    ~count:30 gen_cuts
    (fun cuts ->
      let archive, static, db = Lazy.force fixture in
      let period = archive.Perf_data.ebs_period in
      let parts = split_at cuts db.Sample_db.ebs in
      let acc_of part =
        let a = Ebs_estimator.Acc.create static in
        Array.iter (Ebs_estimator.Acc.add static a) part;
        a
      in
      let accs = List.map acc_of parts in
      let fold_l = List.fold_left Ebs_estimator.Acc.merge (acc_of [||]) accs in
      let fold_r =
        List.fold_right Ebs_estimator.Acc.merge accs (acc_of [||])
      in
      let rev = List.fold_left Ebs_estimator.Acc.merge (acc_of [||]) (List.rev accs) in
      let batch = Ebs_estimator.estimate static ~period db.Sample_db.ebs in
      compare (Ebs_estimator.finalize static ~period fold_l) batch = 0
      && compare (Ebs_estimator.finalize static ~period fold_r) batch = 0
      && compare (Ebs_estimator.finalize static ~period rev) batch = 0)

let prop_lbr_merge_shard_split =
  QCheck2.Test.make ~name:"LBR acc: any shard split reconstructs batch"
    ~count:30 gen_cuts
    (fun cuts ->
      let archive, static, db = Lazy.force fixture in
      let period = archive.Perf_data.lbr_period in
      let parts = split_at cuts db.Sample_db.lbr in
      let acc_of part =
        let a = Lbr_estimator.Acc.create static in
        Array.iter (Lbr_estimator.Acc.add static a) part;
        a
      in
      let accs = List.map acc_of parts in
      let fold_l = List.fold_left Lbr_estimator.Acc.merge (acc_of [||]) accs in
      let fold_r =
        List.fold_right Lbr_estimator.Acc.merge accs (acc_of [||])
      in
      let rev = List.fold_left Lbr_estimator.Acc.merge (acc_of [||]) (List.rev accs) in
      let batch = Lbr_estimator.estimate static ~period db.Sample_db.lbr in
      compare (Lbr_estimator.finalize static ~period fold_l) batch = 0
      && compare (Lbr_estimator.finalize static ~period fold_r) batch = 0
      && compare (Lbr_estimator.finalize static ~period rev) batch = 0)

let prop_bbec_merge_laws =
  (* Integer-valued counts (what both estimators hold before period
     scaling) make float addition exact, so merge is associative and
     commutative on the nose. *)
  QCheck2.Test.make ~name:"Bbec.merge associative + commutative" ~count:100
    QCheck2.Gen.(
      pair (1 -- 12)
        (triple (list_size (0 -- 12) (0 -- 1000))
           (list_size (0 -- 12) (0 -- 1000))
           (list_size (0 -- 12) (0 -- 1000))))
    (fun (n, (xs, ys, zs)) ->
      let bbec ints =
        let b = Bbec.create Bbec.Ebs n in
        List.iteri
          (fun k v -> if k < n then b.Bbec.counts.(k) <- float_of_int v)
          ints;
        b
      in
      let a = bbec xs and b = bbec ys and c = bbec zs in
      compare (Bbec.merge a b).Bbec.counts (Bbec.merge b a).Bbec.counts = 0
      && compare
           (Bbec.merge (Bbec.merge a b) c).Bbec.counts
           (Bbec.merge a (Bbec.merge b c)).Bbec.counts
         = 0)

(* ------------------------------------------------------------------ *)
(* Whole-pipeline byte identity: batch = streamed = sharded = merged   *)

let recon_equal (a : Pipeline.reconstruction) (b : Pipeline.reconstruction) =
  compare a.Pipeline.r_ebs.Ebs_estimator.raw b.Pipeline.r_ebs.Ebs_estimator.raw
    = 0
  && a.Pipeline.r_ebs.Ebs_estimator.unattributed
     = b.Pipeline.r_ebs.Ebs_estimator.unattributed
  && compare a.Pipeline.r_ebs.Ebs_estimator.bbec.Bbec.counts
       b.Pipeline.r_ebs.Ebs_estimator.bbec.Bbec.counts
     = 0
  && compare a.Pipeline.r_lbr b.Pipeline.r_lbr = 0
  && compare a.Pipeline.r_bias.Bias.flags b.Pipeline.r_bias.Bias.flags = 0
  && compare a.Pipeline.r_bias.Bias.stats b.Pipeline.r_bias.Bias.stats = 0
  && a.Pipeline.r_bias.Bias.snapshots = b.Pipeline.r_bias.Bias.snapshots
  && compare a.Pipeline.r_hbbp.Bbec.counts b.Pipeline.r_hbbp.Bbec.counts = 0
  && compare a.Pipeline.r_quality b.Pipeline.r_quality = 0

let test_streaming_identity_every_workload () =
  let names = Hbbp_workloads.Registry.names in
  let ws = List.map Hbbp_workloads.Registry.find names in
  let archives = Pipeline.collect_many ws in
  List.iter2
    (fun name archive ->
      with_tmp_file @@ fun path ->
      Perf_data.save archive ~path;
      let batch =
        match Perf_data.load ~path with
        | Ok { Perf_data.archive; ledger } ->
            Pipeline.analyze_archive ~ledger archive
        | Error e -> Alcotest.failf "%s: load: %a" name Perf_data.pp_error e
      in
      let check_same how r =
        checkb (Printf.sprintf "%s: %s = batch" name how) true
          (recon_equal batch r)
      in
      let _, streamed =
        ok_or_fail (name ^ ": streamed") (Pipeline.analyze_archives [ path ])
      in
      check_same "streamed" streamed;
      let _, tiny_chunks =
        ok_or_fail
          (name ^ ": tiny chunks")
          (Pipeline.analyze_archives ~chunk_records:17 [ path ])
      in
      check_same "chunk_records=17" tiny_chunks;
      let shard_paths = Perf_data.save_sharded archive ~shards:3 ~path in
      Fun.protect
        ~finally:(fun () ->
          List.iter
            (fun p -> if p <> path then try Sys.remove p with Sys_error _ -> ())
            shard_paths)
        (fun () ->
          let _, sharded =
            ok_or_fail (name ^ ": sharded")
              (Pipeline.analyze_archives shard_paths)
          in
          check_same "3 shards merged" sharded))
    names archives

let test_merge_reconstructions_matches_batch () =
  let archive, _, _ = Lazy.force fixture in
  with_tmp_file @@ fun path ->
  let shard_paths = Perf_data.save_sharded archive ~shards:3 ~path in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) shard_paths)
    (fun () ->
      match shard_paths with
      | [ p0; p1; p2 ] ->
          (* Merging partials requires one shared static view, so build
             both reconstructions over the same one (the documented
             discipline for [merge_reconstructions]). *)
          let static =
            Static.create_exn (Perf_data.analysis_process archive)
          in
          let partial_of paths =
            let p =
              Pipeline.Partial.create ~static
                ~ebs_period:archive.Perf_data.ebs_period
                ~lbr_period:archive.Perf_data.lbr_period ()
            in
            List.iter
              (fun path ->
                match Perf_data.Stream.open_file path with
                | Error e ->
                    Alcotest.failf "%s: %a" path Perf_data.pp_error e
                | Ok s ->
                    let rec pump () =
                      match Perf_data.Stream.next s with
                      | Some chunk ->
                          Pipeline.Partial.feed p chunk;
                          pump ()
                      | None -> ()
                    in
                    pump ();
                    Pipeline.Partial.note_faults p
                      (Perf_data.Stream.ledger s);
                    Perf_data.Stream.close s)
              paths;
            p
          in
          let head = Pipeline.finalize (partial_of [ p0 ]) in
          let tail = Pipeline.finalize (partial_of [ p1; p2 ]) in
          let merged = Pipeline.merge_reconstructions head tail in
          let _, all =
            ok_or_fail "all shards" (Pipeline.analyze_archives shard_paths)
          in
          checkb "merge_reconstructions = one-shot shard analysis" true
            (recon_equal merged all)
      | _ -> Alcotest.fail "expected exactly 3 shards")

(* Bias contamination reads the stream set the partial accumulated, so
   the entry points that never see the records twice — a chunk stream
   without a replay, and merged per-shard reconstructions — contaminate
   exactly as batch does.  [hello] is a workload whose bias detector
   flags branches. *)
let test_contamination_without_replay () =
  let archive = Pipeline.collect_archive (Hbbp_workloads.Registry.find "hello") in
  let static = Static.create_exn (Perf_data.analysis_process archive) in
  let ebs_period = archive.Perf_data.ebs_period
  and lbr_period = archive.Perf_data.lbr_period in
  let records = archive.Perf_data.records in
  let batch = Pipeline.reconstruct ~static ~ebs_period ~lbr_period records in
  checkb "hello: bias flags blocks" true
    (Bias.flagged_blocks batch.Pipeline.r_bias <> []);
  let split k xs =
    let n = List.length xs in
    List.init k (fun j ->
        List.filteri (fun i _ -> i * k / n = j) xs)
  in
  let pending = ref (split 37 records) in
  let streamed =
    Pipeline.reconstruct_stream ~static ~ebs_period ~lbr_period (fun () ->
        match !pending with
        | [] -> None
        | chunk :: rest ->
            pending := rest;
            Some chunk)
  in
  checkb "reconstruct_stream without replay = reconstruct" true
    (recon_equal batch streamed);
  let shards =
    List.map
      (Pipeline.reconstruct ~static ~ebs_period ~lbr_period)
      (split 4 records)
  in
  let merged =
    List.fold_left Pipeline.merge_reconstructions (List.hd shards)
      (List.tl shards)
  in
  checkb "merge_reconstructions of shards = reconstruct" true
    (recon_equal batch merged)

(* ------------------------------------------------------------------ *)
(* Damaged archives: streaming salvage = batch salvage, byte for byte  *)

(* Same construction as test_faults's fuzz target: small enough that a
   per-offset sweep with file I/O stays fast, with every record
   constructor represented. *)
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
              { Lbr.src = Layout.user_code_base + 8;
                tgt = Layout.user_code_base };
              { Lbr.src = Layout.user_code_base + 16;
                tgt = Layout.user_code_base + 4 };
            |]
          Pmu_event.Br_inst_retired_near_taken
          (Layout.user_code_base + 8);
        Record.Lost 1;
      ];
  }

(* Batch-vs-stream verdict on one byte string.  [chunk_records:1]
   maximises refill/retry churn in the streaming reader. *)
let check_same_verdict ~what path data =
  write_file path data;
  let batch = Perf_data.of_bytes data in
  let stream =
    match Perf_data.Stream.open_file ~chunk_records:1 path with
    | Error e -> Error e
    | Ok s ->
        let records = drain_stream s in
        let ledger = Perf_data.Stream.ledger s in
        Perf_data.Stream.close s;
        Ok (records, ledger)
  in
  match (batch, stream) with
  | Ok { Perf_data.archive; ledger }, Ok (records, s_ledger) ->
      if compare archive.Perf_data.records records <> 0 then
        Alcotest.failf "%s: records differ (batch %d, stream %d)" what
          (List.length archive.Perf_data.records)
          (List.length records);
      if compare ledger s_ledger <> 0 then
        Alcotest.failf "%s: ledgers differ (batch %s / stream %s)" what
          (String.concat "; "
             (List.map (Format.asprintf "%a" Perf_data.pp_fault) ledger))
          (String.concat "; "
             (List.map (Format.asprintf "%a" Perf_data.pp_fault) s_ledger))
  | Error a, Error b ->
      if compare a b <> 0 then
        Alcotest.failf "%s: errors differ (batch %a, stream %a)" what
          Perf_data.pp_error a Perf_data.pp_error b
  | Ok _, Error e ->
      Alcotest.failf "%s: batch salvaged, stream errored %a" what
        Perf_data.pp_error e
  | Error e, Ok _ ->
      Alcotest.failf "%s: batch errored %a, stream salvaged" what
        Perf_data.pp_error e

let test_fuzz_stream_truncation_every_offset () =
  let a = tiny_archive () in
  with_tmp_file @@ fun path ->
  List.iter
    (fun version ->
      let data = Perf_data.to_bytes ~version a in
      for n = 0 to Bytes.length data do
        check_same_verdict
          ~what:(Printf.sprintf "v%d truncated to %d" version n)
          path (Bytes.sub data 0 n)
      done)
    [ 1; 2 ]

let test_fuzz_stream_bit_flip_every_byte () =
  let a = tiny_archive () in
  with_tmp_file @@ fun path ->
  List.iter
    (fun version ->
      let data = Perf_data.to_bytes ~version a in
      for off = 0 to Bytes.length data - 1 do
        let flipped = Bytes.copy data in
        Bytes.set_uint8 flipped off
          (Bytes.get_uint8 flipped off lxor (1 lsl (off mod 8)));
        check_same_verdict
          ~what:(Printf.sprintf "v%d flip at %d" version off)
          path flipped
      done)
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* keep_records opt-in and sharded writing                             *)

let test_keep_records_default () =
  let w = Hbbp_workloads.Registry.find "mcf" in
  let p = Pipeline.run w in
  checki "records dropped by default" 0 (List.length p.Pipeline.records);
  checkb "record_count still populated" true (p.Pipeline.record_count > 0);
  let kept =
    Pipeline.run
      ~config:{ Pipeline.default_config with Pipeline.keep_records = true }
      w
  in
  checki "keep_records retains the stream" kept.Pipeline.record_count
    (List.length kept.Pipeline.records);
  checki "same collection either way" p.Pipeline.record_count
    kept.Pipeline.record_count

let test_save_sharded_naming_and_concat () =
  let archive, _, _ = Lazy.force fixture in
  with_tmp_file @@ fun path ->
  let dir = Filename.dirname path in
  let base = Filename.remove_extension (Filename.basename path) in
  (* shards=1 writes [path] itself. *)
  (match Perf_data.save_sharded archive ~shards:1 ~path with
  | [ p ] -> checkb "single shard keeps the path" true (p = path)
  | ps -> Alcotest.failf "expected 1 path, got %d" (List.length ps));
  let shards = 4 in
  let paths = Perf_data.save_sharded archive ~shards ~path in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths)
    (fun () ->
      List.iteri
        (fun k p ->
          checkb
            (Printf.sprintf "shard %d named <base>.%dof%d.hbbp" k k shards)
            true
            (p = Filename.concat dir
                   (Printf.sprintf "%s.%dof%d.hbbp" base k shards)))
        paths;
      let loaded =
        List.map
          (fun p ->
            match Perf_data.load ~path:p with
            | Ok { Perf_data.archive; ledger = [] } -> archive
            | Ok _ -> Alcotest.failf "%s: unexpected salvage" p
            | Error e -> Alcotest.failf "%s: %a" p Perf_data.pp_error e)
          paths
      in
      List.iter
        (fun (shard : Perf_data.t) ->
          checkb "shard metadata matches" true
            (shard.Perf_data.workload_name = archive.Perf_data.workload_name
            && shard.Perf_data.ebs_period = archive.Perf_data.ebs_period
            && shard.Perf_data.lbr_period = archive.Perf_data.lbr_period))
        loaded;
      checkb "concatenated shard records = original" true
        (compare
           (List.concat_map (fun (a : Perf_data.t) -> a.Perf_data.records) loaded)
           archive.Perf_data.records
        = 0));
  (* More shards than records: the surplus shards are empty but valid. *)
  let tiny = { (tiny_archive ()) with Perf_data.records = [] } in
  let paths = Perf_data.save_sharded tiny ~shards:3 ~path in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths)
    (fun () ->
      List.iter
        (fun p ->
          match Perf_data.load ~path:p with
          | Ok { Perf_data.archive = a; ledger = [] } ->
              checki "empty shard has no records" 0
                (List.length a.Perf_data.records)
          | Ok _ | Error _ -> Alcotest.failf "%s: empty shard unreadable" p)
        paths)

let () =
  Alcotest.run "streaming"
    [
      ( "crc32",
        [
          QCheck_alcotest.to_alcotest prop_crc_incremental;
          Alcotest.test_case "slice validation" `Quick
            test_crc_slice_validation;
        ] );
      ( "builder",
        [
          Alcotest.test_case "chunked = of_records" `Quick
            test_builder_matches_of_records;
          Alcotest.test_case "salvaged truncation" `Quick
            test_builder_on_salvaged_truncation;
        ] );
      ( "merge",
        [
          QCheck_alcotest.to_alcotest prop_ebs_merge_shard_split;
          QCheck_alcotest.to_alcotest prop_lbr_merge_shard_split;
          QCheck_alcotest.to_alcotest prop_bbec_merge_laws;
          Alcotest.test_case "merge_reconstructions = one-shot" `Quick
            test_merge_reconstructions_matches_batch;
          Alcotest.test_case "contamination without a replay" `Quick
            test_contamination_without_replay;
        ] );
      ( "identity",
        [
          Alcotest.test_case "batch = streamed = sharded, every workload"
            `Slow test_streaming_identity_every_workload;
        ] );
      ( "salvage",
        [
          Alcotest.test_case "truncation at every offset" `Slow
            test_fuzz_stream_truncation_every_offset;
          Alcotest.test_case "bit flip at every byte" `Slow
            test_fuzz_stream_bit_flip_every_byte;
        ] );
      ( "records",
        [
          Alcotest.test_case "keep_records opt-in" `Quick
            test_keep_records_default;
          Alcotest.test_case "sharded naming + concat" `Quick
            test_save_sharded_naming_and_concat;
        ] );
    ]
