(* Streaming/merge equivalence tests: the incremental CRC, the
   mergeable accumulators and the multi-archive pipeline must all be
   *bit-identical* to their one-shot counterparts — over every bundled
   workload and over random shard splits (including empty shards).  The
   archive reader, one [Perf_data.Stream] over a file or over bytes in
   memory, is checked against an oracle derived from the encoder on cut
   archives, and its file-backed and in-memory forms against each other
   on damaged ones. *)

open Hbbp_program
open Hbbp_program.Asm
open Hbbp_cpu
open Hbbp_collector
open Hbbp_core
open Hbbp_analyzer
module Crc32 = Hbbp_util.Crc32
module Faults = Hbbp_faults.Faults
module Plan = Hbbp_faults.Fault_plan

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Scratch files                                                       *)

(* [f path] on a fresh temporary archive path; the file and the
   manifest sidecar [Perf_data.save_sharded] publishes beside it are
   removed afterwards. *)
let with_tmp_file f =
  let path = Filename.temp_file "hbbp-stream" ".hbbp" in
  let remove p = try Sys.remove p with Sys_error _ -> () in
  Fun.protect
    ~finally:(fun () -> List.iter remove [ path; Manifest.path_for path ])
    (fun () -> f path)

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

(* Bytewise reference CRC-32: the textbook one-table loop, kept here as
   the oracle for the sliced implementation. *)
let oracle_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let oracle_crc ~off ~len data =
  let c = ref 0xFFFFFFFF in
  for k = off to off + len - 1 do
    c :=
      oracle_table.((!c lxor Bytes.get_uint8 data k) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let test_crc_known_answers () =
  checki "check value of \"123456789\"" 0xCBF43926 (Crc32.string "123456789");
  checki "empty input" 0 (Crc32.string "");
  (* 5000 bytes, (7k + 3) mod 256; the value is zlib's crc32. *)
  let v = Bytes.init 5000 (fun k -> Char.chr (((k * 7) + 3) land 0xFF)) in
  checki "5000-byte vector" 0x1ABD04D4 (Crc32.bytes v);
  checki "oracle agrees on the vector" 0x1ABD04D4
    (oracle_crc ~off:0 ~len:5000 v);
  (* Every alignment and every length across the 8-byte step. *)
  for off = 0 to 7 do
    for len = 0 to 80 do
      if Crc32.bytes ~off ~len v <> oracle_crc ~off ~len v then
        Alcotest.failf "off %d len %d differs from the oracle" off len
    done
  done

(* Random content, unaligned [off], [len] 0..80 (across the 8-byte
   boundary), and the slice split in two at every position. *)
let prop_crc_oracle =
  QCheck2.Test.make ~name:"sliced crc32 = bytewise oracle, every split"
    ~count:300
    QCheck2.Gen.(triple (0 -- 15) (0 -- 80) (string_size (return 96)))
    (fun (off, len, s) ->
      let data = Bytes.of_string s in
      let expected = oracle_crc ~off ~len data in
      Crc32.bytes ~off ~len data = expected
      && List.for_all
           (fun cut ->
             let st = Crc32.update (Crc32.init ()) ~off ~len:(cut - off) data in
             Crc32.finish (Crc32.update st ~off:cut ~len:(off + len - cut) data)
             = expected)
           (List.init (len + 1) (fun k -> off + k)))

(* Combining: the CRC of [a ^ b] from the CRCs of [a] and [b] and the
   length of [b], over unaligned slices [off, cut) and [cut, stop) of
   one buffer of up to 4 KiB; either slice may be empty. *)
let prop_crc_combine =
  QCheck2.Test.make ~name:"combine (crc a) (crc b) (len b) = crc (a ^ b)"
    ~count:300
    QCheck2.Gen.(quad (string_size (0 -- 4200)) nat nat nat)
    (fun (s, x, y, z) ->
      let data = Bytes.of_string s in
      let n = Bytes.length data in
      let off = x mod (n + 1) in
      let stop = off + (y mod (n - off + 1)) in
      let cut = off + (z mod (stop - off + 1)) in
      Crc32.combine
        (Crc32.bytes ~off ~len:(cut - off) data)
        (Crc32.bytes ~off:cut ~len:(stop - cut) data)
        (stop - cut)
      = Crc32.bytes ~off ~len:(stop - off) data)

(* Empty halves, every length 0-4096 appended to a short unaligned
   prefix, and a few splits of ~1 MiB. *)
let test_crc_combine_lengths () =
  let st = Random.State.make [| 24 |] in
  let v =
    Bytes.init ((1 lsl 20) + 64) (fun _ -> Char.chr (Random.State.int st 256))
  in
  let crc ~off ~len = Crc32.bytes ~off ~len v in
  let check_split ~off ~cut ~stop =
    if
      Crc32.combine (crc ~off ~len:(cut - off))
        (crc ~off:cut ~len:(stop - cut))
        (stop - cut)
      <> crc ~off ~len:(stop - off)
    then Alcotest.failf "split %d/%d/%d differs" off cut stop
  in
  checki "both empty" 0 (Crc32.combine 0 0 0);
  checki "empty b" (crc ~off:3 ~len:77)
    (Crc32.combine (crc ~off:3 ~len:77) 0 0);
  checki "empty a" (crc ~off:3 ~len:77)
    (Crc32.combine 0 (crc ~off:3 ~len:77) 77);
  for len = 0 to 4096 do
    check_split ~off:5 ~cut:18 ~stop:(18 + len)
  done;
  List.iter
    (fun (off, cut, stop) -> check_split ~off ~cut ~stop)
    [
      (0, 0, 1 lsl 20);
      (0, 1 lsl 20, 1 lsl 20);
      (1, 9, (1 lsl 20) + 9);
      (7, (1 lsl 19) + 3, (1 lsl 20) + 63);
      (0, 24, (1 lsl 20) - 1);
    ];
  match Crc32.combine 0 0 (-1) with
  | _ -> Alcotest.fail "negative length accepted"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Shared fixtures: one collected archive, its static view, its db     *)

let fixture =
  lazy
    (let w = Hbbp_workloads.Registry.find "mcf" in
     let archive = Pipeline.collect_archive w in
     let static = Static.create_exn (Perf_data.analysis_process archive) in
     let db = Sample_db.of_records archive.Perf_data.records in
     (archive, static, db))

(* Every registry workload's name and collected archive. *)
let registry =
  lazy
    (let names = Hbbp_workloads.Registry.names in
     let ws = List.map Hbbp_workloads.Registry.find names in
     (names, Pipeline.collect_many ws))

(* ------------------------------------------------------------------ *)
(* Sample_db over a salvaged stream                                    *)

let test_sample_db_on_salvaged_truncation () =
  let archive, _, _ = Lazy.force fixture in
  let data = Perf_data.to_bytes archive in
  (* Cut inside the records section so salvage yields a proper prefix
     with a ledger. *)
  let cut = Bytes.length data * 4 / 5 in
  let truncated = Bytes.sub data 0 cut in
  let { Perf_data.archive = salvaged; ledger } =
    match Perf_data.of_bytes truncated with
    | Ok read -> read
    | Error e ->
        Alcotest.failf "in-memory salvage failed: %a" Perf_data.pp_error e
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
  let streamed = drain_stream s in
  let stream_ledger = Perf_data.Stream.ledger s in
  Perf_data.Stream.close s;
  checkb "file ledger = in-memory ledger" true
    (compare stream_ledger ledger = 0);
  checkb "of_records over streamed salvage = over in-memory salvage" true
    (compare
       (Sample_db.of_records streamed)
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

(* [hello]: a workload whose bias detector flags branches, so bias
   results exercise contamination, not just tallies. *)
let hello_fixture =
  lazy
    (let archive =
       Pipeline.collect_archive (Hbbp_workloads.Registry.find "hello")
     in
     let static = Static.create_exn (Perf_data.analysis_process archive) in
     (archive, static, Sample_db.of_records archive.Perf_data.records))

let prop_bias_merge_shard_split =
  QCheck2.Test.make ~name:"bias acc: any shard split detects as batch"
    ~count:20 gen_cuts
    (fun cuts ->
      let _, static, db = Lazy.force hello_fixture in
      let acc_of part =
        let a = Bias.Acc.create () in
        Array.iter (Bias.Acc.add static a) part;
        a
      in
      let accs = List.map acc_of (split_at cuts db.Sample_db.lbr) in
      let batch = Bias.detect static db.Sample_db.lbr in
      let same acc = compare (Bias.finalize static acc ~replay:None) batch = 0 in
      Bias.flagged_blocks batch <> []
      && same (List.fold_left Bias.Acc.merge (acc_of [||]) accs)
      && same (List.fold_right Bias.Acc.merge accs (acc_of [||]))
      && same
           (List.fold_left Bias.Acc.merge (acc_of [||]) (List.rev accs)))

(* [acc] written into a checkpoint section and read back. *)
let through_section write read acc =
  let module Codec = Hbbp_util.Codec in
  let data =
    Codec.frame ~magic:"ACC" ~version:0 [ (fun w -> write w acc) ]
  in
  match
    Codec.unframe ~magic:"ACC" ~version:0 data (fun c ->
        Codec.r_section c read)
  with
  | Ok acc -> acc
  | Error e -> Alcotest.failf "accumulator section: %s" e

(* The walk tables are caches: an accumulator restored from a checkpoint
   starts with an empty table while the original keeps its warm one,
   and both must go on to the same results, fed alone or merged.  Each
   table walks exactly the distinct (target, src) pairs it was fed. *)
let prop_warm_and_cold_tables =
  QCheck2.Test.make ~name:"warm and cold walk tables reconstruct alike"
    ~count:20 QCheck2.Gen.nat
    (fun cut ->
      let archive, static, db = Lazy.force hello_fixture in
      let lbr = db.Sample_db.lbr in
      let n = Array.length lbr in
      let cut = cut mod (n + 1) in
      let head = Array.sub lbr 0 cut and tail = Array.sub lbr cut (n - cut) in
      let distinct parts =
        let pairs = Hashtbl.create 1024 in
        List.iter
          (Array.iter (fun (s : Sample_db.lbr_sample) ->
               let e = s.Sample_db.entries in
               for k = 1 to Lbr.entries e - 1 do
                 Hashtbl.replace pairs (e.((2 * k) - 1), e.(2 * k)) ()
               done))
          parts;
        Hashtbl.length pairs
      in
      let period = archive.Perf_data.lbr_period in
      let lbr_ok =
        let module A = Lbr_estimator.Acc in
        let fed part =
          let a = A.create static in
          Array.iter (A.add static a) part;
          a
        in
        let restored = through_section A.write (A.read ~static) in
        let warm = fed head in
        let cold = restored warm in
        Array.iter (A.add static warm) tail;
        Array.iter (A.add static cold) tail;
        let batch = Lbr_estimator.estimate static ~period lbr in
        let same a =
          compare (Lbr_estimator.finalize static ~period a) batch = 0
        in
        same warm && same cold
        && same (A.merge (fed head) (restored (fed tail)))
        && A.walks warm = distinct [ head; tail ]
        && A.walks cold = distinct [ tail ]
      in
      let bias_ok =
        let module A = Bias.Acc in
        let fed part =
          let a = A.create () in
          Array.iter (A.add static a) part;
          a
        in
        let restored = through_section (A.write ~static) (A.read ~static) in
        let warm = fed head in
        let cold = restored warm in
        Array.iter (A.add static warm) tail;
        Array.iter (A.add static cold) tail;
        let batch = Bias.detect static lbr in
        let same a = compare (Bias.finalize static a ~replay:None) batch = 0 in
        same warm && same cold
        && same (A.merge (fed head) (restored (fed tail)))
        && A.walks warm = distinct [ head; tail ]
        && A.walks cold = distinct [ tail ]
      in
      lbr_ok && bias_ok)

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
  let names, archives = Lazy.force registry in
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
      let tiny_chunks =
        let what = name ^ ": tiny chunks" in
        let s =
          match Perf_data.Stream.open_file ~chunk_records:17 path with
          | Ok s -> s
          | Error e -> Alcotest.failf "%s: %a" what Perf_data.pp_error e
        in
        let meta = Perf_data.Stream.meta s in
        let static = ok_or_fail what (Pipeline.archive_static path meta) in
        Pipeline.finalize
          (ok_or_fail what (Pipeline.archive_partial ~static ~meta path s))
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

let test_partial_merge_matches_batch () =
  let archive, _, _ = Lazy.force fixture in
  with_tmp_file @@ fun path ->
  let shard_paths = Perf_data.save_sharded archive ~shards:3 ~path in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) shard_paths)
    (fun () ->
      match shard_paths with
      | [ p0; p1; p2 ] ->
          (* Merging partials requires one shared static view, so every
             shard goes through the drivers' per-archive step over the
             same one. *)
          let static =
            ok_or_fail "static" (Pipeline.archive_static path archive)
          in
          let partial_of paths =
            let parts =
              List.map
                (fun path ->
                  ok_or_fail path
                    (Result.bind (Pipeline.open_archive path)
                       (Pipeline.archive_partial ~static ~meta:archive path)))
                paths
            in
            List.fold_left Pipeline.Partial.merge (List.hd parts)
              (List.tl parts)
          in
          let head = Pipeline.finalize (partial_of [ p0 ]) in
          let tail = Pipeline.finalize (partial_of [ p1; p2 ]) in
          let merged =
            Pipeline.finalize
              (Pipeline.Partial.merge head.Pipeline.r_partial
                 tail.Pipeline.r_partial)
          in
          let _, all =
            ok_or_fail "all shards" (Pipeline.analyze_archives shard_paths)
          in
          checkb "Partial.merge + finalize = one-shot shard analysis" true
            (recon_equal merged all)
      | _ -> Alcotest.fail "expected exactly 3 shards")

(* Bias contamination reads the stream set the partial accumulated, so
   the paths that never see the records twice — a chunk stream without
   a replay, and merged per-shard partials — contaminate exactly as
   batch does.  [hello] is a workload whose bias detector
   flags branches. *)
let test_contamination_without_replay () =
  let archive, static, _ = Lazy.force hello_fixture in
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
  let p = Pipeline.Partial.create ~static ~ebs_period ~lbr_period () in
  List.iter (Pipeline.Partial.feed p) (split 37 records);
  checkb "Partial.feed per chunk without replay = reconstruct" true
    (recon_equal batch (Pipeline.finalize p));
  let shards =
    List.map
      (fun shard ->
        (Pipeline.reconstruct ~static ~ebs_period ~lbr_period shard)
          .Pipeline.r_partial)
      (split 4 records)
  in
  let merged =
    Pipeline.finalize
      (List.fold_left Pipeline.Partial.merge (List.hd shards)
         (List.tl shards))
  in
  checkb "Partial.merge + finalize of shards = reconstruct" true
    (recon_equal batch merged)

(* ------------------------------------------------------------------ *)
(* Damaged archives: file-backed salvage = in-memory salvage           *)

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

(* In-memory vs file-backed verdict on one byte string.
   [chunk_records:1] maximises refill/retry churn in the file-backed
   reader. *)
let check_same_verdict ~what path data =
  write_file path data;
  let in_memory = Perf_data.of_bytes data in
  let file =
    match Perf_data.Stream.open_file ~chunk_records:1 path with
    | Error e -> Error e
    | Ok s ->
        let records = drain_stream s in
        let ledger = Perf_data.Stream.ledger s in
        Perf_data.Stream.close s;
        Ok (records, ledger)
  in
  match (in_memory, file) with
  | Ok { Perf_data.archive; ledger }, Ok (records, s_ledger) ->
      if compare archive.Perf_data.records records <> 0 then
        Alcotest.failf "%s: records differ (in memory %d, file %d)" what
          (List.length archive.Perf_data.records)
          (List.length records);
      if compare ledger s_ledger <> 0 then
        Alcotest.failf "%s: ledgers differ (in memory %s / file %s)" what
          (String.concat "; "
             (List.map (Format.asprintf "%a" Perf_data.pp_fault) ledger))
          (String.concat "; "
             (List.map (Format.asprintf "%a" Perf_data.pp_fault) s_ledger))
  | Error a, Error b ->
      if compare a b <> 0 then
        Alcotest.failf "%s: errors differ (in memory %a, file %a)" what
          Perf_data.pp_error a Perf_data.pp_error b
  | Ok _, Error e ->
      Alcotest.failf "%s: in memory salvaged, file errored %a" what
        Perf_data.pp_error e
  | Error e, Ok _ ->
      Alcotest.failf "%s: in memory errored %a, file salvaged" what
        Perf_data.pp_error e

let test_fuzz_stream_truncation_every_offset () =
  let data = Perf_data.to_bytes (tiny_archive ()) in
  with_tmp_file @@ fun path ->
  for n = 0 to Bytes.length data do
    check_same_verdict
      ~what:(Printf.sprintf "truncated to %d" n)
      path (Bytes.sub data 0 n)
  done

let test_fuzz_stream_bit_flip_every_byte () =
  let data = Perf_data.to_bytes (tiny_archive ()) in
  with_tmp_file @@ fun path ->
  for off = 0 to Bytes.length data - 1 do
    let flipped = Bytes.copy data in
    Bytes.set_uint8 flipped off
      (Bytes.get_uint8 flipped off lxor (1 lsl (off mod 8)));
    check_same_verdict ~what:(Printf.sprintf "flip at %d" off) path flipped
  done

(* ------------------------------------------------------------------ *)
(* Truncation oracle: the verdict on a cut archive, from the encoder   *)

(* The LEB128 bytes of [u] as an unsigned 63-bit value, and of [v]
   zigzagged: the archive's LBR varints, written here on their own. *)
let rec uvarint u =
  if u >= 0 && u < 0x80 then String.make 1 (Char.chr u)
  else String.make 1 (Char.chr (0x80 lor (u land 0x7f))) ^ uvarint (u lsr 7)

let svarint v = uvarint (if v >= 0 then 2 * v else (-2 * (v + 1)) + 1)

(* [ends.(k)] is where record [k] ends: the length of the archive
   holding only the first [k] records.  [ends.(0)] is the encoding with
   no records; each later end adds one record's size, the length of its
   single-record encoding beyond that, so the table costs one encoding
   per record instead of one per prefix. *)
let record_ends (a : Perf_data.t) =
  let size records =
    Bytes.length (Perf_data.to_bytes { a with Perf_data.records })
  in
  let empty = size [] in
  let ends = Array.make (List.length a.Perf_data.records + 1) empty in
  List.iteri
    (fun k r -> ends.(k + 1) <- ends.(k) + size [ r ] - empty)
    a.Perf_data.records;
  ends

(* The records of a cut at [n] are those that end at or before it.  A
   cut inside the prefix or the metadata sections is a hard truncation;
   one inside the records section's 24-byte header leaves no declared
   count; one in the payload keeps the whole records before it. *)
let truncation_oracle ends n =
  let payload = ends.(0) and total = Array.length ends - 1 in
  if n < payload - 24 then Error Perf_data.Truncated
  else if n < payload then
    Ok (0, [ Perf_data.Truncated_records { expected = None; salvaged = 0 } ])
  else
    (* The largest [k] with [ends.(k) <= n]. *)
    let rec search lo hi =
      if lo = hi then lo
      else
        let mid = (lo + hi + 1) / 2 in
        if ends.(mid) <= n then search mid hi else search lo (mid - 1)
    in
    let k = search 0 total in
    Ok
      ( k,
        if k = total && n = ends.(total) then []
        else
          [
            Perf_data.Truncated_records
              { expected = Some total; salvaged = k };
          ] )

(* [verdict] against [expected]: [Ok (k, ledger)] is the first [k] of
   [records] with that ledger. *)
let check_verdict ~what records expected verdict =
  let show_ledger l =
    String.concat "; " (List.map (Format.asprintf "%a" Perf_data.pp_fault) l)
  in
  match (expected, verdict) with
  | Error a, Error b when a = b -> ()
  | Ok (k, ledger), Ok (got, got_ledger) ->
      let rec prefix i = function
        | [] -> i = k
        | r :: rest -> i < k && r = records.(i) && prefix (i + 1) rest
      in
      if not (prefix 0 got) then
        Alcotest.failf "%s: records are not the first %d (got %d)" what k
          (List.length got);
      if ledger <> got_ledger then
        Alcotest.failf "%s: ledger [%s], expected [%s]" what
          (show_ledger got_ledger) (show_ledger ledger)
  | Error e, Ok _ ->
      Alcotest.failf "%s: salvaged, expected %a" what Perf_data.pp_error e
  | Ok _, Error e ->
      Alcotest.failf "%s: %a, expected a salvage" what Perf_data.pp_error e
  | Error a, Error b ->
      Alcotest.failf "%s: %a, expected %a" what Perf_data.pp_error b
        Perf_data.pp_error a

(* [data] read in memory and from a file (at [path]), each verdict
   checked against [expected]. *)
let check_readers ~what path records expected data =
  check_verdict ~what:("of_bytes, " ^ what) records expected
    (Result.map
       (fun { Perf_data.archive; ledger } ->
         (archive.Perf_data.records, ledger))
       (Perf_data.of_bytes data));
  write_file path data;
  check_verdict ~what:("Stream.open_file, " ^ what) records expected
    (Result.map
       (fun s ->
         let records = drain_stream s in
         let ledger = Perf_data.Stream.ledger s in
         Perf_data.Stream.close s;
         (records, ledger))
       (Perf_data.Stream.open_file path))

(* [a]'s encoding cut at each of [cuts], checked against the oracle. *)
let check_cuts (a : Perf_data.t) cuts =
  let data = Perf_data.to_bytes a in
  let ends = record_ends a in
  checki "oracle length = encoding length" (Bytes.length data)
    ends.(Array.length ends - 1);
  let records = Array.of_list a.Perf_data.records in
  with_tmp_file @@ fun path ->
  List.iter
    (fun n ->
      check_readers
        ~what:(Printf.sprintf "cut at %d" n)
        path records (truncation_oracle ends n) (Bytes.sub data 0 n))
    cuts

let test_oracle_tiny_every_offset () =
  let a = tiny_archive () in
  check_cuts a (List.init (Bytes.length (Perf_data.to_bytes a) + 1) Fun.id)

(* Records as wide as the format makes them: full-depth (16-entry)
   snapshots whose every delta is a nine-byte varint — sources near
   [max_int], targets near 0.  Their low bits come from a fixed seed, so
   records differ in their bytes, not only in their positions. *)
let wide_records n =
  let rng = Random.State.make [| 0x51DE |] in
  List.init n (fun k ->
      let lbr =
        Array.init 32 (fun j ->
            let low = Random.State.bits rng in
            if j land 1 = 0 then max_int - low else low)
      in
      Record.Sample
        { Record.event = Pmu_event.Br_inst_retired_near_taken; ip = k; lbr;
          ring = Ring.User; time = k })

(* A few hundred wide records (~341 bytes each, ~131 KB of payload, so
   two 64 KiB refills), cut at every record end and one byte either
   side, and at every offset within one record's size of each 64 KiB
   step into the records payload, where the reader refills its buffer.
   Each cut is decoded from its start, so the sweep's cost is quadratic
   in the record count; wide records keep that count low.  Every cut
   meets the same refill phases, so the phase is varied apart: a
   leading [Comm] record of every length up to one wide record's size
   shifts the records across the first refill, and each such archive is
   decoded whole.  The whole hello archive is decoded as well. *)
let test_oracle_refill_boundaries () =
  let tiny = tiny_archive () in
  let a = { tiny with Perf_data.records = wide_records 390 } in
  let ends = record_ends a in
  let full = ends.(Array.length ends - 1) in
  let widest = ref 0 in
  for k = 1 to Array.length ends - 1 do
    widest := max !widest (ends.(k) - ends.(k - 1))
  done;
  checkb "archive spans two refills" true (full - ends.(0) > 2 * 65536);
  let near_ends =
    List.concat_map (fun e -> [ e - 1; e; e + 1 ]) (Array.to_list ends)
  in
  let near_refills =
    List.init ((full - ends.(0)) / 65536) (fun j ->
        let b = ends.(0) + ((j + 1) * 65536) in
        List.init ((2 * !widest) + 1) (fun d -> b - !widest + d))
    |> List.concat
  in
  check_cuts a
    (List.sort_uniq compare
       (List.filter (fun n -> n >= 0 && n <= full) (near_ends @ near_refills)));
  with_tmp_file @@ fun path ->
  let wide = wide_records 200 in
  checkb "each phase's archive spans a refill" true
    (Bytes.length (Perf_data.to_bytes { tiny with Perf_data.records = wide })
     - ends.(0)
    > 65536 + !widest);
  for pad = 0 to !widest - 1 do
    let records = Record.Comm { pid = 1; name = String.make pad 'p' } :: wide in
    check_readers
      ~what:(Printf.sprintf "refill phase %d" pad)
      path (Array.of_list records)
      (Ok (List.length records, []))
      (Perf_data.to_bytes { tiny with Perf_data.records })
  done;
  let hello, _, _ = Lazy.force hello_fixture in
  let records = Array.of_list hello.Perf_data.records in
  checkb "the whole hello archive spans many refills" true
    (Bytes.length (Perf_data.to_bytes hello) > 16 * 65536);
  check_readers ~what:"whole hello archive" path records
    (Ok (Array.length records, []))
    (Perf_data.to_bytes hello)

(* Record damage whose verdict follows from the encoder, on the 500
   hello records.  A records section that declares [k] of its records
   yields those [k], and the reader still runs the rest of the payload
   through the checksum, which holds: the ledger is clean.  A sample
   ends with its last entry's target-minus-source varint; flipping bit
   1 of that varint's first byte flips bit 0 of the zigzag-decoded
   delta, so every record is kept, that one's last target changed, and
   the checksum fails. *)
let test_records_damage_from_encoder () =
  let hello, _, _ = Lazy.force hello_fixture in
  let a =
    {
      hello with
      Perf_data.records =
        List.filteri (fun k _ -> k < 500) hello.Perf_data.records;
    }
  in
  let data = Perf_data.to_bytes a in
  let ends = record_ends a in
  let records = Array.of_list a.Perf_data.records in
  let n = Array.length records in
  with_tmp_file @@ fun path ->
  List.iter
    (fun k ->
      let declared = Bytes.copy data in
      (* The section header is payload length, record count, CRC. *)
      Bytes.set_int64_le declared (ends.(0) - 16) (Int64.of_int k);
      check_readers
        ~what:(Printf.sprintf "%d of %d records declared" k n)
        path records
        (Ok (k, []))
        declared)
    [ 0; 1; n / 2; n - 1 ];
  let last =
    let rec find k =
      match records.(k) with
      | Record.Sample s when Array.length s.Record.lbr > 0 -> (k, s)
      | _ -> find (k - 1)
    in
    find (n - 1)
  in
  let k, s = last in
  let lbr = Array.copy s.Record.lbr in
  let src = lbr.(Array.length lbr - 2) and tgt = lbr.(Array.length lbr - 1) in
  let flipped = Bytes.copy data in
  let at = ends.(k + 1) - String.length (svarint (tgt - src)) in
  Bytes.set_uint8 flipped at (Bytes.get_uint8 flipped at lxor 2);
  lbr.(Array.length lbr - 1) <- src + ((tgt - src) lxor 1);
  let changed = Array.copy records in
  changed.(k) <- Record.Sample { s with Record.lbr };
  check_readers ~what:"flipped LBR entry" path changed
    (Ok (n, [ Perf_data.Checksum_mismatch Perf_data.Records ]))
    flipped

(* The encoder's bytes for an archive holding every record kind, pinned
   to the digest of the current format (version 3) as first shipped: an
   encoder change (or a wrong CRC table, on which encoder and decoder
   would still agree) cannot drift unseen.  Only a version bump may
   move it. *)
let test_encoder_bytes_pinned () =
  Alcotest.(check string)
    "digest" "719a9c332a6fd0ef2f90ddab59124489"
    (Digest.to_hex (Digest.bytes (Perf_data.to_bytes (tiny_archive ()))))

(* The archive encoder as first shipped, kept as the oracle for the
   exact-size one: every payload staged in its own [Buffer], copied
   into the archive's, and the archive copied out; shards are
   [Array.sub] slices of the record array.  Its LBR deltas are this
   file's own varints, written without a sizing pass. *)
module Oracle_encoder = struct
  let w_u8 buf v = Buffer.add_uint8 buf (v land 0xff)
  let w_i64 buf v = Buffer.add_int64_le buf (Int64.of_int v)

  let w_string buf s =
    w_i64 buf (String.length s);
    Buffer.add_string buf s

  let w_bytes buf b =
    w_i64 buf (Bytes.length b);
    Buffer.add_bytes buf b

  let w_ring buf = function
    | Ring.User -> w_u8 buf 0
    | Ring.Kernel -> w_u8 buf 1

  let w_image buf (img : Image.t) =
    w_string buf img.name;
    w_i64 buf img.base;
    w_ring buf img.ring;
    w_bytes buf img.code;
    w_i64 buf (List.length img.symbols);
    List.iter
      (fun (s : Symbol.t) ->
        w_string buf s.name;
        w_i64 buf s.addr;
        w_i64 buf s.size)
      img.symbols

  let w_record buf (r : Record.t) =
    match r with
    | Record.Comm { pid; name } ->
        w_u8 buf 0;
        w_i64 buf pid;
        w_string buf name
    | Record.Mmap { addr; len; name; ring } ->
        w_u8 buf 1;
        w_i64 buf addr;
        w_i64 buf len;
        w_string buf name;
        w_ring buf ring
    | Record.Fork { parent; child } ->
        w_u8 buf 2;
        w_i64 buf parent;
        w_i64 buf child
    | Record.Sample s ->
        w_u8 buf 3;
        w_string buf (Pmu_event.to_string s.Record.event);
        w_i64 buf s.Record.ip;
        w_ring buf s.Record.ring;
        w_i64 buf s.Record.time;
        Buffer.add_string buf (uvarint (Lbr.entries s.Record.lbr));
        let prev = ref s.Record.ip in
        for k = 0 to Lbr.entries s.Record.lbr - 1 do
          let src = Lbr.src s.Record.lbr k and tgt = Lbr.tgt s.Record.lbr k in
          Buffer.add_string buf (svarint (src - !prev));
          Buffer.add_string buf (svarint (tgt - src));
          prev := tgt
        done
    | Record.Lost n ->
        w_u8 buf 4;
        w_i64 buf n

  let w_section buf ~count payload =
    let p = Buffer.contents payload in
    w_i64 buf (String.length p);
    w_i64 buf count;
    w_i64 buf (Crc32.string p);
    Buffer.add_string buf p

  let to_bytes (t : Perf_data.t) =
    let buf = Buffer.create (1 lsl 16) in
    Buffer.add_string buf "HBBPDATA";
    w_u8 buf 3;
    let payload f =
      let b = Buffer.create 4096 in
      f b;
      b
    in
    w_section buf ~count:0
      (payload (fun b ->
           w_string b t.workload_name;
           w_i64 b t.ebs_period;
           w_i64 b t.lbr_period));
    w_section buf
      ~count:(List.length t.analysis_images)
      (payload (fun b -> List.iter (w_image b) t.analysis_images));
    w_section buf
      ~count:(List.length t.live_kernel_text)
      (payload (fun b ->
           List.iter
             (fun (name, code) ->
               w_string b name;
               w_bytes b code)
             t.live_kernel_text));
    w_section buf ~count:(List.length t.records)
      (payload (fun b -> List.iter (w_record b) t.records));
    Buffer.to_bytes buf

  let sharded_bytes (t : Perf_data.t) ~shards ~path =
    if shards = 1 then [ (path, to_bytes t) ]
    else
      let records = Array.of_list t.records in
      let n = Array.length records in
      List.init shards (fun i ->
          let lo = i * n / shards and hi = (i + 1) * n / shards in
          ( Perf_data.shard_path path i shards,
            to_bytes
              {
                t with
                records = Array.to_list (Array.sub records lo (hi - lo));
              } ))
end

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* [f dir] on a fresh empty directory, removed with whatever [f] left
   in it. *)
let with_tmp_dir f =
  let dir = Filename.temp_dir "hbbp-stream" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun n -> Sys.remove (Filename.concat dir n))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

(* For every registry workload at 1-5 shards, [sharded_bytes] equals
   the oracle; [save_sharded] publishes those bytes, under those
   names. *)
let test_encoder_oracle_registry () =
  let names, archives = Lazy.force registry in
  with_tmp_dir @@ fun dir ->
  List.iter2
    (fun name archive ->
      let path = Filename.concat dir (name ^ ".hbbp") in
      for shards = 1 to 5 do
        let what = Printf.sprintf "%s, %d shards" name shards in
        let encoded = Perf_data.sharded_bytes archive ~shards ~path in
        if encoded <> Oracle_encoder.sharded_bytes archive ~shards ~path then
          Alcotest.failf "%s: sharded_bytes differs from the oracle" what;
        let published = Perf_data.save_sharded archive ~shards ~path in
        Alcotest.(check (list string))
          (what ^ ": published paths") (List.map fst encoded) published;
        List.iter
          (fun (p, data) ->
            if read_file p <> Bytes.to_string data then
              Alcotest.failf "%s: %s differs from sharded_bytes" what p;
            Sys.remove p)
          encoded
      done)
    names archives

(* Each manifest line's size and CRC are those of the published file:
   unarmed, when the CRC is combined from the sections', and under
   armed archive faults, which damage the bytes after encoding. *)
let test_manifest_crcs () =
  let archive, _, _ = Lazy.force fixture in
  let encoded =
    Perf_data.sharded_bytes archive ~shards:3 ~path:"m.hbbp"
  in
  List.iter
    (fun spec ->
      Fun.protect
        ~finally:(fun () ->
          Faults.disarm ();
          Faults.reset_tally ())
        (fun () ->
          (match spec with
          | None -> ()
          | Some spec -> (
              match Plan.of_string spec with
              | Ok plan -> Faults.arm plan
              | Error e -> Alcotest.failf "plan %S: %s" spec e));
          let what = Option.value spec ~default:"unarmed" in
          with_tmp_dir @@ fun dir ->
          let path = Filename.concat dir "m.hbbp" in
          let paths = Perf_data.save_sharded archive ~shards:3 ~path in
          let m =
            match Manifest.load ~archive_path:path with
            | Some (Ok m) -> m
            | Some (Error e) -> Alcotest.failf "%s: manifest: %s" what e
            | None -> Alcotest.failf "%s: no manifest" what
          in
          checki (what ^ ": manifest lines") 3 (List.length m.Manifest.written);
          List.iter2
            (fun (p, (_, unmangled)) (e : Manifest.shard) ->
              let data = read_file p in
              checki (what ^ ": size") (String.length data) e.Manifest.size;
              checki (what ^ ": crc32") (Crc32.string data) e.Manifest.crc32;
              checkb
                (what ^ ": damaged iff armed")
                (spec <> None)
                (data <> Bytes.to_string unmangled))
            (List.combine paths encoded) m.Manifest.written))
    [ None; Some "seed=3,arch.flips=3"; Some "seed=3,arch.truncate=-64" ]

(* A retired version's header is refused, in memory and from a file
   alike: neither the flat v1 format nor v2's fixed-width LBR entries
   are read any more. *)
let check_version_refused v =
  let data = Perf_data.to_bytes (tiny_archive ()) in
  Bytes.set_uint8 data 8 v;
  (match Perf_data.of_bytes data with
  | Error (Perf_data.Bad_version v') when v' = v -> ()
  | _ -> Alcotest.failf "of_bytes: expected Bad_version %d" v);
  with_tmp_file @@ fun path ->
  write_file path data;
  match Perf_data.Stream.open_file path with
  | Error (Perf_data.Bad_version v') when v' = v -> ()
  | Ok s ->
      Perf_data.Stream.close s;
      Alcotest.failf "Stream.open_file: opened a v%d archive" v
  | Error e ->
      Alcotest.failf "Stream.open_file: expected Bad_version %d, got %a" v
        Perf_data.pp_error e

let test_v1_refused () = check_version_refused 1
let test_v2_refused () = check_version_refused 2

(* [tiny_archive]'s bytes with the records section replaced by
   [records] (declared [count] records, correct CRC), so the only damage
   is in the record bytes themselves. *)
let with_records_section ~count records =
  let data = Perf_data.to_bytes (tiny_archive ()) in
  let pos = ref 9 (* magic + version *) in
  for _ = 1 to 3 do
    pos := !pos + 24 + Int64.to_int (Bytes.get_int64_le data !pos)
  done;
  let payload = Buffer.to_bytes records in
  let buf = Buffer.create 512 in
  Buffer.add_subbytes buf data 0 !pos;
  List.iter
    (fun v -> Buffer.add_int64_le buf (Int64.of_int v))
    [ Bytes.length payload; count; Crc32.bytes payload ];
  Buffer.add_bytes buf payload;
  Buffer.to_bytes buf

(* A [Lost 1] record, then a sample at ip [crafted_ip] whose event name
   and LBR bytes (entry count and delta varints) are given. *)
let crafted_ip = 0x1000

let lost_then_sample ~event ~lbr =
  let b = Buffer.create 256 in
  let w_i64 v = Buffer.add_int64_le b (Int64.of_int v) in
  Buffer.add_uint8 b 4;
  w_i64 1;
  Buffer.add_uint8 b 3;
  w_i64 (String.length event);
  Buffer.add_string b event;
  w_i64 crafted_ip;
  Buffer.add_uint8 b 0 (* user ring *);
  w_i64 7 (* time *);
  Buffer.add_string b lbr;
  b

(* The LBR bytes of flat [entries], deltas taken from [crafted_ip]. *)
let lbr_bytes entries =
  let rec deltas prev = function
    | src :: tgt :: rest ->
        svarint (src - prev) ^ svarint (tgt - src) ^ deltas tgt rest
    | _ -> ""
  in
  uvarint (List.length entries / 2) ^ deltas crafted_ip entries

let check_decode_fault ~what data expected =
  with_tmp_file @@ fun path ->
  check_same_verdict ~what path data;
  match Perf_data.of_bytes data with
  | Error e -> Alcotest.failf "%s: hard error %a" what Perf_data.pp_error e
  | Ok { Perf_data.archive; ledger } ->
      checkb (what ^ ": prefix salvaged") true
        (archive.Perf_data.records = [ Record.Lost 1 ]);
      checkb (what ^ ": typed fault") true (ledger = [ expected ])

let test_decoder_typed_faults () =
  let corrupt reason =
    Perf_data.Corrupt_records { index = 1; reason; salvaged = 1 }
  in
  let branch lbr =
    with_records_section ~count:2
      (lost_then_sample ~event:"BR_INST_RETIRED:NEAR_TAKEN" ~lbr)
  in
  check_decode_fault ~what:"unknown event name"
    (with_records_section ~count:2
       (lost_then_sample ~event:"INST_RETIRED:ANYWAY" ~lbr:(uvarint 0)))
    (corrupt "event INST_RETIRED:ANYWAY");
  (* Entry counts the section cannot hold: every entry takes at least
     two bytes. *)
  check_decode_fault ~what:"implausible LBR count"
    (branch (uvarint (1 lsl 40) ^ lbr_bytes [ 1; 2 ]))
    (corrupt (Printf.sprintf "implausible count %d" (1 lsl 40)));
  check_decode_fault ~what:"LBR count one past the payload"
    (branch (uvarint 3 ^ svarint 0 ^ svarint 1 ^ svarint 0 ^ svarint 1))
    (corrupt "implausible count 3");
  (* A nine-byte count varint whose last byte sets bit 62: it decodes
     below 0, which no count may be. *)
  check_decode_fault ~what:"count varint with bit 62 set"
    (branch (String.make 8 '\x80' ^ "\x40" ^ svarint 0 ^ svarint 4))
    (corrupt "negative count");
  (* Varints: a padded encoding, of an entry or of the count, and one
     that asks for a tenth byte (past 63 bits). *)
  check_decode_fault ~what:"overlong varint"
    (branch (uvarint 1 ^ "\x80\x00" ^ svarint 4))
    (corrupt "overlong varint");
  check_decode_fault ~what:"overlong count"
    (branch ("\x81\x00" ^ svarint 0 ^ svarint 4))
    (corrupt "overlong varint");
  check_decode_fault ~what:"varint overflows 63 bits"
    (branch (uvarint 1 ^ String.make 9 '\xff' ^ "\x01" ^ svarint 4))
    (corrupt "varint overflows 63 bits");
  (* Addresses below 0: a source before address 0, and a target whose
     delta wraps past [max_int]. *)
  check_decode_fault ~what:"source below 0"
    (branch (uvarint 1 ^ svarint (-crafted_ip - 1) ^ svarint 4))
    (corrupt "negative address");
  check_decode_fault ~what:"target wraps past max_int"
    (branch (uvarint 1 ^ svarint 0 ^ svarint max_int))
    (corrupt "negative address");
  (* Cut inside the second entry: the count guard passes (the bytes
     present could hold two entries), the last varint is missing, and
     the section header declares it, so this is a truncation. *)
  let whole = branch (lbr_bytes [ 0x10; 0x20; 0x30; 0x40 ]) in
  check_decode_fault ~what:"truncated mid-entry"
    (Bytes.sub whole 0 (Bytes.length whole - 1))
    (Perf_data.Truncated_records { expected = Some 2; salvaged = 1 });
  (* The intact version decodes to the flat snapshot, in order. *)
  match Perf_data.of_bytes whole with
  | Ok { Perf_data.archive = { records = [ _; Record.Sample s ]; _ }; ledger = [] }
    ->
      checkb "flat snapshot decoded in order" true
        (s.Record.lbr = [| 0x10; 0x20; 0x30; 0x40 |])
  | _ -> Alcotest.fail "intact crafted archive did not decode"

(* Random snapshots survive the round trip, in memory and from a file
   read one record per chunk.  Addresses mix 0, [max_int], values near
   either end, powers of two and uniform draws, so deltas take every
   varint length, including the widest ones a jump between 0 and
   [max_int] needs in either direction.  Snapshots hold up to 16
   entries, or 60 to 70, either side of the reader's 64 cached entry
   counts. *)
let prop_lbr_roundtrip =
  let open QCheck2.Gen in
  let address =
    oneof
      [
        pure 0;
        pure max_int;
        map (fun d -> max_int - d) (0 -- 1000);
        0 -- 1000;
        map (fun k -> 1 lsl k) (0 -- 61);
        int_range 0 max_int;
      ]
  in
  let sample =
    map
      (fun (ip, entries) ->
        Record.Sample
          {
            Record.event = Pmu_event.Br_inst_retired_near_taken;
            ip;
            lbr =
              Array.of_list (List.concat_map (fun (s, t) -> [ s; t ]) entries);
            ring = Ring.User;
            time = ip;
          })
      (pair address
         (list_size (oneof [ 0 -- 16; 60 -- 70 ]) (pair address address)))
  in
  QCheck2.Test.make ~name:"LBR deltas round-trip (0, max_int, wraps)"
    ~count:200 (list_size (1 -- 8) sample) (fun records ->
      let a = { (tiny_archive ()) with Perf_data.records } in
      let data = Perf_data.to_bytes a in
      (match Perf_data.of_bytes data with
      | Ok { Perf_data.archive; ledger = [] } ->
          archive.Perf_data.records = records
      | _ -> false)
      && with_tmp_file (fun path ->
             write_file path data;
             match Perf_data.Stream.open_file ~chunk_records:1 path with
             | Error _ -> false
             | Ok s ->
                 let got = drain_stream s in
                 let ledger = Perf_data.Stream.ledger s in
                 Perf_data.Stream.close s;
                 got = records && ledger = []))

(* Decoding straight into a partial ([Partial.feed_stream], the archive
   fold) leaves the state [Partial.feed] of the records [Stream.next]
   decodes leaves, ledger included: on the tiny archive cut at every
   offset and with a bit flipped at every byte, and on hello whole.
   Partials are compared by their checkpoint bytes. *)
let test_feed_stream_matches_feed () =
  let check ~what static path data =
    write_file path data;
    let partial () =
      Pipeline.Partial.create ~static ~ebs_period:97 ~lbr_period:13 ()
    in
    let read f =
      match Perf_data.Stream.open_file ~chunk_records:3 path with
      | Error _ -> None
      | Ok s ->
          let p = partial () in
          f p s;
          Perf_data.Stream.close s;
          Some (Pipeline.Partial.serialize p)
    in
    let folded = read Pipeline.Partial.feed_stream in
    let fed =
      read (fun p s ->
          Pipeline.Partial.feed p (drain_stream s);
          Pipeline.Partial.note_faults p (Perf_data.Stream.ledger s))
    in
    if folded <> fed then Alcotest.failf "%s: feed_stream <> feed" what
  in
  let tiny = tiny_archive () in
  let static = Static.create_exn (Perf_data.analysis_process tiny) in
  let data = Perf_data.to_bytes tiny in
  with_tmp_file @@ fun path ->
  for n = 0 to Bytes.length data do
    check ~what:(Printf.sprintf "cut at %d" n) static path (Bytes.sub data 0 n)
  done;
  for off = 0 to Bytes.length data - 1 do
    let flipped = Bytes.copy data in
    Bytes.set_uint8 flipped off
      (Bytes.get_uint8 flipped off lxor (1 lsl (off mod 8)));
    check ~what:(Printf.sprintf "flip at %d" off) static path flipped
  done;
  let hello, static, _ = Lazy.force hello_fixture in
  check ~what:"hello" static path (Perf_data.to_bytes hello)

(* [feed_stream] opens one [analyze/chunk] span per chunk that
   [Stream.next] would give, and none once the records are done: chunk
   sizes that divide the record count and sizes that do not, on the
   tiny archive, on one without records, and on hello. *)
let test_feed_stream_spans () =
  let module Trace = Hbbp_telemetry.Trace in
  let chunk_spans static path ~chunk_records =
    let p = Pipeline.Partial.create ~static ~ebs_period:97 ~lbr_period:13 () in
    match Perf_data.Stream.open_file ~chunk_records path with
    | Error e -> Alcotest.failf "open: %a" Perf_data.pp_error e
    | Ok s ->
        Trace.reset ();
        Trace.enable ();
        Fun.protect
          ~finally:(fun () ->
            Trace.disable ();
            Perf_data.Stream.close s)
          (fun () -> Pipeline.Partial.feed_stream p s);
        let n =
          List.length
            (List.filter
               (fun (sp : Trace.span) -> sp.cat = "analyze" && sp.name = "chunk")
               (Trace.spans ()))
        in
        Trace.reset ();
        n
  in
  let chunks path ~chunk_records =
    match Perf_data.Stream.open_file ~chunk_records path with
    | Error e -> Alcotest.failf "open: %a" Perf_data.pp_error e
    | Ok s ->
        let rec count n =
          match Perf_data.Stream.next s with
          | Some _ -> count (n + 1)
          | None -> n
        in
        let n = count 0 in
        Perf_data.Stream.close s;
        n
  in
  let check ~what static (a : Perf_data.t) =
    with_tmp_file @@ fun path ->
    Perf_data.save a ~path;
    let n = List.length a.Perf_data.records in
    List.iter
      (fun chunk_records ->
        checki
          (Printf.sprintf "%s, chunk_records=%d" what chunk_records)
          (chunks path ~chunk_records)
          (chunk_spans static path ~chunk_records))
      (List.sort_uniq compare [ 1; 3; max 1 n; n + 1; 256 ])
  in
  let tiny = tiny_archive () in
  let static = Static.create_exn (Perf_data.analysis_process tiny) in
  check ~what:"tiny" static tiny;
  check ~what:"no records" static { tiny with Perf_data.records = [] };
  let hello, static, _ = Lazy.force hello_fixture in
  check ~what:"hello" static hello

(* The per-archive step renders every failure as an error naming the
   archive, never an exception: a path that does not exist (first or
   later), and a CRC-valid archive whose image bytes do not
   disassemble. *)
let expect_error ~what ~prefix = function
  | Ok _ -> Alcotest.failf "%s: expected an error" what
  | Error msg ->
      if not (String.starts_with ~prefix msg) then
        Alcotest.failf "%s: %S does not start with %S" what msg prefix

let undisassemblable (a : Perf_data.t) =
  let garbage (img : Image.t) =
    Image.make ~name:img.name ~base:img.base
      ~code:(Bytes.make (Bytes.length img.code) '\xff')
      ~symbols:img.symbols ~ring:img.ring
  in
  {
    a with
    Perf_data.analysis_images =
      List.mapi
        (fun k img -> if k = 0 then garbage img else img)
        a.Perf_data.analysis_images;
  }

let test_missing_archive_is_typed () =
  with_tmp_file @@ fun path ->
  Perf_data.save (tiny_archive ()) ~path;
  let missing = path ^ ".missing" in
  List.iter
    (fun paths ->
      expect_error ~what:"missing archive" ~prefix:(missing ^ ": ")
        (Pipeline.analyze_archives paths))
    [ [ missing ]; [ path; missing ] ]

(* Descriptors this process holds open, where the system lists them. *)
let open_fds () =
  match Sys.readdir "/proc/self/fd" with
  | fds -> Some (Array.length fds)
  | exception Sys_error _ -> None

(* A directory given as an archive: the open fails, says the path is a
   directory, and closes the channel it opened, both in the reader and
   in the per-archive step. *)
let test_directory_archive_is_typed () =
  with_tmp_dir @@ fun dir ->
  let fds = open_fds () in
  let said = dir ^ ": is a directory" in
  (match Perf_data.Stream.open_file dir with
  | Ok s ->
      Perf_data.Stream.close s;
      Alcotest.fail "Stream.open_file opened a directory"
  | Error e -> Alcotest.failf "%a, expected %S" Perf_data.pp_error e said
  | exception Sys_error msg -> Alcotest.(check string) "reader diagnostic" said msg);
  (match Pipeline.analyze_archives [ dir ] with
  | Ok _ -> Alcotest.fail "analyzed a directory"
  | Error msg -> Alcotest.(check string) "analysis diagnostic" said msg);
  checkb "no descriptor leaked" true (open_fds () = fds)

let test_undisassemblable_is_typed () =
  with_tmp_file @@ fun path ->
  write_file path (Perf_data.to_bytes (undisassemblable (tiny_archive ())));
  expect_error ~what:"undisassemblable archive"
    ~prefix:(path ^ ": disassembly error")
    (Pipeline.analyze_archives [ path ])

(* ------------------------------------------------------------------ *)
(* The run's stream and sharded writing                                *)

(* [Pipeline.run] folds the session's record stream into its partial in
   chunks as the PMU delivers samples.  The oracle is the list path:
   [collect_archive] builds its record list from the same stream, and
   reconstructing that list in one batch must give what the chunked fold
   gave, record count included. *)
let profile_fields (p : Pipeline.profile) =
  ( (p.ebs, p.lbr, p.bias, p.hbbp),
    (p.quality, p.repair_report, p.record_count, p.pmu_health) )

let recon_fields (p : Pipeline.profile) records =
  let c = p.Pipeline.config in
  let r =
    Pipeline.reconstruct ~criteria:c.Pipeline.criteria
      ~thresholds:c.Pipeline.thresholds ~repair:c.Pipeline.repair
      ~static:p.Pipeline.static ~ebs_period:p.Pipeline.sim_periods.Period.ebs
      ~lbr_period:p.Pipeline.sim_periods.Period.lbr records
  in
  ( (r.r_ebs, r.r_lbr, r.r_bias, r.r_hbbp),
    ( r.r_quality,
      r.r_repair,
      Pipeline.Partial.record_count r.r_partial,
      p.Pipeline.pmu_health ) )

let check_streamed_run name ~config w =
  let streamed = Pipeline.run ~config w in
  let listed = (Pipeline.collect_archive ~config w).Perf_data.records in
  checkb (name ^ ": streamed run = batch reconstruction of the list") true
    (compare (profile_fields streamed) (recon_fields streamed listed) = 0)

(* Every third registry workload, and hello (39 chunks, the kernel
   path), keeps the test near 3 s. *)
let test_streamed_run_registry () =
  List.iteri
    (fun k name ->
      if k mod 3 = 0 || name = "hello" then
        check_streamed_run name ~config:Pipeline.default_config
          (Hbbp_workloads.Registry.find name))
    Hbbp_workloads.Registry.names

(* An armed stream-fault plan drops and reorders records as the run
   writes them, so the run still holds one chunk, and collection writes
   the same faulted stream. *)
let test_streamed_run_stream_faults () =
  let w = Hbbp_workloads.Registry.find "fitter-sse" in
  List.iter
    (fun spec ->
      Faults.arm (Result.get_ok (Plan.of_string spec));
      Fun.protect ~finally:Faults.disarm @@ fun () ->
      check_streamed_run ("fitter-sse, " ^ spec)
        ~config:Pipeline.default_config w;
      let p = Pipeline.run w in
      checkb (spec ^ ": drops degrade the profile") true
        (p.Pipeline.quality <> Pipeline.Full))
    [ "seed=5,rec.drop_sample=0.1"; "seed=5,rec.drop_sample=0.1,rec.reorder=8" ]

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
          Alcotest.test_case "known answers + every alignment" `Quick
            test_crc_known_answers;
          QCheck_alcotest.to_alcotest prop_crc_oracle;
          QCheck_alcotest.to_alcotest prop_crc_combine;
          Alcotest.test_case "combine: empty, 0-4096 and 1 MiB" `Quick
            test_crc_combine_lengths;
          Alcotest.test_case "slice validation" `Quick
            test_crc_slice_validation;
        ] );
      ( "samples",
        [
          Alcotest.test_case "salvaged truncation" `Quick
            test_sample_db_on_salvaged_truncation;
        ] );
      ( "merge",
        [
          QCheck_alcotest.to_alcotest prop_ebs_merge_shard_split;
          QCheck_alcotest.to_alcotest prop_lbr_merge_shard_split;
          QCheck_alcotest.to_alcotest prop_bias_merge_shard_split;
          QCheck_alcotest.to_alcotest prop_warm_and_cold_tables;
          QCheck_alcotest.to_alcotest prop_bbec_merge_laws;
          Alcotest.test_case "Partial.merge + finalize = one-shot" `Quick
            test_partial_merge_matches_batch;
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
          Alcotest.test_case "truncation oracle, every offset" `Quick
            test_oracle_tiny_every_offset;
          Alcotest.test_case "truncation oracle, record and refill edges"
            `Slow test_oracle_refill_boundaries;
          Alcotest.test_case "declared count and checksum, from the encoder"
            `Quick test_records_damage_from_encoder;
          Alcotest.test_case "encoder bytes pinned" `Quick
            test_encoder_bytes_pinned;
          Alcotest.test_case "sharded_bytes = oracle = published, registry"
            `Slow test_encoder_oracle_registry;
          Alcotest.test_case "manifest CRC = file CRC, unarmed and armed"
            `Quick test_manifest_crcs;
          Alcotest.test_case "version-1 header is refused" `Quick
            test_v1_refused;
          Alcotest.test_case "version-2 header is refused" `Quick
            test_v2_refused;
          QCheck_alcotest.to_alcotest prop_lbr_roundtrip;
          Alcotest.test_case "decoder faults are typed, stream = batch"
            `Quick test_decoder_typed_faults;
          Alcotest.test_case "feed_stream = feed of the decoded records"
            `Quick test_feed_stream_matches_feed;
          Alcotest.test_case "feed_stream: one chunk span per chunk" `Quick
            test_feed_stream_spans;
          Alcotest.test_case "missing archive is a typed error" `Quick
            test_missing_archive_is_typed;
          Alcotest.test_case "undisassemblable image is a typed error" `Quick
            test_undisassemblable_is_typed;
          Alcotest.test_case "directory archive is a typed error" `Quick
            test_directory_archive_is_typed;
        ] );
      ( "records",
        [
          Alcotest.test_case "streamed run = batch of the list, registry subset"
            `Quick test_streamed_run_registry;
          Alcotest.test_case "streamed run under stream faults" `Quick
            test_streamed_run_stream_faults;
          Alcotest.test_case "sharded naming + concat" `Quick
            test_save_sharded_naming_and_concat;
        ] );
    ]
