(* Tests for the analyzer: static views, stream walking, the EBS/LBR
   estimators, bias detection, mixes, pivots and the kernel patch. *)

open Hbbp_isa
open Hbbp_program
open Hbbp_program.Asm
open Hbbp_cpu
open Hbbp_analyzer

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf_eps eps = Alcotest.(check (float eps))

(* A two-image process: user loop + a second user image. *)
let user_funcs =
  [
    func "main"
      [
        i Mnemonic.MOV [ rcx; imm 100 ];
        label "l";
        i Mnemonic.ADD [ rax; imm 1 ];
        i Mnemonic.ADD [ rax; imm 2 ];
        i Mnemonic.DEC [ rcx ];
        i Mnemonic.JNZ [ L "l" ];
        i Mnemonic.RET_NEAR [];
      ];
  ]

let lib_funcs =
  [ func "helper" [ i Mnemonic.XOR [ rax; rax ]; i Mnemonic.RET_NEAR [] ] ]

let two_image_process () =
  let a =
    assemble ~name:"prog" ~base:Layout.user_code_base ~ring:Ring.User user_funcs
  in
  let b = assemble ~name:"lib" ~base:0x500000 ~ring:Ring.User lib_funcs in
  Process.create [ a; b ]

let test_static_global_ids () =
  let static = Static.create_exn (two_image_process ()) in
  checkb "has blocks from both images" true (Static.total_blocks static >= 4);
  (* Every block id roundtrips through its address. *)
  Static.iter
    (fun gid _ block ->
      Alcotest.(check (option int))
        "find_starting" (Some gid)
        (Static.find_starting static block.Basic_block.addr);
      Alcotest.(check (option int))
        "find by last addr" (Some gid)
        (Static.find static (Basic_block.last_addr block)))
    static;
  checkb "unmapped address" true (Option.is_none (Static.find static 0x999999));
  checkb "map lookup by name" true
    (Option.is_some (Static.map_of_image static "lib"))

let test_static_next_in_layout () =
  let static = Static.create_exn (two_image_process ()) in
  (* next_in_layout never crosses image boundaries. *)
  Static.iter
    (fun gid img block ->
      match Static.next_in_layout static gid with
      | Some next_gid ->
          let next_img, _, next_block = Static.block static next_gid in
          checkb "same image" true (String.equal img.Image.name next_img.Image.name);
          checki "contiguous" (Basic_block.end_addr block)
            next_block.Basic_block.addr
      | None -> ())
    static

(* ------------------------------------------------------------------ *)
(* Stream walking                                                      *)

let walk_fixture () =
  (* main: [mov] [add,add,dec,jnz] [ret] — stream over the loop body. *)
  let static = Static.create_exn (two_image_process ()) in
  let addrs =
    label_addresses ~name:"prog" ~base:Layout.user_code_base ~ring:Ring.User
      user_funcs
  in
  (static, List.assoc "l" addrs)

let test_walk_single_block () =
  let static, loop_addr = walk_fixture () in
  let _, _, block = Static.block static (Option.get (Static.find_starting static loop_addr)) in
  let src = Basic_block.last_addr block in
  let span = Stream_walk.span () in
  match Stream_walk.walk static span ~target:loop_addr ~src with
  | Stream_walk.Interval ->
      let gid = Option.get (Static.find_starting static loop_addr) in
      checki "walk starts at the loop block" gid span.first;
      checki "walk ends at the loop block" gid span.last
  | _ -> Alcotest.fail "expected a single-block walk"

let test_walk_backwards_is_bad () =
  let static, loop_addr = walk_fixture () in
  match
    Stream_walk.walk static (Stream_walk.span ()) ~target:loop_addr
      ~src:(loop_addr - 8)
  with
  | Stream_walk.Bad -> ()
  | _ -> Alcotest.fail "expected Bad"

let test_walk_through_jump_is_inconsistent () =
  (* Build code where a straight-line claim crosses an unconditional
     jump. *)
  let funcs =
    [
      func "main"
        [
          i Mnemonic.ADD [ rax; imm 1 ];
          i Mnemonic.JMP [ L "after" ];
          label "mid";
          i Mnemonic.ADD [ rax; imm 2 ];
          label "after";
          i Mnemonic.ADD [ rax; imm 3 ];
          i Mnemonic.RET_NEAR [];
        ];
    ]
  in
  let img = assemble ~name:"j" ~base:0x400000 ~ring:Ring.User funcs in
  let static = Static.create_exn (Process.create [ img ]) in
  let addrs = label_addresses ~name:"j" ~base:0x400000 ~ring:Ring.User funcs in
  (* Claim straight-line flow from main entry to inside "after": crosses
     the JMP. *)
  match
    Stream_walk.walk static (Stream_walk.span ()) ~target:0x400000
      ~src:(List.assoc "after" addrs)
  with
  | Stream_walk.Inconsistent -> ()
  | _ -> Alcotest.fail "expected Inconsistent"

(* The block-by-block list walker that interval walks replaced, kept
   here as their oracle.  It shares nothing with [Stream_walk] beyond
   [Static.block]: block starts come from [Static.iter], fall-through
   successors from [Bb_map.next_block].  The [Bad_*] cases say why
   the walk gave up. *)
type oracle_walk =
  | Blocks of int list
  | Crossed_barrier
  | Bad_endpoint
  | Bad_cap
  | Bad_image_end

let oracle_walk static starts ~target ~src =
  if src < target then Bad_endpoint
  else
    match Hashtbl.find_opt starts target with
    | None -> Bad_endpoint
    | Some start_gid ->
        let rec go gid acc steps =
          if steps > Stream_walk.max_walk then Bad_cap
          else
            let _, map, block = Static.block static gid in
            if Basic_block.contains block src then
              Blocks (List.rev (gid :: acc))
            else
              match block.Basic_block.term with
              | Basic_block.Term_cond _ | Basic_block.Term_fallthrough -> (
                  match Bb_map.next_block map block with
                  | Some next ->
                      go (Option.get (Static.global_id static map next))
                        (gid :: acc) (steps + 1)
                  | None -> Bad_image_end)
              | _ -> Crossed_barrier
        in
        go start_gid [] 0

(* A 600-block run of conditional branches (a barrier JMP in block 550)
   whose image ends in a fall-through block, plus a second image laid
   out after it: the only fixture that reaches the 512-block cap and
   the end of an image. *)
let chain_process () =
  let n = 600 in
  let b k = Printf.sprintf "b%d" k in
  let body =
    List.concat
      (List.init n (fun k ->
           let branch = if k = 550 then Mnemonic.JMP else Mnemonic.JNZ in
           [ label (b k); i Mnemonic.ADD [ rax; imm 1 ];
             i branch [ L (b (k + 1)) ] ]))
    @ [ label (b n); i Mnemonic.ADD [ rax; imm 2 ] ]
  in
  let chain =
    assemble ~name:"chain" ~base:0x400000 ~ring:Ring.User
      [ func "chain" body ]
  in
  let tail = assemble ~name:"tail" ~base:0x800000 ~ring:Ring.User lib_funcs in
  Process.create [ chain; tail ]

let walk_statics =
  lazy
    (Static.create_exn (chain_process ())
    :: List.concat_map
         (fun name ->
           let w = Hbbp_workloads.Registry.find name in
           let analysis = w.Hbbp_core.Workload.analysis_process
           and live = w.Hbbp_core.Workload.live_process in
           let disk = Static.create_exn analysis in
           if analysis == live then [ disk ]
           else [ disk; Kernel_patch.patch_static disk ~live ])
         Hbbp_workloads.Registry.names)

(* Per static: block start -> gid, and every block with its image. *)
let walk_tables =
  lazy
    (List.map
       (fun static ->
         let starts = Hashtbl.create 1024 and blocks = ref [] in
         Static.iter
           (fun gid img b ->
             Hashtbl.replace starts b.Basic_block.addr gid;
             blocks := (gid, img.Image.name, b) :: !blocks)
           static;
         (static, starts, Array.of_list (List.rev !blocks)))
       (Lazy.force walk_statics))

(* Whether both walkers agree on one pair, and the oracle's outcome. *)
let compare_walks static starts ~target ~src =
  let span = Stream_walk.span () in
  let got = Stream_walk.walk static span ~target ~src in
  let want = oracle_walk static starts ~target ~src in
  let agree =
    match (got, want) with
    | Stream_walk.Interval, Blocks gids ->
        gids = List.init (span.last - span.first + 1) (fun k -> span.first + k)
    | Stream_walk.Inconsistent, Crossed_barrier -> true
    | Stream_walk.Bad, (Bad_endpoint | Bad_cap | Bad_image_end) -> true
    | _ -> false
  in
  (agree, want)

(* Random (target, src) pairs over every registry static (disk and
   kernel-patched) and the chain fixture.  [target] is usually a block
   start; [src] is an instruction up to 600 blocks further on, a block
   of another image, an arbitrary nearby address, or one below
   [target]. *)
let prop_walk_matches_oracle =
  QCheck2.Test.make ~name:"interval walk = list walk, every registry static"
    ~count:300
    QCheck2.Gen.(quad (0 -- 9) nat nat nat)
    (fun (kind, a, b, c) ->
      List.for_all
        (fun (static, starts, blocks) ->
          let n = Array.length blocks in
          let g, img, block = blocks.(a mod n) in
          let target =
            if c mod 10 = 0 then block.Basic_block.addr + (c mod 7)
            else block.Basic_block.addr
          in
          let pick (_, _, (b : Basic_block.t)) =
            b.addrs.(c mod Array.length b.addrs)
          in
          let src =
            match kind with
            | 0 | 1 | 2 | 3 | 4 -> pick blocks.(min (n - 1) (g + (b mod 601)))
            | 5 | 6 -> (
                let others =
                  List.filter
                    (fun (_, name, _) -> name <> img)
                    (Array.to_list blocks)
                in
                match others with
                | [] -> pick blocks.(b mod n)
                | _ -> pick (List.nth others (b mod List.length others)))
            | 7 | 8 -> target + (b mod 4096)
            | _ -> target - 1 - (b mod 64)
          in
          fst (compare_walks static starts ~target ~src))
        (Lazy.force walk_tables))

(* Fixed cases on the chain fixture: each outcome the oracle can give,
   the cap, the end of an image and a source in another image. *)
let test_walk_oracle_edges () =
  match Lazy.force walk_tables with
  | (static, starts, blocks) :: _ ->
      let block k = (fun (_, _, b) -> b) blocks.(k) in
      let first k = (block k).Basic_block.addr in
      let last k = Basic_block.last_addr (block k) in
      let tail = last (Array.length blocks - 1) in
      checkb "the chain and the tail are two images" true
        (Static.image_end static 0 = 600 && Array.length blocks = 602);
      List.iter
        (fun (what, target, src, expect) ->
          let agree, got = compare_walks static starts ~target ~src in
          checkb what true agree;
          checkb (what ^ ": expected outcome") true (expect got))
        [
          ( "513 blocks", first 0, last 512,
            function Blocks gids -> List.length gids = 513 | _ -> false );
          ( "514 blocks hit the cap", first 0, last 513,
            function Bad_cap -> true | _ -> false );
          ( "barrier", first 540, last 560,
            function Crossed_barrier -> true | _ -> false );
          ( "barrier past the cap", first 0, last 560,
            function Bad_cap -> true | _ -> false );
          ( "src in another image runs off the end", first 560, tail,
            function Bad_image_end -> true | _ -> false );
          ( "backwards", first 10, last 9,
            function Bad_endpoint -> true | _ -> false );
        ]
  | [] -> Alcotest.fail "no statics"

(* ------------------------------------------------------------------ *)
(* Estimators on synthetic samples                                     *)

let test_ebs_estimator_math () =
  let static, loop_addr = walk_fixture () in
  let gid = Option.get (Static.find_starting static loop_addr) in
  let _, _, block = Static.block static gid in
  let len = Basic_block.length block in
  (* 40 samples on the block at period 50 -> bbec = 40*50/len. *)
  let samples =
    Array.init 40 (fun k ->
        {
          Sample_db.ip = block.Basic_block.addrs.(k mod len);
          ring = Ring.User;
        })
  in
  let est = Ebs_estimator.estimate static ~period:50 samples in
  checkf_eps 1e-6 "bbec math"
    (40.0 *. 50.0 /. float_of_int len)
    (Bbec.count est.Ebs_estimator.bbec gid);
  checki "no unattributed" 0 est.Ebs_estimator.unattributed;
  (* An IP outside any image is counted as unattributed. *)
  let est =
    Ebs_estimator.estimate static ~period:50
      [| { Sample_db.ip = 0x1; ring = Ring.User } |]
  in
  checki "unattributed counted" 1 est.Ebs_estimator.unattributed

let test_lbr_estimator_weights () =
  let static, loop_addr = walk_fixture () in
  let gid = Option.get (Static.find_starting static loop_addr) in
  let _, _, block = Static.block static gid in
  let src = Basic_block.last_addr block in
  (* One snapshot with 3 entries, all loop backedges: 2 usable streams,
     each covering the loop block with weight 1/2 -> bbec = 1 * period. *)
  let entry = { Lbr.src; tgt = loop_addr } in
  let samples =
    [| { Sample_db.entries = [| entry; entry; entry |]; ring = Ring.User } |]
  in
  let est = Lbr_estimator.estimate static ~period:211 samples in
  checki "2 usable streams" 2 est.Lbr_estimator.usable_streams;
  checkf_eps 1e-6 "snapshot counts as one sample" 211.0
    (Bbec.count est.Lbr_estimator.bbec gid)

let test_lbr_estimator_inconsistent_counted () =
  let funcs =
    [
      func "main"
        [
          i Mnemonic.ADD [ rax; imm 1 ];
          i Mnemonic.JMP [ L "after" ];
          label "after";
          i Mnemonic.ADD [ rax; imm 3 ];
          i Mnemonic.RET_NEAR [];
        ];
    ]
  in
  let img = assemble ~name:"j" ~base:0x400000 ~ring:Ring.User funcs in
  let static = Static.create_exn (Process.create [ img ]) in
  let addrs = label_addresses ~name:"j" ~base:0x400000 ~ring:Ring.User funcs in
  let after = List.assoc "after" addrs in
  (* Stream claiming flow from image base across the JMP. *)
  let samples =
    [|
      {
        Sample_db.entries =
          [|
            { Lbr.src = after + 100; tgt = 0x400000 };
            { Lbr.src = after + 3; tgt = 0 };
          |];
        ring = Ring.User;
      };
    |]
  in
  let est = Lbr_estimator.estimate static ~period:211 samples in
  checkb "inconsistent or discarded" true
    (est.Lbr_estimator.inconsistent_streams
     + est.Lbr_estimator.discarded_streams
    > 0)

(* ------------------------------------------------------------------ *)
(* Bias detection                                                      *)

let test_bias_detection () =
  let static, loop_addr = walk_fixture () in
  let gid = Option.get (Static.find_starting static loop_addr) in
  let _, _, block = Static.block static gid in
  let src = Basic_block.last_addr block in
  let hot = { Lbr.src; tgt = loop_addr } in
  let ret_block_gid = Option.get (Static.find static (Basic_block.end_addr block)) in
  ignore ret_block_gid;
  (* 100 snapshots where [hot] is stuck at entry[0] but appears at no
     deep slot: textbook entry[0] anomaly.  Fill deep slots with another
     branch. *)
  let other = { Lbr.src = src - 100; tgt = loop_addr } in
  let samples =
    Array.init 100 (fun _ ->
        {
          Sample_db.entries = [| hot; other; other; other |];
          ring = Ring.User;
        })
  in
  let bias = Bias.detect static samples in
  checkb "hot branch flagged" true bias.Bias.flags.(gid);
  let stat =
    List.find (fun (s : Bias.branch_stat) -> s.src = src) bias.Bias.stats
  in
  checkf_eps 1e-6 "entry0 share" 1.0 stat.Bias.entry0_share

let test_bias_quiet_on_uniform () =
  let static, loop_addr = walk_fixture () in
  let gid = Option.get (Static.find_starting static loop_addr) in
  let _, _, block = Static.block static gid in
  let src = Basic_block.last_addr block in
  let e = { Lbr.src; tgt = loop_addr } in
  (* The same branch everywhere: entry0 share = 1 but so is deep share:
     no anomaly. *)
  let samples =
    Array.init 100 (fun _ ->
        { Sample_db.entries = [| e; e; e; e |]; ring = Ring.User })
  in
  let bias = Bias.detect static samples in
  checkb "uniform presence not flagged" false bias.Bias.flags.(gid)

(* ------------------------------------------------------------------ *)
(* Mixes, pivots, views                                                *)

let mix_fixture () =
  let static = Static.create_exn (two_image_process ()) in
  let bbec = Bbec.create Bbec.Reference (Static.total_blocks static) in
  Static.iter
    (fun gid _ _ -> bbec.Bbec.counts.(gid) <- 10.0)
    static;
  (static, bbec)

let test_mix_expansion () =
  let static, bbec = mix_fixture () in
  let mix = Mix.of_bbec static bbec in
  (* Every instruction of every block contributes count 10. *)
  checkf_eps 1e-6 "total = 10 * instructions"
    (10.0 *. float_of_int
       (Static.total_blocks static |> fun _ ->
        let n = ref 0 in
        Static.iter (fun _ _ b -> n := !n + Basic_block.length b) static;
        !n))
    (Mix.total mix);
  let totals = Mix.mnemonic_totals mix in
  checkb "ADD counted" true
    (List.exists (fun (m, _) -> Mnemonic.equal m Mnemonic.ADD) totals)

let test_mix_filters () =
  let static, bbec = mix_fixture () in
  let mix = Mix.of_bbec static bbec in
  checkf_eps 1e-6 "user_only keeps everything (no kernel here)"
    (Mix.total mix)
    (Mix.total (Mix.user_only mix));
  checkf_eps 1e-6 "kernel_only empty" 0.0 (Mix.total (Mix.kernel_only mix))

let test_pivot () =
  let static, bbec = mix_fixture () in
  let mix = Mix.of_bbec static bbec in
  let table = Pivot.pivot ~dims:[ Pivot.Image; Pivot.Mnem ] mix in
  checkb "rows exist" true (List.length table.Pivot.rows > 0);
  (* Rows sorted descending. *)
  let counts = List.map snd table.Pivot.rows in
  checkb "sorted" true
    (List.for_all2 (fun a b -> a >= b) counts
       (List.tl counts @ [ Float.neg_infinity ]));
  let top = Pivot.top 2 table in
  checki "top limits rows" 2 (List.length top.Pivot.rows);
  (* Renders without raising. *)
  let _ = Format.asprintf "%a" Pivot.render top in
  ()

let test_pivot_csv () =
  let static, bbec = mix_fixture () in
  let mix = Mix.of_bbec static bbec in
  let csv = Pivot.to_csv (Pivot.pivot ~dims:[ Pivot.Mnem ] mix) in
  let lines = String.split_on_char '\n' (String.trim csv) in
  (match lines with
  | header :: rows ->
      Alcotest.(check string) "header" "mnemonic,count" header;
      checkb "one row per mnemonic" true (List.length rows > 0);
      List.iter
        (fun row ->
          checki "two fields" 2 (List.length (String.split_on_char ',' row)))
        rows
  | [] -> Alcotest.fail "empty csv");
  (* Quoting: a field containing a comma gets wrapped. *)
  let quoted =
    Pivot.to_csv
      { Pivot.headers = [ "a" ]; rows = [ ([ "x,y" ], 1.0) ] }
  in
  checkb "comma field quoted" true
    (String.length quoted > 0
    && String.split_on_char '\n' quoted |> fun l ->
       List.nth l 1 = "\"x,y\",1.00")

let test_views () =
  let static, bbec = mix_fixture () in
  let mix = Mix.of_bbec static bbec in
  let t = Views.top_functions 5 mix in
  checkb "top functions non-empty" true (List.length t.Pivot.rows > 0);
  let packing = Views.packing_breakdown mix in
  checkb "packing view non-empty" true (List.length packing.Pivot.rows > 0);
  ignore mix;
  let total = Views.group_total Taxonomy.control_flow static bbec in
  checkb "control flow counted" true (total > 0.0)

(* ------------------------------------------------------------------ *)
(* Kernel patch                                                        *)

let test_kernel_patch () =
  let k = Kernel.build () in
  let user =
    assemble ~name:"u" ~base:Layout.user_code_base ~ring:Ring.User user_funcs
  in
  let analyzed = Process.create [ user; k.Kernel.disk ] in
  let live = Process.create [ user; k.Kernel.live ] in
  let patched = Kernel_patch.patch_process ~analyzed ~live in
  let patched_kernel = Option.get (Process.find_image patched "vmlinux") in
  checkb "patched text equals live text" true
    (Bytes.equal patched_kernel.Image.code k.Kernel.live.Image.code);
  (* User image untouched. *)
  let patched_user = Option.get (Process.find_image patched "u") in
  checkb "user text untouched" true
    (Bytes.equal patched_user.Image.code user.Image.code)

let test_loop_view () =
  (* Uniform BBEC of 10 over the loop fixture: trips = header/preheader
     = 1 when all counts equal; with a hotter header the ratio shows. *)
  let static, bbec = mix_fixture () in
  let addrs =
    label_addresses ~name:"prog" ~base:Layout.user_code_base ~ring:Ring.User
      user_funcs
  in
  let loop_gid =
    Option.get (Static.find_starting static (List.assoc "l" addrs))
  in
  bbec.Bbec.counts.(loop_gid) <- 100.0;
  let stats = Loop_view.report static bbec in
  checkb "at least one loop" true (List.length stats >= 1);
  let top = List.hd stats in
  Alcotest.(check string) "loop lives in main" "main" top.Loop_view.symbol;
  Alcotest.(check (float 1e-6)) "trip estimate = header/preheader" 10.0
    top.Loop_view.trips_per_entry;
  Alcotest.(check (float 1e-6))
    "dynamic instructions = count x len"
    (100.0 *. 4.0) top.Loop_view.dynamic_instructions;
  (* Renders. *)
  let _ = Format.asprintf "%a" (fun ppf -> Loop_view.render ppf ~top:5) stats in
  ()

let test_sample_db_split () =
  let mk event =
    Hbbp_collector.Record.Sample
      {
        Hbbp_collector.Record.event;
        ip = 0x400000;
        lbr = [| { Lbr.src = 1; tgt = 2 } |];
        ring = Ring.User;
        time = 0;
      }
  in
  let records =
    [
      Hbbp_collector.Record.Comm { pid = 1; name = "x" };
      mk Pmu_event.Inst_retired_prec_dist;
      mk Pmu_event.Br_inst_retired_near_taken;
      mk Pmu_event.Cpu_clk_unhalted;
      Hbbp_collector.Record.Lost 3;
    ]
  in
  let db = Sample_db.of_records records in
  checki "one ebs" 1 (Array.length db.Sample_db.ebs);
  checki "one lbr" 1 (Array.length db.Sample_db.lbr);
  checki "other events" 1 db.Sample_db.other;
  checki "lost" 3 db.Sample_db.lost

let () =
  Alcotest.run "analyzer"
    [
      ( "static",
        [
          Alcotest.test_case "global ids" `Quick test_static_global_ids;
          Alcotest.test_case "layout chain" `Quick test_static_next_in_layout;
        ] );
      ( "stream_walk",
        [
          Alcotest.test_case "single block" `Quick test_walk_single_block;
          Alcotest.test_case "backwards" `Quick test_walk_backwards_is_bad;
          Alcotest.test_case "through jump" `Quick
            test_walk_through_jump_is_inconsistent;
          QCheck_alcotest.to_alcotest prop_walk_matches_oracle;
          Alcotest.test_case "oracle edge cases" `Quick
            test_walk_oracle_edges;
        ] );
      ( "estimators",
        [
          Alcotest.test_case "ebs math" `Quick test_ebs_estimator_math;
          Alcotest.test_case "lbr weights" `Quick test_lbr_estimator_weights;
          Alcotest.test_case "lbr inconsistent" `Quick
            test_lbr_estimator_inconsistent_counted;
        ] );
      ( "bias",
        [
          Alcotest.test_case "detection" `Quick test_bias_detection;
          Alcotest.test_case "quiet on uniform" `Quick
            test_bias_quiet_on_uniform;
        ] );
      ( "mix",
        [
          Alcotest.test_case "expansion" `Quick test_mix_expansion;
          Alcotest.test_case "filters" `Quick test_mix_filters;
          Alcotest.test_case "pivot" `Quick test_pivot;
          Alcotest.test_case "pivot csv" `Quick test_pivot_csv;
          Alcotest.test_case "views" `Quick test_views;
        ] );
      ( "misc",
        [
          Alcotest.test_case "kernel patch" `Quick test_kernel_patch;
          Alcotest.test_case "loop view" `Quick test_loop_view;
          Alcotest.test_case "sample db split" `Quick test_sample_db_split;
        ] );
    ]
