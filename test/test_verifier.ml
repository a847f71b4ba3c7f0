(* Static verifier tests.

   Three layers: (1) a mutation corpus — every lint rule is seeded with
   a deliberately broken structure and must fire, so no rule is dead;
   (2) clean-path checks — every bundled workload lints clean and its
   basic-block maps re-encode byte-identically to the assembled images;
   (3) flow conservation — reference BBECs conserve exactly, corrupted
   ones score high, and the pipeline degrades a non-conserving
   reconstruction with a typed [Flow_violation] reason. *)

open Hbbp_isa
open Hbbp_program
open Hbbp_program.Asm
open Hbbp_cpu
open Hbbp_collector
open Hbbp_core
open Hbbp_verifier

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)

let base = Layout.user_code_base

(* A well-formed image touching every terminator the lint reasons
   about: fall-through into a label, a conditional loop, a direct call
   and returns. *)
let good_funcs =
  [
    func "main"
      [
        i MOV [ rax; imm 0 ];
        label "loop";
        i ADD [ rax; imm 1 ];
        i CMP [ rax; imm 10 ];
        i JNZ [ L "loop" ];
        i CALL_NEAR [ L "helper" ];
        i RET_NEAR [];
      ];
    func "helper" [ i NOP []; i RET_NEAR [] ];
  ]

let good_image () = assemble ~name:"good" ~base ~ring:Ring.User good_funcs

let good_blocks img = Bb_map.blocks (Bb_map.of_image_exn img)

let nop_i = Instruction.make NOP []
let jmp_i = Instruction.make JMP [ Operand.Rel 0 ]

(* Hand-built block — the smart constructors can never produce broken
   structures, so mutations are assembled directly from the record. *)
let block ?(id = 0) ~addr ~instrs ~term () =
  let addrs = Array.make (Array.length instrs) addr in
  let size = ref 0 in
  Array.iteri
    (fun k ins ->
      addrs.(k) <- addr + !size;
      size := !size + Encoding.encoded_length ins)
    instrs;
  { Basic_block.id; addr; instrs; addrs; size = !size; term }

let has_rule rule diags =
  List.exists (fun (d : Diagnostic.t) -> d.Diagnostic.rule = rule) diags

(* ------------------------------------------------------------------ *)
(* Mutation corpus: one deliberately broken input per rule             *)

let mutations : (Diagnostic.rule * (unit -> Diagnostic.t list)) list =
  [
    ( Diagnostic.Decode,
      fun () ->
        let bad =
          Image.make ~name:"bad" ~base ~code:(Bytes.make 7 '\xff')
            ~symbols:[] ~ring:Ring.User
        in
        Lint.check_decode bad );
    ( Diagnostic.Roundtrip,
      fun () ->
        (* Swap one decoded instruction for a same-length impostor: the
           re-encoding no longer reproduces the image bytes. *)
        let img = good_image () in
        let decoded = Result.get_ok (Disasm.image img) in
        let tampered = Array.copy decoded in
        tampered.(0) <-
          {
            tampered.(0) with
            Disasm.instr =
              Instruction.make SUB [ Operand.Reg (Gpr RAX); Operand.Imm 0L ];
          };
        Lint.check_roundtrip img tampered );
    ( Diagnostic.Symbol_bounds,
      fun () ->
        let img = good_image () in
        let ghost =
          Symbol.make ~name:"ghost" ~addr:(Image.end_addr img + 8) ~size:4
        in
        let img =
          Image.make ~name:img.Image.name ~base ~code:img.Image.code
            ~symbols:(ghost :: img.Image.symbols) ~ring:Ring.User
        in
        Lint.check_symbols img );
    ( Diagnostic.Map_gap,
      fun () ->
        (* Drop a middle block: its bytes are no longer covered. *)
        let img = good_image () in
        let blocks = good_blocks img in
        let holed =
          Array.append (Array.sub blocks 0 1)
            (Array.sub blocks 2 (Array.length blocks - 2))
        in
        Lint.check_tiling img holed );
    ( Diagnostic.Map_overlap,
      fun () ->
        (* Duplicate a block: the copy starts inside its predecessor. *)
        let img = good_image () in
        let blocks = good_blocks img in
        let doubled =
          Array.concat
            [ Array.sub blocks 0 2; Array.sub blocks 1 1;
              Array.sub blocks 2 (Array.length blocks - 2) ]
        in
        Lint.check_tiling img doubled );
    ( Diagnostic.Mid_block_terminator,
      fun () ->
        let img = good_image () in
        let b =
          block ~addr:base ~instrs:[| jmp_i; nop_i |]
            ~term:Basic_block.Term_fallthrough ()
        in
        Lint.check_terminators img [| b |] );
    ( Diagnostic.Terminator_mismatch,
      fun () ->
        let img = good_image () in
        let b =
          block ~addr:base ~instrs:[| nop_i |] ~term:Basic_block.Term_ret ()
        in
        Lint.check_terminators img [| b |] );
    ( Diagnostic.Dangling_target,
      fun () ->
        (* Jump one byte past a block entry: inside the image, but not
           a leader and not a symbol. *)
        let img = good_image () in
        let b =
          block ~addr:base ~instrs:[| jmp_i |]
            ~term:(Basic_block.Term_jump (base + 1)) ()
        in
        Lint.check_targets img [| b |] );
    ( Diagnostic.Edge_mismatch,
      fun () ->
        let img = good_image () in
        let blocks = good_blocks img in
        Lint.check_cfg img blocks ~successors:(fun _ -> []) );
    ( Diagnostic.Unreachable,
      fun () ->
        (* An uncalled function with the symbol table stripped: nothing
           roots its block. *)
        let funcs = good_funcs @ [ func "dead" [ i NOP []; i RET_NEAR [] ] ] in
        let img = assemble ~name:"stripped" ~base ~ring:Ring.User funcs in
        let img =
          Image.make ~name:"stripped" ~base ~code:img.Image.code ~symbols:[]
            ~ring:Ring.User
        in
        Lint.check_reachability img (good_blocks img) );
    ( Diagnostic.Fallthrough_off_end,
      fun () ->
        (* A truncated tail: the last block falls off the image end. *)
        let img = good_image () in
        let b =
          block ~addr:base ~instrs:[| nop_i |]
            ~term:Basic_block.Term_fallthrough ()
        in
        Lint.check_fallthrough_off_end img [| b |] );
    ( Diagnostic.Exec_missing_node,
      fun () ->
        (* Claim an instruction at a mid-instruction address: the
           executable graph has no node there. *)
        let img = good_image () in
        let graph = Exec_graph.build_exn (Process.create [ img ]) in
        let b = block ~addr:(base + 1) ~instrs:[| nop_i |]
            ~term:Basic_block.Term_fallthrough ()
        in
        Lint.check_exec_graph graph img [| b |] );
    ( Diagnostic.Exec_count_mismatch,
      fun () ->
        let img = good_image () in
        let graph = Exec_graph.build_exn (Process.create [ img ]) in
        Lint.check_exec_count graph ~image:"good"
          ~expected:(Exec_graph.node_count graph + 1) );
  ]

(* Every rule in the catalogue has a mutation, and it fires — no dead
   rules. *)
let test_no_dead_rules () =
  List.iter
    (fun rule ->
      match List.assoc_opt rule mutations with
      | None ->
          Alcotest.failf "rule %s has no mutation fixture"
            (Diagnostic.rule_id rule)
      | Some mutate ->
          let diags = mutate () in
          checkb
            (Printf.sprintf "rule %s fires on its mutation"
               (Diagnostic.rule_id rule))
            true (has_rule rule diags))
    Diagnostic.all_rules;
  checki "catalogue and corpus sizes agree" (List.length Diagnostic.all_rules)
    (List.length mutations)

(* The good image is clean through the full driver — so each mutation
   above isolates exactly the brokenness it injects. *)
let test_good_image_clean () =
  let img = good_image () in
  let graph = Exec_graph.build_exn (Process.create [ img ]) in
  match Lint.image ~exec:graph img with
  | [] -> ()
  | diags ->
      Alcotest.failf "good image not clean: %s"
        (String.concat "; "
           (List.map (Format.asprintf "%a" Diagnostic.pp) diags))

let test_decode_short_circuits () =
  let bad =
    Image.make ~name:"bad" ~base ~code:(Bytes.make 7 '\xff') ~symbols:[]
      ~ring:Ring.User
  in
  match Lint.image bad with
  | [ d ] -> checkb "only decode fires" true (d.Diagnostic.rule = Diagnostic.Decode)
  | diags -> Alcotest.failf "expected exactly one decode finding, got %d"
               (List.length diags)

(* ------------------------------------------------------------------ *)
(* Clean path: every bundled workload                                  *)

let test_workloads_lint_clean () =
  List.iter
    (fun name ->
      let w = Hbbp_workloads.Registry.find name in
      let check label process =
        match Lint.process process with
        | [] -> ()
        | diags ->
            Alcotest.failf "%s (%s): %d finding(s), first: %s" name label
              (List.length diags)
              (Format.asprintf "%a" Diagnostic.pp (List.hd diags))
      in
      check "analysis" w.Workload.analysis_process;
      check "live" w.Workload.live_process)
    Hbbp_workloads.Registry.names

(* Disassembler/assembler agreement: re-encoding every block of every
   bundled image reproduces the image bytes exactly. *)
let test_bb_map_reencodes_byte_identical () =
  List.iter
    (fun name ->
      let w = Hbbp_workloads.Registry.find name in
      List.iter
        (fun (img : Image.t) ->
          let map = Bb_map.of_image_exn img in
          let out = Buffer.create (Image.size img) in
          Array.iter
            (fun (b : Basic_block.t) ->
              Array.iter
                (fun ins ->
                  Buffer.add_bytes out (Encoding.encode_to_bytes ins))
                b.Basic_block.instrs)
            (Bb_map.blocks map);
          checkb
            (Printf.sprintf "%s/%s re-encodes byte-identical" name
               img.Image.name)
            true
            (Bytes.equal (Buffer.to_bytes out) img.Image.code))
        (Process.images w.Workload.analysis_process))
    Hbbp_workloads.Registry.names

(* ------------------------------------------------------------------ *)
(* Flow conservation                                                   *)

let profile =
  lazy (Pipeline.run (Hbbp_workloads.Registry.find "fitter-sse"))

let test_reference_conserves () =
  let p = Lazy.force profile in
  let r = Flow.check p.Pipeline.static p.Pipeline.reference in
  checkb "reference flow is exactly conserved" true
    (r.Flow.conservation_error = 0.0);
  checkb "flow is non-trivial" true (r.Flow.total_flow > 0.0);
  checkb "entry blocks found" true (r.Flow.entry_blocks > 0)

let test_reconstruction_within_threshold () =
  let p = Lazy.force profile in
  let r = Flow.check p.Pipeline.static p.Pipeline.hbbp in
  checkb "sampled reconstruction conserves within threshold" true
    (r.Flow.conservation_error
    <= Pipeline.default_thresholds.Pipeline.max_conservation_error);
  checkb "clean profile stays Full" true (p.Pipeline.quality = Pipeline.Full)

let test_corrupted_bbec_flagged () =
  let p = Lazy.force profile in
  let reference = p.Pipeline.reference in
  let counts = Array.copy reference.Hbbp_analyzer.Bbec.counts in
  (* Zero every other block: every guaranteed edge into a zeroed block
     now carries unexplained flow. *)
  Array.iteri (fun k c -> if k mod 2 = 0 then counts.(k) <- 0.0 else counts.(k) <- c) counts;
  let corrupted = { reference with Hbbp_analyzer.Bbec.counts = counts } in
  let r = Flow.check p.Pipeline.static corrupted in
  checkb "corruption breaks conservation" true
    (r.Flow.conservation_error
    > Pipeline.default_thresholds.Pipeline.max_conservation_error);
  checkb "worst offender reported" true (r.Flow.worst <> [])

(* A reconstruction whose samples all land on a block with a guaranteed
   successor that never gets counted: flow conservation is violated by
   construction. *)
let skewed_fixture () =
  let img =
    assemble ~name:"skew" ~base ~ring:Ring.User
      [
        func "main"
          [ i MOV [ rax; imm 0 ]; i JMP [ L "tail" ]; label "tail";
            i RET_NEAR [] ];
      ]
  in
  let static = Hbbp_analyzer.Static.create_exn (Process.create [ img ]) in
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
  (static, records)

let test_pipeline_degrades_on_flow_violation () =
  let static, records = skewed_fixture () in
  let r =
    Pipeline.reconstruct ~static ~ebs_period:1 ~lbr_period:1 records
  in
  match r.Pipeline.r_quality with
  | Pipeline.Full -> Alcotest.fail "skewed reconstruction reported Full"
  | Pipeline.Degraded reasons ->
      checkb "flow violation reason present" true
        (List.exists
           (function
             | Pipeline.Flow_violation { conservation_error; _ } ->
                 conservation_error
                 > Pipeline.default_thresholds.Pipeline.max_conservation_error
             | _ -> false)
           reasons)

let test_threshold_is_plumbed () =
  let static, records = skewed_fixture () in
  let thresholds =
    { Pipeline.default_thresholds with max_conservation_error = 10.0 }
  in
  let r =
    Pipeline.reconstruct ~thresholds ~static ~ebs_period:1 ~lbr_period:1
      records
  in
  let flow_flagged =
    match r.Pipeline.r_quality with
    | Pipeline.Full -> false
    | Pipeline.Degraded reasons ->
        List.exists
          (function Pipeline.Flow_violation _ -> true | _ -> false)
          reasons
  in
  checkb "loose threshold suppresses the flow verdict" false flow_flagged

(* ------------------------------------------------------------------ *)
(* Entry-exemption edge cases of Flow.structure                        *)

(* A block that is simultaneously address-taken (an immediate names its
   entry) AND the post-syscall resume point: both rules mark it, the
   exemption holds, and the syscall contributes no guaranteed edge —
   so any count on the block is within bounds. *)
let test_entry_addr_taken_and_post_syscall () =
  let funcs target =
    [
      func "main"
        [
          i MOV [ rax; imm target ];
          i SYSCALL [];
          label "resume";
          i NOP [];
          i RET_NEAR [];
        ];
    ]
  in
  let addr_of fs =
    List.assoc "resume" (label_addresses ~name:"edge" ~base ~ring:Ring.User fs)
  in
  let resume = addr_of (funcs 0) in
  (* Patching the immediate must not shift the layout, or the address
     would name the wrong block. *)
  checki "layout stable across imm patch" resume (addr_of (funcs resume));
  let img = assemble ~name:"edge" ~base ~ring:Ring.User (funcs resume) in
  let static = Hbbp_analyzer.Static.create_exn (Process.create [ img ]) in
  let s = Flow.structure static in
  let gid =
    Option.get (Hbbp_analyzer.Static.find_starting static resume)
  in
  checkb "resume block is entry-exempt" true s.Flow.s_entry.(gid);
  checkb "syscall guarantees no inflow" true (s.Flow.s_in_guaranteed.(gid) = []);
  (* Extra inflow at the doubly-exempt block is legitimate: wild counts
     there are not charged. *)
  let counts = Array.make s.Flow.s_blocks 0. in
  counts.(gid) <- 1_000_000.;
  let r =
    Flow.check_with s { Hbbp_analyzer.Bbec.method_ = Hbbp_analyzer.Bbec.Hbbp; counts }
  in
  checkb "no residual charged at the exempt block" true
    (r.Flow.total_residual = 0.)

(* An image whose base block is named by no symbol and targeted by no
   branch — prologue padding.  The base must still be entry-exempt:
   the loader can enter there even though nothing in the CFG roots
   it. *)
let test_image_base_exempt_without_symbol () =
  let img =
    assemble ~name:"padded" ~base ~ring:Ring.User
      [
        func "pad" [ i NOP []; i RET_NEAR [] ];
        func "main" [ i MOV [ rax; imm 0 ]; i RET_NEAR [] ];
      ]
  in
  let symbols =
    List.filter
      (fun (s : Symbol.t) -> not (String.equal s.Symbol.name "pad"))
      img.Image.symbols
  in
  let img =
    Image.make ~name:"padded" ~base ~code:img.Image.code ~symbols
      ~ring:Ring.User
  in
  let static = Hbbp_analyzer.Static.create_exn (Process.create [ img ]) in
  let s = Flow.structure static in
  let gid = Option.get (Hbbp_analyzer.Static.find_starting static base) in
  checkb "no symbol names the base block" true
    (not
       (List.exists (fun (sym : Symbol.t) -> sym.Symbol.addr = base) symbols));
  checkb "image base is entry-exempt" true s.Flow.s_entry.(gid);
  let counts = Array.make s.Flow.s_blocks 0. in
  counts.(gid) <- 42.;
  let r =
    Flow.check_with s
      { Hbbp_analyzer.Bbec.method_ = Hbbp_analyzer.Bbec.Hbbp; counts }
  in
  checkb "counts at the orphan base are not charged" true
    (r.Flow.total_residual = 0.)

(* The worst-offender list breaks residual ties by ascending block id,
   so lint --json output is byte-stable run to run. *)
let test_worst_offender_tie_order () =
  let static = Lazy.force (lazy ((Lazy.force profile).Pipeline.static)) in
  let s = Flow.structure static in
  (* Two identical violations: zero two blocks fed by identical
     guaranteed inflow.  Whatever the residuals, any equal residuals
     must list in ascending gid order. *)
  let p = Lazy.force profile in
  let counts = Array.copy p.Pipeline.reference.Hbbp_analyzer.Bbec.counts in
  Array.iteri (fun k _ -> if k mod 2 = 0 then counts.(k) <- 0.) counts;
  let r =
    Flow.check_with ~worst:50 s
      { p.Pipeline.reference with Hbbp_analyzer.Bbec.counts = counts }
  in
  let rec ordered = function
    | a :: (b :: _ as rest) ->
        (a.Flow.residual > b.Flow.residual
        || (a.Flow.residual = b.Flow.residual && a.Flow.gid < b.Flow.gid))
        && ordered rest
    | _ -> true
  in
  checkb "offenders sorted by residual desc then gid asc" true
    (ordered r.Flow.worst);
  checkb "ties exist in the fixture" true
    (List.exists
       (fun (a : Flow.block_flow) ->
         List.exists
           (fun (b : Flow.block_flow) ->
             a.Flow.gid <> b.Flow.gid && a.Flow.residual = b.Flow.residual)
           r.Flow.worst)
       r.Flow.worst)

(* The [verify/flow_check] span carries the flow report as args. *)
let test_verify_metrics_exported () =
  let module Trace = Hbbp_telemetry.Trace in
  Trace.reset ();
  Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.reset ())
    (fun () ->
      let static, records = skewed_fixture () in
      let r =
        Pipeline.reconstruct ~static ~ebs_period:1 ~lbr_period:1 records
      in
      match
        List.filter
          (fun (s : Trace.span) -> s.name = "flow_check" && s.cat = "verify")
          (Trace.spans ())
      with
      | [ s ] ->
          let arg key =
            match List.assoc_opt key s.args with
            | Some v -> v
            | None -> Alcotest.failf "verify/flow_check has no %s arg" key
          in
          let error = float_of_string (arg "verify.conservation_error") in
          checkb "conservation error near 1" true (error > 0.5);
          Alcotest.(check (float 0.0)) "the report's error"
            r.Pipeline.r_flow.Flow.conservation_error error;
          Alcotest.(check string) "violation counted" "1"
            (arg "verify.flow_violations")
      | spans ->
          Alcotest.failf "%d verify/flow_check spans, expected 1"
            (List.length spans))

let () =
  Alcotest.run "verifier"
    [
      ( "mutations",
        [
          Alcotest.test_case "no dead rules" `Quick test_no_dead_rules;
          Alcotest.test_case "good image clean" `Quick test_good_image_clean;
          Alcotest.test_case "decode short-circuits" `Quick
            test_decode_short_circuits;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "all bundled workloads lint clean" `Quick
            test_workloads_lint_clean;
          Alcotest.test_case "bb maps re-encode byte-identical" `Quick
            test_bb_map_reencodes_byte_identical;
        ] );
      ( "flow",
        [
          Alcotest.test_case "reference conserves exactly" `Slow
            test_reference_conserves;
          Alcotest.test_case "reconstruction within threshold" `Slow
            test_reconstruction_within_threshold;
          Alcotest.test_case "corrupted bbec flagged" `Slow
            test_corrupted_bbec_flagged;
          Alcotest.test_case "pipeline degrades on violation" `Quick
            test_pipeline_degrades_on_flow_violation;
          Alcotest.test_case "threshold plumbed" `Quick
            test_threshold_is_plumbed;
          Alcotest.test_case "verify metrics + span exported" `Quick
            test_verify_metrics_exported;
        ] );
      ( "structure",
        [
          Alcotest.test_case "address-taken + post-syscall block exempt"
            `Quick test_entry_addr_taken_and_post_syscall;
          Alcotest.test_case "orphan image base exempt" `Quick
            test_image_base_exempt_without_symbol;
          Alcotest.test_case "worst-offender tie order byte-stable" `Slow
            test_worst_offender_tie_order;
        ] );
    ]
