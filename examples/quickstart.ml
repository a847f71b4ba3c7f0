(* Quickstart: write a program in the assembler DSL, profile it with
   HBBP, and read the instruction mix.

     dune exec examples/quickstart.exe
*)

open Hbbp_isa
open Hbbp_program
open Hbbp_program.Asm
open Hbbp_core

(* A little numeric kernel: sum of square roots, with a rarely-taken
   error path. *)
let program =
  [
    func "main"
      [
        i Mnemonic.MOV [ rbp; imm Hbbp_cpu.Layout.user_data_base ];
        i Mnemonic.MOV [ rcx; imm 200_000 ];
        i Mnemonic.XORPS [ xmm 5; xmm 5 ];
        label "loop";
        (* x = sqrt(rcx); acc += x *)
        i Mnemonic.CVTSI2SD [ xmm 0; rcx ];
        i Mnemonic.SQRTSD [ xmm 1; xmm 0 ];
        i Mnemonic.ADDSD [ xmm 5; xmm 1 ];
        (* every 64th iteration, spill the accumulator *)
        i Mnemonic.TEST [ rcx; imm 63 ];
        i Mnemonic.JNZ [ L "no_spill" ];
        i Mnemonic.MOVSD [ mem Operand.RBP; xmm 5 ];
        label "no_spill";
        i Mnemonic.DEC [ rcx ];
        i Mnemonic.JNZ [ L "loop" ];
        i Mnemonic.RET_NEAR [];
      ];
  ]

let () =
  (* 1. Assemble into an image and wrap it as a workload. *)
  let image =
    assemble ~name:"quickstart" ~base:Hbbp_cpu.Layout.user_code_base
      ~ring:Ring.User program
  in
  let workload = Workload.of_user_image image ~entry_symbol:"main" in

  (* 2. Arm telemetry: a Chrome trace of the run plus the metrics
     rendered from its spans.  Both are off by default; this is all it
     takes. *)
  Hbbp_telemetry.Telemetry.configure ~trace:"quickstart_trace.json"
    ~metrics:`Table ();

  (* 3. One call runs everything: the clean execution, the
     instrumentation reference, the dual-LBR collection and the HBBP
     reconstruction. *)
  let profile = Pipeline.run workload in

  (* 4. Inspect. *)
  Format.printf "%a@.@." Report.summary profile;
  Format.printf "Instruction mix (HBBP):@.";
  Hbbp_analyzer.Pivot.render Format.std_formatter
    (Hbbp_analyzer.Views.top_mnemonics 12
       (Pipeline.full_mix_of profile profile.Pipeline.hbbp));
  Format.printf "@.Accuracy against the instrumentation ground truth:@.";
  Report.method_comparison Format.std_formatter profile;

  (* 5. Flush telemetry: writes quickstart_trace.json (load it in
     Perfetto or chrome://tracing) and prints the metrics table. *)
  Format.printf "@.";
  Hbbp_telemetry.Telemetry.finalize Format.std_formatter
