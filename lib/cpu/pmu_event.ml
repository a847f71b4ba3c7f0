type t =
  | Inst_retired_any
  | Inst_retired_prec_dist
  | Br_inst_retired_near_taken
  | Cpu_clk_unhalted
  | Fp_comp_ops_sse
  | Fp_comp_ops_avx
  | Fp_comp_ops_x87
  | Simd_int_128
  | Arith_divider_cycles

let equal (a : t) b = a = b

let to_string = function
  | Inst_retired_any -> "INST_RETIRED:ANY"
  | Inst_retired_prec_dist -> "INST_RETIRED:PREC_DIST"
  | Br_inst_retired_near_taken -> "BR_INST_RETIRED:NEAR_TAKEN"
  | Cpu_clk_unhalted -> "CPU_CLK_UNHALTED:THREAD"
  | Fp_comp_ops_sse -> "FP_COMP_OPS_EXE:SSE"
  | Fp_comp_ops_avx -> "SIMD_FP_256:PACKED"
  | Fp_comp_ops_x87 -> "FP_COMP_OPS_EXE:X87"
  | Simd_int_128 -> "SIMD_INT_128:ALL"
  | Arith_divider_cycles -> "ARITH:FPU_DIV_ACTIVE"

let all =
  [
    Inst_retired_any;
    Inst_retired_prec_dist;
    Br_inst_retired_near_taken;
    Cpu_clk_unhalted;
    Fp_comp_ops_sse;
    Fp_comp_ops_avx;
    Fp_comp_ops_x87;
    Simd_int_128;
    Arith_divider_cycles;
  ]

let pp ppf e = Format.pp_print_string ppf (to_string e)

let is_precise = function
  | Inst_retired_prec_dist -> true
  | Inst_retired_any | Br_inst_retired_near_taken | Cpu_clk_unhalted
  | Fp_comp_ops_sse | Fp_comp_ops_avx | Fp_comp_ops_x87 | Simd_int_128
  | Arith_divider_cycles ->
      false
