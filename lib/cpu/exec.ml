open Hbbp_isa

type control =
  | Fall
  | Taken of int
  | Syscall_enter of int
  | Sysret_exit of int
  | Halt

exception Fault of string

let fault fmt = Format.kasprintf (fun s -> raise (Fault s)) fmt

(* ------------------------------------------------------------------ *)
(* Memory access: the one path [step] and every compiled kernel take.
   Each helper tests the hot region, then loads or stores the bytes
   here, little-endian like [Memory]'s own accessors.  Calling those
   accessors instead would box every [int64] and [float] that crosses
   the module boundary (nothing is inlined across modules without
   flambda, or under [-opaque]); inlined into a kernel, the value stays
   in a register.  A miss goes through [Memory.region_for], which
   raises [Memory.Fault addr] on an unmapped access.                   *)

let[@inline] region (mem : Memory.t) addr len =
  let r = Array.unsafe_get mem.Memory.regions mem.Memory.hot in
  let off = addr - r.Memory.base in
  if off >= 0 && off + len <= Bytes.length r.Memory.data then r
  else Memory.region_for mem addr len

let[@inline] load_i64 mem addr =
  let r = region mem addr 8 in
  Bytes.get_int64_le r.Memory.data (addr - r.Memory.base)

let[@inline] store_i64 mem addr v =
  let r = region mem addr 8 in
  Bytes.set_int64_le r.Memory.data (addr - r.Memory.base) v

let[@inline] load_f64 mem addr = Int64.float_of_bits (load_i64 mem addr)
let[@inline] store_f64 mem addr v = store_i64 mem addr (Int64.bits_of_float v)

let[@inline] load_f32 mem addr =
  let r = region mem addr 4 in
  Int32.float_of_bits
    (Bytes.get_int32_le r.Memory.data (addr - r.Memory.base))

let[@inline] store_f32 mem addr v =
  let r = region mem addr 4 in
  Bytes.set_int32_le r.Memory.data (addr - r.Memory.base)
    (Int32.bits_of_float v)

(* ------------------------------------------------------------------ *)
(* Lane operations: the one definition of what a binary FP, packed or
   x87 op computes on one lane, for [step] and the kernels alike.  A
   constant constructor rather than a [float -> float -> float]
   closure: matched inside the inlined [lane], operands and result stay
   unboxed in a kernel's lane loop, where a closure call boxes all
   three.  Division by zero yields 0 to keep the machine total
   (workloads are written to avoid it); bitwise ops work on the IEEE
   bits of each lane, so the XOR-zeroing idiom produces exact zeros.   *)

type lane_op = Add | Sub | Mul | Div | Max | Min | And | Or | Xor | Lt | Eq

let[@inline] lane op a b =
  match op with
  | Add -> a +. b
  | Sub -> a -. b
  | Mul -> a *. b
  | Div -> if b = 0.0 then 0.0 else a /. b
  | Max -> Float.max a b
  | Min -> Float.min a b
  | And ->
      Int32.float_of_bits
        (Int32.logand (Int32.bits_of_float a) (Int32.bits_of_float b))
  | Or ->
      Int32.float_of_bits
        (Int32.logor (Int32.bits_of_float a) (Int32.bits_of_float b))
  | Xor ->
      Int32.float_of_bits
        (Int32.logxor (Int32.bits_of_float a) (Int32.bits_of_float b))
  | Lt -> if a < b then 1.0 else 0.0
  | Eq -> if a = b then 1.0 else 0.0

let lane_op_of (m : Mnemonic.t) =
  match m with
  | ADDSS | ADDSD | VADDSS | VADDSD | ADDPS | ADDPD | VADDPS | VADDPD | PADDD
  | PADDQ | VPADDD | FADD ->
      Add
  | SUBSS | SUBSD | VSUBSS | SUBPS | SUBPD | VSUBPS | VSUBPD | PSUBD | FSUB ->
      Sub
  | MULSS | MULSD | VMULSS | VMULSD | MULPS | MULPD | VMULPS | VMULPD | PMULLD
  | VPMULLD | FMUL ->
      Mul
  | DIVSS | DIVSD | VDIVSS | VDIVSD | DIVPS | DIVPD | VDIVPS | VDIVPD | FDIV ->
      Div
  | MAXSS | MAXPS | VMAXPS -> Max
  | MINSS | MINPS | VMINPS -> Min
  | ANDPS | ANDPD | PAND | VANDPS | VPAND -> And
  | ORPS | POR -> Or
  | XORPS | XORPD | PXOR | VXORPS | VXORPD | VPXOR -> Xor
  | CMPPS -> Lt
  | PCMPEQD -> Eq
  | _ -> fault "%s has no lane operation" (Mnemonic.to_string m)

(* Square root of the magnitude, so negative inputs stay total. *)
let[@inline] sqrt_abs v = sqrt (Float.abs v)

(* ------------------------------------------------------------------ *)
(* Integer operand access                                              *)

let rd_int (st : State.t) = function
  | Operand.Reg (Operand.Gpr g) -> State.get_gpr st g
  | Operand.Imm v -> v
  | Operand.Mem m -> load_i64 st.mem (State.effective_address st m)
  | Operand.Reg _ -> fault "integer read from vector register"
  | Operand.Rel _ -> fault "integer read from Rel operand"

let wr_int (st : State.t) op v =
  match op with
  | Operand.Reg (Operand.Gpr g) -> State.set_gpr st g v
  | Operand.Mem m -> store_i64 st.mem (State.effective_address st m) v
  | Operand.Reg _ | Operand.Imm _ | Operand.Rel _ ->
      fault "integer write to non-lvalue"

(* ------------------------------------------------------------------ *)
(* Flags                                                               *)

(* Flag updates use direct comparisons at known [int64] type — the
   compiler turns those into unboxed machine compares, where the
   [Int64.compare]/[Int64.unsigned_compare] functions cost a C call per
   flag.  [ult] is unsigned less-than via the usual sign-bit flip;
   identical to [Int64.unsigned_compare a b < 0]. *)
let ult (a : int64) (b : int64) =
  Int64.logxor a Int64.min_int < Int64.logxor b Int64.min_int

let set_zs (st : State.t) (v : int64) =
  st.zf <- v = 0L;
  st.sf <- v < 0L

let set_logic_flags st v =
  set_zs st v;
  st.cf <- false;
  st.off <- false

let set_add_flags (st : State.t) (a : int64) (b : int64) (r : int64) =
  set_zs st r;
  st.cf <- ult r a;
  let sa = a < 0L and sb = b < 0L and sr = r < 0L in
  st.off <- sa = sb && sr <> sa

let set_sub_flags (st : State.t) (a : int64) (b : int64) (r : int64) =
  set_zs st r;
  st.cf <- ult a b;
  let sa = a < 0L and sb = b < 0L and sr = r < 0L in
  st.off <- sa <> sb && sr <> sa

let condition (st : State.t) (m : Mnemonic.t) =
  match m with
  | JZ | CMOVZ | SETZ -> st.zf
  | JNZ | CMOVNZ | SETNZ -> not st.zf
  | JLE | SETLE -> st.zf || st.sf <> st.off
  | JNLE -> (not st.zf) && st.sf = st.off
  | JL -> st.sf <> st.off
  | JNL -> st.sf = st.off
  | JB -> st.cf
  | JNB -> not st.cf
  | JBE -> st.cf || st.zf
  | JNBE -> (not st.cf) && not st.zf
  | JS -> st.sf
  | JNS -> not st.sf
  | _ -> fault "condition of non-conditional mnemonic"

(* ------------------------------------------------------------------ *)
(* Stack                                                               *)

let push (st : State.t) v =
  let rsp = Int64.sub (State.get_gpr st Operand.RSP) 8L in
  State.set_gpr st Operand.RSP rsp;
  store_i64 st.mem (Int64.to_int rsp) v

let pop (st : State.t) =
  let rsp = State.get_gpr st Operand.RSP in
  let v = load_i64 st.mem (Int64.to_int rsp) in
  State.set_gpr st Operand.RSP (Int64.add rsp 8L);
  v

(* ------------------------------------------------------------------ *)
(* Scalar FP access (value-level: SS and SD both map to OCaml floats;  *)
(* the memory width differs)                                           *)

let rd_fp (st : State.t) ~wide = function
  | Operand.Reg (Operand.Xmm i) | Operand.Reg (Operand.Ymm i) ->
      st.vregs.(i).(0)
  | Operand.Mem m ->
      let a = State.effective_address st m in
      if wide then load_f64 st.mem a else load_f32 st.mem a
  | Operand.Imm v -> Int64.to_float v
  | Operand.Reg _ | Operand.Rel _ -> fault "fp read from bad operand"

let wr_fp (st : State.t) ~wide op v =
  match op with
  | Operand.Reg (Operand.Xmm i) | Operand.Reg (Operand.Ymm i) ->
      st.vregs.(i).(0) <- v
  | Operand.Mem m ->
      let a = State.effective_address st m in
      if wide then store_f64 st.mem a v else store_f32 st.mem a v
  | Operand.Reg _ | Operand.Imm _ | Operand.Rel _ ->
      fault "fp write to non-lvalue"

let is_wide (m : Mnemonic.t) =
  match Mnemonic.element m with
  | Mnemonic.Fp64 -> true
  | Mnemonic.Fp32 | Mnemonic.Int_elem | Mnemonic.No_elem -> false

(* ------------------------------------------------------------------ *)
(* Vector access                                                       *)

let dest_reg (i : Instruction.t) =
  match i.operands.(0) with
  | Operand.Reg r -> r
  | Operand.Mem _ | Operand.Imm _ | Operand.Rel _ ->
      fault "vector destination is not a register"

let lanes_of (i : Instruction.t) =
  (* Lane count from the first register operand (dest for reg forms). *)
  let rec first_reg k =
    if k >= Array.length i.operands then Operand.Xmm 0
    else
      match i.operands.(k) with
      | Operand.Reg ((Operand.Xmm _ | Operand.Ymm _) as r) -> r
      | _ -> first_reg (k + 1)
  in
  State.lane_count (first_reg 0) (Mnemonic.element i.mnemonic)

let rd_vec (st : State.t) ~lanes ~wide op =
  match op with
  | Operand.Reg ((Operand.Xmm i | Operand.Ymm i)) ->
      Array.sub st.vregs.(i) 0 lanes
  | Operand.Mem m ->
      let a = State.effective_address st m in
      let width = if wide then 8 else 4 in
      Array.init lanes (fun k ->
          if wide then load_f64 st.mem (a + (k * width))
          else load_f32 st.mem (a + (k * width)))
  | Operand.Reg _ | Operand.Imm _ | Operand.Rel _ ->
      fault "vector read from bad operand"

let wr_vec (st : State.t) ~wide op values =
  match op with
  | Operand.Reg ((Operand.Xmm i | Operand.Ymm i)) ->
      Array.blit values 0 st.vregs.(i) 0 (Array.length values)
  | Operand.Mem m ->
      let a = State.effective_address st m in
      let width = if wide then 8 else 4 in
      Array.iteri
        (fun k v ->
          if wide then store_f64 st.mem (a + (k * width)) v
          else store_f32 st.mem (a + (k * width)) v)
        values
  | Operand.Reg _ | Operand.Imm _ | Operand.Rel _ ->
      fault "vector write to non-lvalue"

(* Binary vector op: SSE form [op dst, src] computes dst := dst op src;
   AVX three-operand form [op dst, a, b] computes dst := a op b. *)
let vec_binop st (i : Instruction.t) op =
  let lanes = lanes_of i in
  let wide = is_wide i.mnemonic in
  let a, b =
    if Array.length i.operands >= 3 then
      ( rd_vec st ~lanes ~wide i.operands.(1),
        rd_vec st ~lanes ~wide i.operands.(2) )
    else
      ( rd_vec st ~lanes ~wide i.operands.(0),
        rd_vec st ~lanes ~wide i.operands.(1) )
  in
  wr_vec st ~wide i.operands.(0)
    (Array.init lanes (fun k -> lane op a.(k) b.(k)))

let vec_sqrt st (i : Instruction.t) =
  let lanes = lanes_of i in
  let wide = is_wide i.mnemonic in
  let src = i.operands.(Array.length i.operands - 1) in
  let a = rd_vec st ~lanes ~wide src in
  wr_vec st ~wide i.operands.(0) (Array.map sqrt_abs a)

(* Scalar binary op over lane 0 / memory. *)
let fp_binop st (i : Instruction.t) op =
  let wide = is_wide i.mnemonic in
  let a, b =
    if Array.length i.operands >= 3 then
      (rd_fp st ~wide i.operands.(1), rd_fp st ~wide i.operands.(2))
    else (rd_fp st ~wide i.operands.(0), rd_fp st ~wide i.operands.(1))
  in
  wr_fp st ~wide i.operands.(0) (lane op a b)

let fp_compare (st : State.t) (i : Instruction.t) =
  let wide = is_wide i.mnemonic in
  let a = rd_fp st ~wide i.operands.(0)
  and b = rd_fp st ~wide i.operands.(1) in
  st.zf <- a = b;
  st.cf <- a < b;
  st.sf <- false;
  st.off <- false

let int_of_imm = function
  | Operand.Imm v -> Int64.to_int v
  | Operand.Reg _ | Operand.Mem _ | Operand.Rel _ ->
      fault "expected immediate operand"

(* ------------------------------------------------------------------ *)
(* x87 helpers: [op] with a memory operand uses it as the rhs against  *)
(* ST0; with an St operand uses that stack slot.                       *)

let x87_rhs (st : State.t) (i : Instruction.t) =
  if Array.length i.operands = 0 then State.x87_get st 1
  else
    match i.operands.(0) with
    | Operand.Reg (Operand.St k) -> State.x87_get st k
    | Operand.Mem m -> load_f64 st.mem (State.effective_address st m)
    | Operand.Reg _ | Operand.Imm _ | Operand.Rel _ ->
        fault "bad x87 operand"

let branch_target (node : Exec_graph.node) =
  match node.target with
  | Some t -> t.addr
  | None -> (
      match Instruction.rel_displacement node.instr with
      | Some disp -> node.addr + node.len + disp
      | None -> fault "direct branch without displacement at %#x" node.addr)

(* ------------------------------------------------------------------ *)

let step (st : State.t) (node : Exec_graph.node) =
  let i = node.instr in
  let ops = i.operands in
  let next_addr = node.addr + node.len in
  match i.mnemonic with
  (* ---- data transfer ---- *)
  | MOV ->
      wr_int st ops.(0) (rd_int st ops.(1));
      Fall
  | MOVZX ->
      wr_int st ops.(0) (Int64.logand (rd_int st ops.(1)) 0xFFFFL);
      Fall
  | MOVSX ->
      let v = rd_int st ops.(1) in
      wr_int st ops.(0) (Int64.shift_right (Int64.shift_left v 48) 48);
      Fall
  | MOVSXD ->
      let v = rd_int st ops.(1) in
      wr_int st ops.(0) (Int64.shift_right (Int64.shift_left v 32) 32);
      Fall
  | LEA -> (
      match ops.(1) with
      | Operand.Mem m ->
          wr_int st ops.(0) (Int64.of_int (State.effective_address st m));
          Fall
      | Operand.Reg _ | Operand.Imm _ | Operand.Rel _ ->
          fault "LEA needs a memory operand")
  | XCHG ->
      let a = rd_int st ops.(0) and b = rd_int st ops.(1) in
      wr_int st ops.(0) b;
      wr_int st ops.(1) a;
      Fall
  | CMOVZ | CMOVNZ ->
      if condition st i.mnemonic then wr_int st ops.(0) (rd_int st ops.(1));
      Fall
  | SETZ | SETNZ | SETLE ->
      wr_int st ops.(0) (if condition st i.mnemonic then 1L else 0L);
      Fall
  | PUSH ->
      push st (rd_int st ops.(0));
      Fall
  | POP ->
      wr_int st ops.(0) (pop st);
      Fall
  (* ---- integer arithmetic ---- *)
  | ADD ->
      let a = rd_int st ops.(0) and b = rd_int st ops.(1) in
      let r = Int64.add a b in
      set_add_flags st a b r;
      wr_int st ops.(0) r;
      Fall
  | ADC ->
      let a = rd_int st ops.(0) and b = rd_int st ops.(1) in
      let c = if st.cf then 1L else 0L in
      let r = Int64.add (Int64.add a b) c in
      set_add_flags st a b r;
      wr_int st ops.(0) r;
      Fall
  | SUB ->
      let a = rd_int st ops.(0) and b = rd_int st ops.(1) in
      let r = Int64.sub a b in
      set_sub_flags st a b r;
      wr_int st ops.(0) r;
      Fall
  | SBB ->
      let a = rd_int st ops.(0) and b = rd_int st ops.(1) in
      let c = if st.cf then 1L else 0L in
      let r = Int64.sub (Int64.sub a b) c in
      set_sub_flags st a b r;
      wr_int st ops.(0) r;
      Fall
  | INC ->
      let r = Int64.add (rd_int st ops.(0)) 1L in
      set_zs st r;
      wr_int st ops.(0) r;
      Fall
  | DEC ->
      let r = Int64.sub (rd_int st ops.(0)) 1L in
      set_zs st r;
      wr_int st ops.(0) r;
      Fall
  | NEG ->
      let v = rd_int st ops.(0) in
      let r = Int64.neg v in
      set_zs st r;
      st.cf <- v <> 0L;
      wr_int st ops.(0) r;
      Fall
  | IMUL ->
      let a = rd_int st ops.(0) and b = rd_int st ops.(1) in
      let r = Int64.mul a b in
      set_zs st r;
      wr_int st ops.(0) r;
      Fall
  | MUL ->
      let a = State.get_gpr st Operand.RAX and b = rd_int st ops.(0) in
      let r = Int64.mul a b in
      set_zs st r;
      State.set_gpr st Operand.RAX r;
      State.set_gpr st Operand.RDX 0L;
      Fall
  | IDIV | DIV ->
      (* Division by zero is defined as 0/0 remainder to keep the machine
         total; workloads are written to avoid it. *)
      let a = State.get_gpr st Operand.RAX and b = rd_int st ops.(0) in
      let q, r =
        if b = 0L then (0L, 0L) else (Int64.div a b, Int64.rem a b)
      in
      State.set_gpr st Operand.RAX q;
      State.set_gpr st Operand.RDX r;
      set_zs st q;
      Fall
  | CDQ ->
      State.set_gpr st Operand.RDX
        (if State.get_gpr st Operand.RAX < 0L then -1L else 0L);
      Fall
  | CDQE ->
      let v = State.get_gpr st Operand.RAX in
      State.set_gpr st Operand.RAX
        (Int64.shift_right (Int64.shift_left v 32) 32);
      Fall
  (* ---- logic / compare / shift ---- *)
  | AND ->
      let r = Int64.logand (rd_int st ops.(0)) (rd_int st ops.(1)) in
      set_logic_flags st r;
      wr_int st ops.(0) r;
      Fall
  | OR ->
      let r = Int64.logor (rd_int st ops.(0)) (rd_int st ops.(1)) in
      set_logic_flags st r;
      wr_int st ops.(0) r;
      Fall
  | XOR ->
      let r = Int64.logxor (rd_int st ops.(0)) (rd_int st ops.(1)) in
      set_logic_flags st r;
      wr_int st ops.(0) r;
      Fall
  | NOT ->
      wr_int st ops.(0) (Int64.lognot (rd_int st ops.(0)));
      Fall
  | TEST ->
      set_logic_flags st (Int64.logand (rd_int st ops.(0)) (rd_int st ops.(1)));
      Fall
  | CMP ->
      let a = rd_int st ops.(0) and b = rd_int st ops.(1) in
      set_sub_flags st a b (Int64.sub a b);
      Fall
  | SHL ->
      let sh = Int64.to_int (rd_int st ops.(1)) land 63 in
      let r = Int64.shift_left (rd_int st ops.(0)) sh in
      set_zs st r;
      wr_int st ops.(0) r;
      Fall
  | SHR ->
      let sh = Int64.to_int (rd_int st ops.(1)) land 63 in
      let r = Int64.shift_right_logical (rd_int st ops.(0)) sh in
      set_zs st r;
      wr_int st ops.(0) r;
      Fall
  | SAR ->
      let sh = Int64.to_int (rd_int st ops.(1)) land 63 in
      let r = Int64.shift_right (rd_int st ops.(0)) sh in
      set_zs st r;
      wr_int st ops.(0) r;
      Fall
  | ROL ->
      let sh = Int64.to_int (rd_int st ops.(1)) land 63 in
      let v = rd_int st ops.(0) in
      let r =
        if sh = 0 then v
        else
          Int64.logor (Int64.shift_left v sh)
            (Int64.shift_right_logical v (64 - sh))
      in
      wr_int st ops.(0) r;
      Fall
  | ROR ->
      let sh = Int64.to_int (rd_int st ops.(1)) land 63 in
      let v = rd_int st ops.(0) in
      let r =
        if sh = 0 then v
        else
          Int64.logor
            (Int64.shift_right_logical v sh)
            (Int64.shift_left v (64 - sh))
      in
      wr_int st ops.(0) r;
      Fall
  (* ---- control flow ---- *)
  | JMP -> (
      match ops.(0) with
      | Operand.Rel _ -> Taken (branch_target node)
      | (Operand.Reg _ | Operand.Mem _) as op ->
          Taken (Int64.to_int (rd_int st op))
      | Operand.Imm v -> Taken (Int64.to_int v))
  | JZ | JNZ | JLE | JNLE | JL | JNL | JB | JNB | JBE | JNBE | JS | JNS ->
      if condition st i.mnemonic then Taken (branch_target node) else Fall
  | CALL_NEAR ->
      push st (Int64.of_int next_addr);
      (match ops.(0) with
      | Operand.Rel _ -> Taken (branch_target node)
      | (Operand.Reg _ | Operand.Mem _) as op ->
          Taken (Int64.to_int (rd_int st op))
      | Operand.Imm v -> Taken (Int64.to_int v))
  | RET_NEAR -> Taken (Int64.to_int (pop st))
  | SYSCALL -> Syscall_enter next_addr
  | SYSRET -> Sysret_exit (Int64.to_int (State.get_gpr st Operand.RCX))
  | HLT -> Halt
  (* ---- sync ---- *)
  | XADD | LOCK_XADD ->
      let a = rd_int st ops.(0) and b = rd_int st ops.(1) in
      wr_int st ops.(1) a;
      let r = Int64.add a b in
      set_zs st r;
      wr_int st ops.(0) r;
      Fall
  | CMPXCHG | LOCK_CMPXCHG ->
      let dest = rd_int st ops.(0) in
      let rax = State.get_gpr st Operand.RAX in
      if dest = rax then begin
        wr_int st ops.(0) (rd_int st ops.(1));
        st.zf <- true
      end
      else begin
        State.set_gpr st Operand.RAX dest;
        st.zf <- false
      end;
      Fall
  | MFENCE | LFENCE | SFENCE | PAUSE -> Fall
  | NOP -> Fall
  | CPUID ->
      State.set_gpr st Operand.RAX 0x306E4L;
      State.set_gpr st Operand.RBX 0L;
      State.set_gpr st Operand.RCX 0L;
      State.set_gpr st Operand.RDX 0L;
      Fall
  | RDTSC ->
      State.set_gpr st Operand.RAX
        (Int64.logand (Prng.next st.prng) 0x7FFFFFFFL);
      State.set_gpr st Operand.RDX 0L;
      Fall
  (* ---- x87 ---- *)
  | FLD -> (
      match ops.(0) with
      | Operand.Reg (Operand.St k) ->
          let v = State.x87_get st k in
          State.x87_push st v;
          Fall
      | Operand.Mem m ->
          State.x87_push st (load_f64 st.mem (State.effective_address st m));
          Fall
      | Operand.Reg _ | Operand.Imm _ | Operand.Rel _ -> fault "bad FLD operand")
  | FILD -> (
      match ops.(0) with
      | Operand.Mem m ->
          State.x87_push st
            (Int64.to_float (load_i64 st.mem (State.effective_address st m)));
          Fall
      | Operand.Reg _ | Operand.Imm _ | Operand.Rel _ -> fault "bad FILD operand")
  | FST | FSTP -> (
      let v = State.x87_get st 0 in
      (match ops.(0) with
      | Operand.Reg (Operand.St k) -> State.x87_set st k v
      | Operand.Mem m -> store_f64 st.mem (State.effective_address st m) v
      | Operand.Reg _ | Operand.Imm _ | Operand.Rel _ -> fault "bad FST operand");
      if Mnemonic.equal i.mnemonic FSTP then ignore (State.x87_pop st);
      Fall)
  | FISTP -> (
      match ops.(0) with
      | Operand.Mem m ->
          store_i64 st.mem (State.effective_address st m)
            (Int64.of_float (State.x87_get st 0));
          ignore (State.x87_pop st);
          Fall
      | Operand.Reg _ | Operand.Imm _ | Operand.Rel _ -> fault "bad FISTP operand")
  | FXCH -> (
      match ops.(0) with
      | Operand.Reg (Operand.St k) ->
          let a = State.x87_get st 0 and b = State.x87_get st k in
          State.x87_set st 0 b;
          State.x87_set st k a;
          Fall
      | Operand.Reg _ | Operand.Imm _ | Operand.Mem _ | Operand.Rel _ ->
          fault "bad FXCH operand")
  | FADD | FSUB | FMUL | FDIV ->
      let b = x87_rhs st i in
      State.x87_set st 0 (lane (lane_op_of i.mnemonic) (State.x87_get st 0) b);
      Fall
  | FSQRT ->
      State.x87_set st 0 (sqrt_abs (State.x87_get st 0));
      Fall
  | FABS ->
      State.x87_set st 0 (Float.abs (State.x87_get st 0));
      Fall
  | FCHS ->
      State.x87_set st 0 (-.State.x87_get st 0);
      Fall
  | FCOM | FCOMI ->
      let a = State.x87_get st 0 and b = x87_rhs st i in
      st.zf <- a = b;
      st.cf <- a < b;
      st.sf <- false;
      st.off <- false;
      Fall
  | FSIN ->
      State.x87_set st 0 (sin (State.x87_get st 0));
      Fall
  | FCOS ->
      State.x87_set st 0 (cos (State.x87_get st 0));
      Fall
  | FPTAN ->
      State.x87_set st 0 (tan (State.x87_get st 0));
      Fall
  | F2XM1 ->
      State.x87_set st 0 ((2.0 ** State.x87_get st 0) -. 1.0);
      Fall
  | FYL2X ->
      let x = State.x87_get st 0 in
      let y = State.x87_get st 1 in
      ignore (State.x87_pop st);
      State.x87_set st 0 (y *. (log (Float.abs x +. 1e-300) /. log 2.0));
      Fall
  (* ---- scalar SSE/AVX fp ---- *)
  | MOVSS | MOVSD | VMOVSS | VMOVSD ->
      let wide = is_wide i.mnemonic in
      wr_fp st ~wide ops.(0) (rd_fp st ~wide ops.(Array.length ops - 1));
      Fall
  | ADDSS | ADDSD | VADDSS | VADDSD | SUBSS | SUBSD | VSUBSS | MULSS | MULSD
  | VMULSS | VMULSD | DIVSS | DIVSD | VDIVSS | VDIVSD | MAXSS | MINSS ->
      fp_binop st i (lane_op_of i.mnemonic);
      Fall
  | SQRTSS | SQRTSD | VSQRTSD ->
      let wide = is_wide i.mnemonic in
      wr_fp st ~wide ops.(0)
        (sqrt_abs (rd_fp st ~wide ops.(Array.length ops - 1)));
      Fall
  | COMISS | COMISD | UCOMISS | UCOMISD | VUCOMISD | VCOMISS ->
      fp_compare st i;
      Fall
  | CVTSI2SS | CVTSI2SD | VCVTSI2SD ->
      let wide = is_wide i.mnemonic in
      wr_fp st ~wide ops.(0)
        (Int64.to_float (rd_int st ops.(Array.length ops - 1)));
      Fall
  | CVTSD2SI | CVTSS2SI | VCVTSD2SI ->
      let wide = is_wide i.mnemonic in
      wr_int st ops.(0)
        (Int64.of_float (Float.round (rd_fp st ~wide ops.(1))));
      Fall
  | CVTTSD2SI ->
      wr_int st ops.(0) (Int64.of_float (Float.trunc (rd_fp st ~wide:true ops.(1))));
      Fall
  | CVTSS2SD ->
      wr_fp st ~wide:true ops.(0) (rd_fp st ~wide:false ops.(1));
      Fall
  | CVTSD2SS ->
      wr_fp st ~wide:false ops.(0) (rd_fp st ~wide:true ops.(1));
      Fall
  (* ---- vector moves ---- *)
  | MOVAPS | MOVUPS | MOVAPD | MOVUPD | MOVDQA | MOVDQU
  | VMOVAPS | VMOVUPS | VMOVAPD | VMOVUPD ->
      let lanes = lanes_of i in
      let wide = is_wide i.mnemonic in
      wr_vec st ~wide ops.(0)
        (rd_vec st ~lanes ~wide ops.(Array.length ops - 1));
      Fall
  (* ---- packed arithmetic, logic (over lane bits) and integer ---- *)
  | ADDPS | ADDPD | VADDPS | VADDPD | SUBPS | SUBPD | VSUBPS | VSUBPD | MULPS
  | MULPD | VMULPS | VMULPD | DIVPS | DIVPD | VDIVPS | VDIVPD | MAXPS | VMAXPS
  | MINPS | VMINPS | CMPPS | ANDPS | ANDPD | PAND | VANDPS | VPAND | ORPS | POR
  | XORPS | XORPD | PXOR | VXORPS | VXORPD | VPXOR | PADDD | PADDQ | VPADDD
  | PSUBD | PMULLD | VPMULLD | PCMPEQD ->
      vec_binop st i (lane_op_of i.mnemonic);
      Fall
  | SQRTPS | SQRTPD | VSQRTPS | VSQRTPD ->
      vec_sqrt st i;
      Fall
  | PSLLD ->
      let sh = float_of_int (1 lsl (int_of_imm ops.(1) land 31)) in
      let lanes = lanes_of i in
      let a = rd_vec st ~lanes ~wide:false ops.(0) in
      wr_vec st ~wide:false ops.(0) (Array.map (fun v -> v *. sh) a);
      Fall
  | PSRLD ->
      let sh = float_of_int (1 lsl (int_of_imm ops.(1) land 31)) in
      let lanes = lanes_of i in
      let a = rd_vec st ~lanes ~wide:false ops.(0) in
      wr_vec st ~wide:false ops.(0) (Array.map (fun v -> v /. sh) a);
      Fall
  (* ---- shuffles ---- *)
  | SHUFPS | VSHUFPS ->
      let sel = int_of_imm ops.(Array.length ops - 1) in
      let d = rd_vec st ~lanes:4 ~wide:false ops.(0) in
      let s =
        rd_vec st ~lanes:4 ~wide:false
          ops.(if Array.length ops >= 4 then 2 else 1)
      in
      let r =
        [|
          d.(sel land 3);
          d.((sel lsr 2) land 3);
          s.((sel lsr 4) land 3);
          s.((sel lsr 6) land 3);
        |]
      in
      wr_vec st ~wide:false ops.(0) r;
      Fall
  | PSHUFD | VPERMILPS ->
      let sel = int_of_imm ops.(Array.length ops - 1) in
      let s = rd_vec st ~lanes:4 ~wide:false ops.(1) in
      let r = Array.init 4 (fun k -> s.((sel lsr (2 * k)) land 3)) in
      wr_vec st ~wide:false ops.(0) r;
      Fall
  | UNPCKLPS | PUNPCKLDQ ->
      let d = rd_vec st ~lanes:4 ~wide:false ops.(0) in
      let s = rd_vec st ~lanes:4 ~wide:false ops.(1) in
      wr_vec st ~wide:false ops.(0) [| d.(0); s.(0); d.(1); s.(1) |];
      Fall
  | UNPCKHPS ->
      let d = rd_vec st ~lanes:4 ~wide:false ops.(0) in
      let s = rd_vec st ~lanes:4 ~wide:false ops.(1) in
      wr_vec st ~wide:false ops.(0) [| d.(2); s.(2); d.(3); s.(3) |];
      Fall
  | MOVHLPS ->
      let d = rd_vec st ~lanes:4 ~wide:false ops.(0) in
      let s = rd_vec st ~lanes:4 ~wide:false ops.(1) in
      wr_vec st ~wide:false ops.(0) [| s.(2); s.(3); d.(2); d.(3) |];
      Fall
  | MOVLHPS ->
      let d = rd_vec st ~lanes:4 ~wide:false ops.(0) in
      let s = rd_vec st ~lanes:4 ~wide:false ops.(1) in
      wr_vec st ~wide:false ops.(0) [| d.(0); d.(1); s.(0); s.(1) |];
      Fall
  | VBROADCASTSS | VPBROADCASTD ->
      let v = rd_fp st ~wide:false ops.(1) in
      let lanes = State.lane_count (dest_reg i) (Mnemonic.element i.mnemonic) in
      wr_vec st ~wide:false ops.(0) (Array.make lanes v);
      Fall
  | VBROADCASTSD ->
      let v = rd_fp st ~wide:true ops.(1) in
      wr_vec st ~wide:true ops.(0) (Array.make 4 v);
      Fall
  | VINSERTF128 ->
      let which = int_of_imm ops.(Array.length ops - 1) land 1 in
      let a = rd_vec st ~lanes:8 ~wide:false ops.(1) in
      let b = rd_vec st ~lanes:4 ~wide:false ops.(2) in
      let r = Array.copy a in
      Array.blit b 0 r (which * 4) 4;
      wr_vec st ~wide:false ops.(0) r;
      Fall
  | VEXTRACTF128 ->
      let which = int_of_imm ops.(Array.length ops - 1) land 1 in
      let s = rd_vec st ~lanes:8 ~wide:false ops.(1) in
      wr_vec st ~wide:false ops.(0) (Array.sub s (which * 4) 4);
      Fall
  | VPERM2F128 ->
      let sel = int_of_imm ops.(Array.length ops - 1) in
      let a = rd_vec st ~lanes:8 ~wide:false ops.(1) in
      let b = rd_vec st ~lanes:8 ~wide:false ops.(2) in
      let half src which = Array.sub src (which * 4) 4 in
      let pick nib =
        if nib land 2 = 0 then half a (nib land 1) else half b (nib land 1)
      in
      let r = Array.append (pick (sel land 3)) (pick ((sel lsr 4) land 3)) in
      wr_vec st ~wide:false ops.(0) r;
      Fall
  | VGATHERDPS -> (
      match (ops.(1), ops.(2)) with
      | Operand.Mem m, Operand.Reg ((Operand.Xmm _ | Operand.Ymm _) as idx) ->
          let base = State.effective_address st m in
          let lanes = State.lane_count (dest_reg i) Mnemonic.Fp32 in
          let indices = st.vregs.(State.vreg_index idx) in
          let r =
            Array.init lanes (fun k ->
                load_f32 st.mem (base + (4 * int_of_float indices.(k))))
          in
          wr_vec st ~wide:false ops.(0) r;
          Fall
      | _, _ -> fault "VGATHERDPS expects (dst, mem, index-reg)")
  | VZEROUPPER ->
      Array.iter (fun v -> Array.fill v 4 4 0.0) st.vregs;
      Fall
  | VZEROALL ->
      Array.iter (fun v -> Array.fill v 0 8 0.0) st.vregs;
      Fall
  (* ---- FMA ---- *)
  | VFMADD213PS | VFMADD213PD ->
      (* dst := src1 * dst + src2 *)
      let lanes = lanes_of i in
      let wide = is_wide i.mnemonic in
      let d = rd_vec st ~lanes ~wide ops.(0) in
      let a = rd_vec st ~lanes ~wide ops.(1) in
      let b = rd_vec st ~lanes ~wide ops.(2) in
      wr_vec st ~wide ops.(0)
        (Array.init lanes (fun k -> (a.(k) *. d.(k)) +. b.(k)));
      Fall
  | VFMADD231SS | VFMADD231SD ->
      (* dst := src1 * src2 + dst *)
      let wide = is_wide i.mnemonic in
      let d = rd_fp st ~wide ops.(0) in
      let a = rd_fp st ~wide ops.(1) in
      let b = rd_fp st ~wide ops.(2) in
      wr_fp st ~wide ops.(0) ((a *. b) +. d);
      Fall

(* ------------------------------------------------------------------ *)
(* Compiled instruction kernels.

   [compile node] pre-resolves everything [step] re-derives on every
   execution — the mnemonic dispatch, operand constructor matches,
   register codes, effective-address shapes, immediates, lane counts
   and direct branch targets — into one specialized closure.  The
   closures compute {e exactly} the state transitions of [step], in the
   same order, so a run through compiled kernels is bit-identical to a
   stepped run.

   [step] and [compile_flat] are the only two semantics.  The
   specializer covers the mnemonic/operand shapes the bundled workloads
   retire, and no others: anything else (rare forms, most cross-lane
   shuffles, transcendentals, malformed operand lists) runs through a
   [step] thunk, which also preserves the exact fault behaviour of the
   reference.  [bench executor] gates the share of registry retirements
   that take the thunk. *)

(* Pre-resolved effective address: register codes and displacement are
   baked in; only the register file is read at execution. *)
let compile_ea (m : Operand.mem) =
  let b = Operand.gpr_code m.Operand.base in
  let disp = m.Operand.disp in
  match m.Operand.index with
  | None -> fun (st : State.t) ->
      Int64.to_int (Bigarray.Array1.unsafe_get st.gprs b) + disp
  | Some ix ->
      let x = Operand.gpr_code ix in
      let scale = m.Operand.scale in
      fun (st : State.t) ->
        Int64.to_int (Bigarray.Array1.unsafe_get st.gprs b)
        + (Int64.to_int (Bigarray.Array1.unsafe_get st.gprs x) * scale)
        + disp

(* Per-lane vector binop over registers (SSE two-operand and AVX
   three-operand forms).  Writing lane [k] before reading lane [k+1] is
   equivalent to [vec_binop]'s copy-then-write because no binop reads
   across lanes and register aliasing is lane-independent. *)
let compile_vec_binop (node : Exec_graph.node) (op : lane_op) :
    (State.t -> control) option =
  let i = node.instr in
  let lanes = lanes_of i in
  match i.operands with
  | [| Operand.Reg (Operand.Xmm d | Operand.Ymm d);
       Operand.Reg (Operand.Xmm s | Operand.Ymm s) |] ->
      Some
        (fun (st : State.t) ->
          let dv = Array.unsafe_get st.vregs d
          and sv = Array.unsafe_get st.vregs s in
          for k = 0 to lanes - 1 do
            Array.unsafe_set dv k
              (lane op (Array.unsafe_get dv k) (Array.unsafe_get sv k))
          done;
          Fall)
  | [| Operand.Reg (Operand.Xmm d | Operand.Ymm d);
       Operand.Reg (Operand.Xmm s1 | Operand.Ymm s1);
       Operand.Reg (Operand.Xmm s2 | Operand.Ymm s2) |] ->
      Some
        (fun st ->
          let dv = Array.unsafe_get st.vregs d
          and av = Array.unsafe_get st.vregs s1
          and bv = Array.unsafe_get st.vregs s2 in
          for k = 0 to lanes - 1 do
            Array.unsafe_set dv k
              (lane op (Array.unsafe_get av k) (Array.unsafe_get bv k))
          done;
          Fall)
  | _ -> None

let compile_vec_sqrt (node : Exec_graph.node) : (State.t -> control) option =
  let i = node.instr in
  let lanes = lanes_of i in
  match i.operands with
  | [| Operand.Reg (Operand.Xmm d | Operand.Ymm d);
       Operand.Reg (Operand.Xmm s | Operand.Ymm s) |] ->
      Some
        (fun (st : State.t) ->
          let dv = Array.unsafe_get st.vregs d
          and sv = Array.unsafe_get st.vregs s in
          for k = 0 to lanes - 1 do
            Array.unsafe_set dv k (sqrt_abs (Array.unsafe_get sv k))
          done;
          Fall)
  | _ -> None

(* Vector register/memory moves (MOVAPS family).  The lane width is
   chosen outside the lane loop; memory lanes go one by one, so a
   partly unmapped access faults at the first bad lane, as in [step]. *)
let compile_vec_mov (node : Exec_graph.node) : (State.t -> control) option =
  let i = node.instr in
  let lanes = lanes_of i in
  let wide = is_wide i.mnemonic in
  match i.operands with
  | [| Operand.Reg (Operand.Xmm d | Operand.Ymm d);
       Operand.Reg (Operand.Xmm s | Operand.Ymm s) |] ->
      Some
        (fun (st : State.t) ->
          Array.blit
            (Array.unsafe_get st.vregs s)
            0
            (Array.unsafe_get st.vregs d)
            0 lanes;
          Fall)
  | [| Operand.Reg (Operand.Xmm d | Operand.Ymm d); Operand.Mem m |] ->
      let ea = compile_ea m in
      if wide then
        Some
          (fun st ->
            let dv = Array.unsafe_get st.vregs d and a = ea st in
            for k = 0 to lanes - 1 do
              Array.unsafe_set dv k (load_f64 st.mem (a + (8 * k)))
            done;
            Fall)
      else
        Some
          (fun st ->
            let dv = Array.unsafe_get st.vregs d and a = ea st in
            for k = 0 to lanes - 1 do
              Array.unsafe_set dv k (load_f32 st.mem (a + (4 * k)))
            done;
            Fall)
  | [| Operand.Mem m; Operand.Reg (Operand.Xmm s | Operand.Ymm s) |] ->
      let ea = compile_ea m in
      if wide then
        Some
          (fun st ->
            let sv = Array.unsafe_get st.vregs s and a = ea st in
            for k = 0 to lanes - 1 do
              store_f64 st.mem (a + (8 * k)) (Array.unsafe_get sv k)
            done;
            Fall)
      else
        Some
          (fun st ->
            let sv = Array.unsafe_get st.vregs s and a = ea st in
            for k = 0 to lanes - 1 do
              store_f32 st.mem (a + (4 * k)) (Array.unsafe_get sv k)
            done;
            Fall)
  | _ -> None

let some (f : State.t -> control) = Some f

(* ------------------------------------------------------------------ *)
(* Flat kernels.

   Each scalar kernel is one closure whose whole read/compute/flags/
   write sequence stays inside one function body, where the compiler
   keeps every intermediate unboxed.  Assembling kernels from small
   read/write closures instead would re-box every [int64] or [float]
   crossing a closure boundary (one minor allocation each): three
   allocations per register-register ALU op and a helper call per flag
   group.  Flag updates are written out inline and are field-for-field
   those of [set_add_flags]/[set_sub_flags]/[set_logic_flags]/[set_zs].
   Memory goes through the inlined [load_*]/[store_*] helpers and FP
   arithmetic through the inlined [lane], for the same reason: a
   function passed as a value, or one in another module, is a call
   that boxes.  Packed forms loop over lanes through the helpers
   above. *)

module BA = Bigarray.Array1

let rsp_code = Operand.gpr_code Operand.RSP
and rax_code = Operand.gpr_code Operand.RAX
and rcx_code = Operand.gpr_code Operand.RCX
and rdx_code = Operand.gpr_code Operand.RDX

let direct_target_of (node : Exec_graph.node) =
  match node.target with
  | Some t -> Some t.Exec_graph.addr
  | None -> (
      match Instruction.rel_displacement node.instr with
      | Some disp -> Some (node.addr + node.len + disp)
      | None -> None)

let compile_flat (node : Exec_graph.node) : (State.t -> control) option =
  let i = node.instr in
  let ops = i.operands in
  match (i.mnemonic, ops) with
  (* ---- data transfer ---- *)
  | MOV, [| Operand.Reg (Operand.Gpr d); Operand.Reg (Operand.Gpr s) |] ->
      let dc = Operand.gpr_code d and sc = Operand.gpr_code s in
      some (fun st ->
          BA.unsafe_set st.gprs dc (BA.unsafe_get st.gprs sc);
          Fall)
  | MOV, [| Operand.Reg (Operand.Gpr d); Operand.Imm v |] ->
      let dc = Operand.gpr_code d in
      some (fun st -> BA.unsafe_set st.gprs dc v; Fall)
  | MOV, [| Operand.Reg (Operand.Gpr d); Operand.Mem m |] ->
      let dc = Operand.gpr_code d and ea = compile_ea m in
      some (fun st ->
          BA.unsafe_set st.gprs dc (load_i64 st.mem (ea st));
          Fall)
  | MOV, [| Operand.Mem m; Operand.Reg (Operand.Gpr s) |] ->
      let sc = Operand.gpr_code s and ea = compile_ea m in
      some (fun st ->
          store_i64 st.mem (ea st) (BA.unsafe_get st.gprs sc);
          Fall)
  | MOV, [| Operand.Mem m; Operand.Imm v |] ->
      let ea = compile_ea m in
      some (fun st -> store_i64 st.mem (ea st) v; Fall)
  | MOVZX, [| Operand.Reg (Operand.Gpr d); Operand.Reg (Operand.Gpr s) |] ->
      let dc = Operand.gpr_code d and sc = Operand.gpr_code s in
      some (fun st ->
          BA.unsafe_set st.gprs dc
            (Int64.logand (BA.unsafe_get st.gprs sc) 0xFFFFL);
          Fall)
  | MOVSXD, [| Operand.Reg (Operand.Gpr d); Operand.Reg (Operand.Gpr s) |] ->
      let dc = Operand.gpr_code d and sc = Operand.gpr_code s in
      some (fun st ->
          BA.unsafe_set st.gprs dc
            (Int64.shift_right
               (Int64.shift_left (BA.unsafe_get st.gprs sc) 32)
               32);
          Fall)
  | MOVSXD, [| Operand.Reg (Operand.Gpr d); Operand.Mem m |] ->
      let dc = Operand.gpr_code d and ea = compile_ea m in
      some (fun st ->
          BA.unsafe_set st.gprs dc
            (Int64.shift_right
               (Int64.shift_left (load_i64 st.mem (ea st)) 32)
               32);
          Fall)
  | LEA, [| Operand.Reg (Operand.Gpr d); Operand.Mem m |] -> (
      let dc = Operand.gpr_code d in
      let b = Operand.gpr_code m.Operand.base and disp = m.Operand.disp in
      match m.Operand.index with
      | None ->
          some (fun st ->
              BA.unsafe_set st.gprs dc
                (Int64.of_int
                   (Int64.to_int (BA.unsafe_get st.gprs b) + disp));
              Fall)
      | Some ix ->
          let x = Operand.gpr_code ix and scale = m.Operand.scale in
          some (fun st ->
              BA.unsafe_set st.gprs dc
                (Int64.of_int
                   (Int64.to_int (BA.unsafe_get st.gprs b)
                   + (Int64.to_int (BA.unsafe_get st.gprs x) * scale)
                   + disp));
              Fall))
  | CMOVZ, [| Operand.Reg (Operand.Gpr d); Operand.Reg (Operand.Gpr s) |] ->
      let dc = Operand.gpr_code d and sc = Operand.gpr_code s in
      some (fun st ->
          if st.zf then BA.unsafe_set st.gprs dc (BA.unsafe_get st.gprs sc);
          Fall)
  | CMOVNZ, [| Operand.Reg (Operand.Gpr d); Operand.Reg (Operand.Gpr s) |] ->
      let dc = Operand.gpr_code d and sc = Operand.gpr_code s in
      some (fun st ->
          if not st.zf then
            BA.unsafe_set st.gprs dc (BA.unsafe_get st.gprs sc);
          Fall)
  | SETZ, [| Operand.Reg (Operand.Gpr d) |] ->
      let dc = Operand.gpr_code d in
      some (fun st ->
          BA.unsafe_set st.gprs dc (if st.zf then 1L else 0L);
          Fall)
  | SETNZ, [| Operand.Reg (Operand.Gpr d) |] ->
      let dc = Operand.gpr_code d in
      some (fun st ->
          BA.unsafe_set st.gprs dc (if st.zf then 0L else 1L);
          Fall)
  | SETLE, [| Operand.Reg (Operand.Gpr d) |] ->
      let dc = Operand.gpr_code d in
      some (fun st ->
          BA.unsafe_set st.gprs dc
            (if st.zf || st.sf <> st.off then 1L else 0L);
          Fall)
  (* ---- stack ---- *)
  | PUSH, [| Operand.Reg (Operand.Gpr s) |] ->
      (* The value is read first: PUSH RSP stores the old stack pointer. *)
      let sc = Operand.gpr_code s in
      some (fun st ->
          let v = BA.unsafe_get st.gprs sc in
          let rsp = Int64.sub (BA.unsafe_get st.gprs rsp_code) 8L in
          BA.unsafe_set st.gprs rsp_code rsp;
          store_i64 st.mem (Int64.to_int rsp) v;
          Fall)
  | PUSH, [| Operand.Imm v |] ->
      some (fun st ->
          let rsp = Int64.sub (BA.unsafe_get st.gprs rsp_code) 8L in
          BA.unsafe_set st.gprs rsp_code rsp;
          store_i64 st.mem (Int64.to_int rsp) v;
          Fall)
  | POP, [| Operand.Reg (Operand.Gpr d) |] ->
      let dc = Operand.gpr_code d in
      some (fun st ->
          let rsp = BA.unsafe_get st.gprs rsp_code in
          let v = load_i64 st.mem (Int64.to_int rsp) in
          BA.unsafe_set st.gprs rsp_code (Int64.add rsp 8L);
          BA.unsafe_set st.gprs dc v;
          Fall)
  | RET_NEAR, [||] ->
      some (fun st ->
          let rsp = BA.unsafe_get st.gprs rsp_code in
          let v = load_i64 st.mem (Int64.to_int rsp) in
          BA.unsafe_set st.gprs rsp_code (Int64.add rsp 8L);
          Taken (Int64.to_int v))
  | CALL_NEAR, [| Operand.Rel _ |] -> (
      match direct_target_of node with
      | Some tgt ->
          let ra = Int64.of_int (node.addr + node.len) in
          let tk = Taken tgt in
          some (fun st ->
              let rsp = Int64.sub (BA.unsafe_get st.gprs rsp_code) 8L in
              BA.unsafe_set st.gprs rsp_code rsp;
              store_i64 st.mem (Int64.to_int rsp) ra;
              tk)
      | None -> None)
  | CALL_NEAR, [| Operand.Reg (Operand.Gpr s) |] ->
      let sc = Operand.gpr_code s in
      let ra = Int64.of_int (node.addr + node.len) in
      some (fun st ->
          let rsp = Int64.sub (BA.unsafe_get st.gprs rsp_code) 8L in
          BA.unsafe_set st.gprs rsp_code rsp;
          store_i64 st.mem (Int64.to_int rsp) ra;
          Taken (Int64.to_int (BA.unsafe_get st.gprs sc)))
  | SYSCALL, [||] ->
      let c = Syscall_enter (node.addr + node.len) in
      some (fun _ -> c)
  | SYSRET, [||] ->
      some (fun st ->
          Sysret_exit (Int64.to_int (BA.unsafe_get st.gprs rcx_code)))
  (* The kernel's live probe site: a NOP as long as the JMP it replaces. *)
  | NOP, [| Operand.Rel _ |] -> some (fun _ -> Fall)
  (* ---- integer ALU, inline flags ---- *)
  | ADD, [| Operand.Reg (Operand.Gpr d); Operand.Reg (Operand.Gpr s) |] ->
      let dc = Operand.gpr_code d and sc = Operand.gpr_code s in
      some (fun st ->
          let a = BA.unsafe_get st.gprs dc
          and b = BA.unsafe_get st.gprs sc in
          let r = Int64.add a b in
          st.zf <- r = 0L;
          st.sf <- r < 0L;
          st.cf <- Int64.logxor r Int64.min_int < Int64.logxor a Int64.min_int;
          let sa = a < 0L and sb = b < 0L and sr = r < 0L in
          st.off <- sa = sb && sr <> sa;
          BA.unsafe_set st.gprs dc r;
          Fall)
  | ADD, [| Operand.Reg (Operand.Gpr d); Operand.Imm b |] ->
      let dc = Operand.gpr_code d in
      let sb = b < 0L in
      some (fun st ->
          let a = BA.unsafe_get st.gprs dc in
          let r = Int64.add a b in
          st.zf <- r = 0L;
          st.sf <- r < 0L;
          st.cf <- Int64.logxor r Int64.min_int < Int64.logxor a Int64.min_int;
          let sa = a < 0L and sr = r < 0L in
          st.off <- sa = sb && sr <> sa;
          BA.unsafe_set st.gprs dc r;
          Fall)
  | ADD, [| Operand.Reg (Operand.Gpr d); Operand.Mem m |] ->
      let dc = Operand.gpr_code d and ea = compile_ea m in
      some (fun st ->
          let a = BA.unsafe_get st.gprs dc in
          let b = load_i64 st.mem (ea st) in
          let r = Int64.add a b in
          st.zf <- r = 0L;
          st.sf <- r < 0L;
          st.cf <- Int64.logxor r Int64.min_int < Int64.logxor a Int64.min_int;
          let sa = a < 0L and sb = b < 0L and sr = r < 0L in
          st.off <- sa = sb && sr <> sa;
          BA.unsafe_set st.gprs dc r;
          Fall)
  | SUB, [| Operand.Reg (Operand.Gpr d); Operand.Reg (Operand.Gpr s) |] ->
      let dc = Operand.gpr_code d and sc = Operand.gpr_code s in
      some (fun st ->
          let a = BA.unsafe_get st.gprs dc
          and b = BA.unsafe_get st.gprs sc in
          let r = Int64.sub a b in
          st.zf <- r = 0L;
          st.sf <- r < 0L;
          st.cf <- Int64.logxor a Int64.min_int < Int64.logxor b Int64.min_int;
          let sa = a < 0L and sb = b < 0L and sr = r < 0L in
          st.off <- sa <> sb && sr <> sa;
          BA.unsafe_set st.gprs dc r;
          Fall)
  | SUB, [| Operand.Reg (Operand.Gpr d); Operand.Imm b |] ->
      let dc = Operand.gpr_code d in
      let sb = b < 0L and xb = Int64.logxor b Int64.min_int in
      some (fun st ->
          let a = BA.unsafe_get st.gprs dc in
          let r = Int64.sub a b in
          st.zf <- r = 0L;
          st.sf <- r < 0L;
          st.cf <- Int64.logxor a Int64.min_int < xb;
          let sa = a < 0L and sr = r < 0L in
          st.off <- sa <> sb && sr <> sa;
          BA.unsafe_set st.gprs dc r;
          Fall)
  | SUB, [| Operand.Reg (Operand.Gpr d); Operand.Mem m |] ->
      let dc = Operand.gpr_code d and ea = compile_ea m in
      some (fun st ->
          let a = BA.unsafe_get st.gprs dc in
          let b = load_i64 st.mem (ea st) in
          let r = Int64.sub a b in
          st.zf <- r = 0L;
          st.sf <- r < 0L;
          st.cf <- Int64.logxor a Int64.min_int < Int64.logxor b Int64.min_int;
          let sa = a < 0L and sb = b < 0L and sr = r < 0L in
          st.off <- sa <> sb && sr <> sa;
          BA.unsafe_set st.gprs dc r;
          Fall)
  | CMP, [| Operand.Reg (Operand.Gpr d); Operand.Reg (Operand.Gpr s) |] ->
      let dc = Operand.gpr_code d and sc = Operand.gpr_code s in
      some (fun st ->
          let a = BA.unsafe_get st.gprs dc
          and b = BA.unsafe_get st.gprs sc in
          let r = Int64.sub a b in
          st.zf <- r = 0L;
          st.sf <- r < 0L;
          st.cf <- Int64.logxor a Int64.min_int < Int64.logxor b Int64.min_int;
          let sa = a < 0L and sb = b < 0L and sr = r < 0L in
          st.off <- sa <> sb && sr <> sa;
          Fall)
  | CMP, [| Operand.Reg (Operand.Gpr d); Operand.Imm b |] ->
      let dc = Operand.gpr_code d in
      let sb = b < 0L and xb = Int64.logxor b Int64.min_int in
      some (fun st ->
          let a = BA.unsafe_get st.gprs dc in
          let r = Int64.sub a b in
          st.zf <- r = 0L;
          st.sf <- r < 0L;
          st.cf <- Int64.logxor a Int64.min_int < xb;
          let sa = a < 0L and sr = r < 0L in
          st.off <- sa <> sb && sr <> sa;
          Fall)
  | CMP, [| Operand.Reg (Operand.Gpr d); Operand.Mem m |] ->
      let dc = Operand.gpr_code d and ea = compile_ea m in
      some (fun st ->
          let a = BA.unsafe_get st.gprs dc in
          let b = load_i64 st.mem (ea st) in
          let r = Int64.sub a b in
          st.zf <- r = 0L;
          st.sf <- r < 0L;
          st.cf <- Int64.logxor a Int64.min_int < Int64.logxor b Int64.min_int;
          let sa = a < 0L and sb = b < 0L and sr = r < 0L in
          st.off <- sa <> sb && sr <> sa;
          Fall)
  | CMP, [| Operand.Mem m; Operand.Imm b |] ->
      let ea = compile_ea m in
      let sb = b < 0L and xb = Int64.logxor b Int64.min_int in
      some (fun st ->
          let a = load_i64 st.mem (ea st) in
          let r = Int64.sub a b in
          st.zf <- r = 0L;
          st.sf <- r < 0L;
          st.cf <- Int64.logxor a Int64.min_int < xb;
          let sa = a < 0L and sr = r < 0L in
          st.off <- sa <> sb && sr <> sa;
          Fall)
  | TEST, [| Operand.Reg (Operand.Gpr d); Operand.Reg (Operand.Gpr s) |] ->
      let dc = Operand.gpr_code d and sc = Operand.gpr_code s in
      some (fun st ->
          let r =
            Int64.logand (BA.unsafe_get st.gprs dc)
              (BA.unsafe_get st.gprs sc)
          in
          st.zf <- r = 0L;
          st.sf <- r < 0L;
          st.cf <- false;
          st.off <- false;
          Fall)
  | TEST, [| Operand.Reg (Operand.Gpr d); Operand.Imm b |] ->
      let dc = Operand.gpr_code d in
      some (fun st ->
          let r = Int64.logand (BA.unsafe_get st.gprs dc) b in
          st.zf <- r = 0L;
          st.sf <- r < 0L;
          st.cf <- false;
          st.off <- false;
          Fall)
  | AND, [| Operand.Reg (Operand.Gpr d); Operand.Reg (Operand.Gpr s) |] ->
      let dc = Operand.gpr_code d and sc = Operand.gpr_code s in
      some (fun st ->
          let r =
            Int64.logand (BA.unsafe_get st.gprs dc)
              (BA.unsafe_get st.gprs sc)
          in
          st.zf <- r = 0L;
          st.sf <- r < 0L;
          st.cf <- false;
          st.off <- false;
          BA.unsafe_set st.gprs dc r;
          Fall)
  | AND, [| Operand.Reg (Operand.Gpr d); Operand.Imm b |] ->
      let dc = Operand.gpr_code d in
      some (fun st ->
          let r = Int64.logand (BA.unsafe_get st.gprs dc) b in
          st.zf <- r = 0L;
          st.sf <- r < 0L;
          st.cf <- false;
          st.off <- false;
          BA.unsafe_set st.gprs dc r;
          Fall)
  | OR, [| Operand.Reg (Operand.Gpr d); Operand.Reg (Operand.Gpr s) |] ->
      let dc = Operand.gpr_code d and sc = Operand.gpr_code s in
      some (fun st ->
          let r =
            Int64.logor (BA.unsafe_get st.gprs dc) (BA.unsafe_get st.gprs sc)
          in
          st.zf <- r = 0L;
          st.sf <- r < 0L;
          st.cf <- false;
          st.off <- false;
          BA.unsafe_set st.gprs dc r;
          Fall)
  | OR, [| Operand.Reg (Operand.Gpr d); Operand.Imm b |] ->
      let dc = Operand.gpr_code d in
      some (fun st ->
          let r = Int64.logor (BA.unsafe_get st.gprs dc) b in
          st.zf <- r = 0L;
          st.sf <- r < 0L;
          st.cf <- false;
          st.off <- false;
          BA.unsafe_set st.gprs dc r;
          Fall)
  | XOR, [| Operand.Reg (Operand.Gpr d); Operand.Reg (Operand.Gpr s) |] ->
      let dc = Operand.gpr_code d and sc = Operand.gpr_code s in
      some (fun st ->
          let r =
            Int64.logxor (BA.unsafe_get st.gprs dc)
              (BA.unsafe_get st.gprs sc)
          in
          st.zf <- r = 0L;
          st.sf <- r < 0L;
          st.cf <- false;
          st.off <- false;
          BA.unsafe_set st.gprs dc r;
          Fall)
  | XOR, [| Operand.Reg (Operand.Gpr d); Operand.Imm b |] ->
      let dc = Operand.gpr_code d in
      some (fun st ->
          let r = Int64.logxor (BA.unsafe_get st.gprs dc) b in
          st.zf <- r = 0L;
          st.sf <- r < 0L;
          st.cf <- false;
          st.off <- false;
          BA.unsafe_set st.gprs dc r;
          Fall)
  | INC, [| Operand.Reg (Operand.Gpr d) |] ->
      let dc = Operand.gpr_code d in
      some (fun st ->
          let r = Int64.add (BA.unsafe_get st.gprs dc) 1L in
          st.zf <- r = 0L;
          st.sf <- r < 0L;
          BA.unsafe_set st.gprs dc r;
          Fall)
  | DEC, [| Operand.Reg (Operand.Gpr d) |] ->
      let dc = Operand.gpr_code d in
      some (fun st ->
          let r = Int64.sub (BA.unsafe_get st.gprs dc) 1L in
          st.zf <- r = 0L;
          st.sf <- r < 0L;
          BA.unsafe_set st.gprs dc r;
          Fall)
  | NEG, [| Operand.Reg (Operand.Gpr d) |] ->
      let dc = Operand.gpr_code d in
      some (fun st ->
          let v = BA.unsafe_get st.gprs dc in
          let r = Int64.neg v in
          st.zf <- r = 0L;
          st.sf <- r < 0L;
          st.cf <- v <> 0L;
          BA.unsafe_set st.gprs dc r;
          Fall)
  | NOT, [| Operand.Reg (Operand.Gpr d) |] ->
      let dc = Operand.gpr_code d in
      some (fun st ->
          BA.unsafe_set st.gprs dc
            (Int64.lognot (BA.unsafe_get st.gprs dc));
          Fall)
  | IMUL, [| Operand.Reg (Operand.Gpr d); Operand.Reg (Operand.Gpr s) |] ->
      let dc = Operand.gpr_code d and sc = Operand.gpr_code s in
      some (fun st ->
          let r =
            Int64.mul (BA.unsafe_get st.gprs dc) (BA.unsafe_get st.gprs sc)
          in
          st.zf <- r = 0L;
          st.sf <- r < 0L;
          BA.unsafe_set st.gprs dc r;
          Fall)
  | IMUL, [| Operand.Reg (Operand.Gpr d); Operand.Mem m |] ->
      let dc = Operand.gpr_code d and ea = compile_ea m in
      some (fun st ->
          let r =
            Int64.mul (BA.unsafe_get st.gprs dc)
              (load_i64 st.mem (ea st))
          in
          st.zf <- r = 0L;
          st.sf <- r < 0L;
          BA.unsafe_set st.gprs dc r;
          Fall)
  | DIV, [| Operand.Reg (Operand.Gpr s) |] ->
      (* Division by zero yields 0/0 remainder, as in [step]. *)
      let sc = Operand.gpr_code s in
      some (fun st ->
          let a = BA.unsafe_get st.gprs rax_code
          and b = BA.unsafe_get st.gprs sc in
          let q = if b = 0L then 0L else Int64.div a b in
          let r = if b = 0L then 0L else Int64.rem a b in
          BA.unsafe_set st.gprs rax_code q;
          BA.unsafe_set st.gprs rdx_code r;
          st.zf <- q = 0L;
          st.sf <- q < 0L;
          Fall)
  | CDQE, [||] ->
      some (fun st ->
          BA.unsafe_set st.gprs rax_code
            (Int64.shift_right
               (Int64.shift_left (BA.unsafe_get st.gprs rax_code) 32)
               32);
          Fall)
  | SHL, [| Operand.Reg (Operand.Gpr d); Operand.Imm v |] ->
      let dc = Operand.gpr_code d in
      let sh = Int64.to_int v land 63 in
      some (fun st ->
          let r = Int64.shift_left (BA.unsafe_get st.gprs dc) sh in
          st.zf <- r = 0L;
          st.sf <- r < 0L;
          BA.unsafe_set st.gprs dc r;
          Fall)
  | SHR, [| Operand.Reg (Operand.Gpr d); Operand.Imm v |] ->
      let dc = Operand.gpr_code d in
      let sh = Int64.to_int v land 63 in
      some (fun st ->
          let r = Int64.shift_right_logical (BA.unsafe_get st.gprs dc) sh in
          st.zf <- r = 0L;
          st.sf <- r < 0L;
          BA.unsafe_set st.gprs dc r;
          Fall)
  | SAR, [| Operand.Reg (Operand.Gpr d); Operand.Imm v |] ->
      let dc = Operand.gpr_code d in
      let sh = Int64.to_int v land 63 in
      some (fun st ->
          let r = Int64.shift_right (BA.unsafe_get st.gprs dc) sh in
          st.zf <- r = 0L;
          st.sf <- r < 0L;
          BA.unsafe_set st.gprs dc r;
          Fall)
  (* ---- conditional branches, condition inlined per mnemonic ---- *)
  | ( (JZ | JNZ | JLE | JNLE | JL | JNL | JB | JNB | JBE | JNBE | JS | JNS),
      [| Operand.Rel _ |] )
    -> (
      match direct_target_of node with
      | None -> None
      | Some tgt -> (
          let tk = Taken tgt in
          match i.mnemonic with
          | JZ -> some (fun st -> if st.zf then tk else Fall)
          | JNZ -> some (fun st -> if st.zf then Fall else tk)
          | JLE ->
              some (fun st -> if st.zf || st.sf <> st.off then tk else Fall)
          | JNLE ->
              some (fun st ->
                  if (not st.zf) && st.sf = st.off then tk else Fall)
          | JL -> some (fun st -> if st.sf <> st.off then tk else Fall)
          | JNL -> some (fun st -> if st.sf = st.off then tk else Fall)
          | JB -> some (fun st -> if st.cf then tk else Fall)
          | JNB -> some (fun st -> if st.cf then Fall else tk)
          | JBE -> some (fun st -> if st.cf || st.zf then tk else Fall)
          | JNBE ->
              some (fun st -> if (not st.cf) && not st.zf then tk else Fall)
          | JS -> some (fun st -> if st.sf then tk else Fall)
          | _ -> some (fun st -> if st.sf then Fall else tk)))
  (* ---- x87 stack forms, register file inlined ---- *)
  | FLD, [| Operand.Reg (Operand.St k) |] ->
      some (fun st ->
          let v = Array.unsafe_get st.x87 ((st.x87_top + k) land 7) in
          let top = (st.x87_top - 1) land 7 in
          st.x87_top <- top;
          Array.unsafe_set st.x87 top v;
          Fall)
  | FLD, [| Operand.Mem m |] ->
      let ea = compile_ea m in
      some (fun st ->
          let v = load_f64 st.mem (ea st) in
          let top = (st.x87_top - 1) land 7 in
          st.x87_top <- top;
          Array.unsafe_set st.x87 top v;
          Fall)
  | (FST | FSTP), [| Operand.Reg (Operand.St k) |] ->
      let pops = Mnemonic.equal i.mnemonic FSTP in
      some (fun st ->
          let top = st.x87_top in
          Array.unsafe_set st.x87
            ((top + k) land 7)
            (Array.unsafe_get st.x87 top);
          if pops then st.x87_top <- (top + 1) land 7;
          Fall)
  | (FST | FSTP), [| Operand.Mem m |] ->
      let pops = Mnemonic.equal i.mnemonic FSTP in
      let ea = compile_ea m in
      some (fun st ->
          let top = st.x87_top in
          store_f64 st.mem (ea st) (Array.unsafe_get st.x87 top);
          if pops then st.x87_top <- (top + 1) land 7;
          Fall)
  | FXCH, [| Operand.Reg (Operand.St k) |] ->
      some (fun st ->
          let top = st.x87_top in
          let j = (top + k) land 7 in
          let a = Array.unsafe_get st.x87 top
          and b = Array.unsafe_get st.x87 j in
          Array.unsafe_set st.x87 top b;
          Array.unsafe_set st.x87 j a;
          Fall)
  | (FADD | FSUB | FMUL | FDIV), [| Operand.Reg (Operand.St k) |] ->
      let op = lane_op_of i.mnemonic in
      some (fun st ->
          let top = st.x87_top in
          Array.unsafe_set st.x87 top
            (lane op
               (Array.unsafe_get st.x87 top)
               (Array.unsafe_get st.x87 ((top + k) land 7)));
          Fall)
  | (FADD | FSUB | FMUL), [| Operand.Mem m |] ->
      let op = lane_op_of i.mnemonic and ea = compile_ea m in
      some (fun st ->
          let b = load_f64 st.mem (ea st) in
          let top = st.x87_top in
          Array.unsafe_set st.x87 top (lane op (Array.unsafe_get st.x87 top) b);
          Fall)
  (* ---- scalar SSE register forms, lane 0 inlined ---- *)
  | (MOVSS | MOVSD), [| Operand.Reg (Operand.Xmm d); Operand.Reg (Operand.Xmm s) |]
    ->
      some (fun st ->
          Array.unsafe_set
            (Array.unsafe_get st.vregs d)
            0
            (Array.unsafe_get (Array.unsafe_get st.vregs s) 0);
          Fall)
  | (MOVSS | MOVSD | VMOVSS), [| Operand.Reg (Operand.Xmm d); Operand.Mem m |]
    ->
      let wide = is_wide i.mnemonic in
      let ea = compile_ea m in
      some (fun st ->
          Array.unsafe_set
            (Array.unsafe_get st.vregs d)
            0
            (if wide then load_f64 st.mem (ea st)
             else load_f32 st.mem (ea st));
          Fall)
  | (MOVSS | MOVSD), [| Operand.Mem m; Operand.Reg (Operand.Xmm s) |] ->
      let wide = is_wide i.mnemonic in
      let ea = compile_ea m in
      some (fun st ->
          let v = Array.unsafe_get (Array.unsafe_get st.vregs s) 0 in
          if wide then store_f64 st.mem (ea st) v
          else store_f32 st.mem (ea st) v;
          Fall)
  | ( (ADDSS | ADDSD | SUBSS | SUBSD | MULSS | MULSD | DIVSS | DIVSD),
      [| Operand.Reg (Operand.Xmm d); Operand.Reg (Operand.Xmm s) |] ) ->
      let op = lane_op_of i.mnemonic in
      some (fun st ->
          let dv = Array.unsafe_get st.vregs d in
          Array.unsafe_set dv 0
            (lane op (Array.unsafe_get dv 0)
               (Array.unsafe_get (Array.unsafe_get st.vregs s) 0));
          Fall)
  | ( (ADDSS | ADDSD | SUBSS | SUBSD | MULSS | MULSD | DIVSS | DIVSD),
      [| Operand.Reg (Operand.Xmm d); Operand.Mem m |] ) ->
      let op = lane_op_of i.mnemonic and ea = compile_ea m in
      if is_wide i.mnemonic then
        some (fun st ->
            let b = load_f64 st.mem (ea st) in
            let dv = Array.unsafe_get st.vregs d in
            Array.unsafe_set dv 0 (lane op (Array.unsafe_get dv 0) b);
            Fall)
      else
        some (fun st ->
            let b = load_f32 st.mem (ea st) in
            let dv = Array.unsafe_get st.vregs d in
            Array.unsafe_set dv 0 (lane op (Array.unsafe_get dv 0) b);
            Fall)
  | ( (COMISS | COMISD | UCOMISS | UCOMISD | VCOMISS),
      [| Operand.Reg (Operand.Xmm x); Operand.Reg (Operand.Xmm y) |] ) ->
      some (fun st ->
          let a = Array.unsafe_get (Array.unsafe_get st.vregs x) 0
          and b = Array.unsafe_get (Array.unsafe_get st.vregs y) 0 in
          st.zf <- a = b;
          st.cf <- a < b;
          st.sf <- false;
          st.off <- false;
          Fall)
  | ( (VADDSS | VMULSS),
      [| Operand.Reg (Operand.Xmm d); Operand.Reg (Operand.Xmm x);
         Operand.Reg (Operand.Xmm y) |] ) ->
      let op = lane_op_of i.mnemonic in
      some (fun st ->
          Array.unsafe_set
            (Array.unsafe_get st.vregs d)
            0
            (lane op
               (Array.unsafe_get (Array.unsafe_get st.vregs x) 0)
               (Array.unsafe_get (Array.unsafe_get st.vregs y) 0));
          Fall)
  | ( (SQRTSS | SQRTSD),
      [| Operand.Reg (Operand.Xmm d); Operand.Reg (Operand.Xmm s) |] ) ->
      some (fun st ->
          let v = Array.unsafe_get (Array.unsafe_get st.vregs s) 0 in
          Array.unsafe_set (Array.unsafe_get st.vregs d) 0 (sqrt_abs v);
          Fall)
  | CVTSI2SD, [| Operand.Reg (Operand.Xmm d); Operand.Reg (Operand.Gpr s) |] ->
      let sc = Operand.gpr_code s in
      some (fun st ->
          Array.unsafe_set
            (Array.unsafe_get st.vregs d)
            0
            (Int64.to_float (BA.unsafe_get st.gprs sc));
          Fall)
  | FCHS, [||] ->
      some (fun st ->
          let top = st.x87_top in
          Array.unsafe_set st.x87 top (-.Array.unsafe_get st.x87 top);
          Fall)
  | FABS, [||] ->
      some (fun st ->
          let top = st.x87_top in
          Array.unsafe_set st.x87 top (Float.abs (Array.unsafe_get st.x87 top));
          Fall)
  | FILD, [| Operand.Mem m |] ->
      let ea = compile_ea m in
      some (fun st ->
          let v = Int64.to_float (load_i64 st.mem (ea st)) in
          let top = (st.x87_top - 1) land 7 in
          st.x87_top <- top;
          Array.unsafe_set st.x87 top v;
          Fall)
  | ( VBROADCASTSS,
      [| Operand.Reg ((Operand.Xmm d | Operand.Ymm d) as dr);
         Operand.Reg (Operand.Xmm s | Operand.Ymm s) |] ) ->
      let lanes = State.lane_count dr (Mnemonic.element i.mnemonic) in
      some (fun st ->
          let v = Array.unsafe_get (Array.unsafe_get st.vregs s) 0 in
          let dv = Array.unsafe_get st.vregs d in
          for k = 0 to lanes - 1 do
            Array.unsafe_set dv k v
          done;
          Fall)
  | ( VBROADCASTSS,
      [| Operand.Reg ((Operand.Xmm d | Operand.Ymm d) as dr); Operand.Mem m |]
    ) ->
      let lanes = State.lane_count dr (Mnemonic.element i.mnemonic) in
      let ea = compile_ea m in
      some (fun st ->
          let v = load_f32 st.mem (ea st) in
          let dv = Array.unsafe_get st.vregs d in
          for k = 0 to lanes - 1 do
            Array.unsafe_set dv k v
          done;
          Fall)
  (* ---- packed SSE/AVX, one loop over the lanes ---- *)
  | (MOVAPS | MOVDQA | VMOVAPS), _ -> compile_vec_mov node
  | ( ( ADDPS | VADDPS | VADDPD | PADDD | SUBPS | VSUBPS | MULPS | VMULPS
      | PMULLD | DIVPS | VDIVPS | XORPS | PXOR | VXORPS ),
      _ ) ->
      compile_vec_binop node (lane_op_of i.mnemonic)
  | (SQRTPS | VSQRTPS), _ -> compile_vec_sqrt node
  | ( SHUFPS,
      [| Operand.Reg (Operand.Xmm d); Operand.Reg (Operand.Xmm s);
         Operand.Imm sel |] ) ->
      (* All four selected lanes are read before any is written, so
         [SHUFPS x, x, imm] sees the old lanes, as in [step]. *)
      let sel = Int64.to_int sel in
      let l0 = sel land 3
      and l1 = (sel lsr 2) land 3
      and l2 = (sel lsr 4) land 3
      and l3 = (sel lsr 6) land 3 in
      some (fun st ->
          let dv = Array.unsafe_get st.vregs d
          and sv = Array.unsafe_get st.vregs s in
          let x0 = Array.unsafe_get dv l0
          and x1 = Array.unsafe_get dv l1
          and x2 = Array.unsafe_get sv l2
          and x3 = Array.unsafe_get sv l3 in
          Array.unsafe_set dv 0 x0;
          Array.unsafe_set dv 1 x1;
          Array.unsafe_set dv 2 x2;
          Array.unsafe_set dv 3 x3;
          Fall)
  | ( (VFMADD213PS | VFMADD213PD),
      [| Operand.Reg (Operand.Xmm d | Operand.Ymm d);
         Operand.Reg (Operand.Xmm a | Operand.Ymm a);
         Operand.Reg (Operand.Xmm b | Operand.Ymm b) |] ) ->
      (* dst := src1 * dst + src2 *)
      let lanes = lanes_of i in
      some (fun st ->
          let dv = Array.unsafe_get st.vregs d
          and av = Array.unsafe_get st.vregs a
          and bv = Array.unsafe_get st.vregs b in
          for k = 0 to lanes - 1 do
            Array.unsafe_set dv k
              ((Array.unsafe_get av k *. Array.unsafe_get dv k)
              +. Array.unsafe_get bv k)
          done;
          Fall)
  | _ -> None

type kernel = State.t -> control

let compile (node : Exec_graph.node) : kernel =
  match compile_flat node with
  | Some k -> k
  | None | (exception _) -> fun st -> step st node
