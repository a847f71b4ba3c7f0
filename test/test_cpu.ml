(* Tests for the CPU simulator: PRNG, memory, instruction semantics,
   the machine loop, LBR, the PMU sampling models and the kernel image. *)

open Hbbp_isa
open Hbbp_program
open Hbbp_program.Asm
open Hbbp_cpu

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checki64 = Alcotest.(check int64)

(* ------------------------------------------------------------------ *)
(* PRNG                                                                *)

let test_prng_determinism () =
  let a = Prng.create ~seed:1L and b = Prng.create ~seed:1L in
  for _ = 1 to 100 do
    checki64 "same stream" (Prng.next a) (Prng.next b)
  done

let test_prng_bounds () =
  let p = Prng.create ~seed:99L in
  for _ = 1 to 1000 do
    let v = Prng.int p 7 in
    checkb "in range" true (v >= 0 && v < 7)
  done;
  for _ = 1 to 1000 do
    let f = Prng.float p in
    checkb "unit interval" true (f >= 0.0 && f < 1.0)
  done

let test_prng_choose () =
  let p = Prng.create ~seed:5L in
  let counts = Array.make 3 0 in
  for _ = 1 to 3000 do
    let k = Prng.choose p [| 1.0; 2.0; 1.0 |] in
    counts.(k) <- counts.(k) + 1
  done;
  checkb "middle weight dominates" true (counts.(1) > counts.(0));
  checkb "middle weight dominates 2" true (counts.(1) > counts.(2));
  Alcotest.check_raises "empty weights"
    (Invalid_argument "Prng.choose: empty or all-zero weights") (fun () ->
      ignore (Prng.choose p [||]))

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)

let test_memory_rw () =
  let m = Memory.create [ (0x1000, 256) ] in
  Memory.write_i64 m 0x1000 0x1122334455667788L;
  checki64 "i64 roundtrip" 0x1122334455667788L (Memory.read_i64 m 0x1000);
  checki "byte order (LE)" 0x88 (Memory.read_u8 m 0x1000);
  Memory.write_f64 m 0x1010 3.25;
  Alcotest.(check (float 0.0)) "f64 roundtrip" 3.25 (Memory.read_f64 m 0x1010);
  Memory.write_f32 m 0x1020 1.5;
  Alcotest.(check (float 0.0)) "f32 roundtrip" 1.5 (Memory.read_f32 m 0x1020)

let test_memory_fault () =
  let m = Memory.create [ (0x1000, 16) ] in
  (match Memory.read_i64 m 0x100c with
  | exception Memory.Fault _ -> () (* crosses the end *)
  | _ -> Alcotest.fail "expected fault");
  checkb "mapped" true (Memory.is_mapped m 0x100f);
  checkb "unmapped" false (Memory.is_mapped m 0x1010)

let test_memory_overlap_rejected () =
  match Memory.create [ (0, 16); (8, 16) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected overlap rejection"

(* The eagerly zeroed memory that backing on first touch replaced, kept
   as the oracle: every region is allocated and zeroed at creation. *)
module Eager = struct
  type region = { base : int; data : Bytes.t }
  type t = { regions : region array; mutable hot : int }

  let create specs =
    let regions =
      specs
      |> List.map (fun (base, size) -> { base; data = Bytes.make size '\000' })
      |> List.sort (fun a b -> compare a.base b.base)
      |> Array.of_list
    in
    { regions; hot = 0 }

  let rec scan t addr len k =
    if k = Array.length t.regions then raise (Memory.Fault addr)
    else
      let r = t.regions.(k) in
      let off = addr - r.base in
      if off >= 0 && off + len <= Bytes.length r.data then begin
        t.hot <- k;
        r
      end
      else scan t addr len (k + 1)

  let region_for t addr len =
    let r = t.regions.(t.hot) in
    let off = addr - r.base in
    if off >= 0 && off + len <= Bytes.length r.data then r
    else scan t addr len 0

  let read_u8 t addr =
    let r = region_for t addr 1 in
    Bytes.get_uint8 r.data (addr - r.base)

  let read_i64 t addr =
    let r = region_for t addr 8 in
    Bytes.get_int64_le r.data (addr - r.base)

  let write_i64 t addr v =
    let r = region_for t addr 8 in
    Bytes.set_int64_le r.data (addr - r.base) v

  let read_f64 t addr = Int64.float_of_bits (read_i64 t addr)
  let write_f64 t addr v = write_i64 t addr (Int64.bits_of_float v)

  let read_f32 t addr =
    let r = region_for t addr 4 in
    Int32.float_of_bits (Bytes.get_int32_le r.data (addr - r.base))

  let write_f32 t addr v =
    let r = region_for t addr 4 in
    Bytes.set_int32_le r.data (addr - r.base) (Int32.bits_of_float v)

  let is_mapped t addr =
    match region_for t addr 1 with _ -> true | exception Memory.Fault _ -> false
end

(* Where an access lands, resolved when it runs: relative to a declared
   region's ends, to the backed window of that region in the memory
   under test (which moves as the sequence grows it), to the initial
   stack pointer, or anywhere at all. *)
type place =
  | From_lo of int * int  (** region, bytes above its first byte *)
  | From_hi of int * int  (** region, bytes below its end *)
  | Below_window of int * int  (** region, bytes below its window *)
  | Above_window of int * int  (** region, bytes above its window's end *)
  | Below_rsp of int
  | Anywhere of int

type access =
  | Read_u8
  | Read_f32
  | Write_f32 of float
  | Read_i64
  | Write_i64 of int64
  | Read_f64
  | Write_f64 of float

let regions = Array.of_list Layout.memory_regions

let address (m : Memory.t) = function
  | From_lo (k, d) -> fst regions.(k) + d
  | From_hi (k, d) ->
      let base, size = regions.(k) in
      base + size - d
  | Below_window (k, d) -> m.Memory.regions.(k).Memory.base - d
  | Above_window (k, d) ->
      let r = m.Memory.regions.(k) in
      r.Memory.base + Bytes.length r.Memory.data + d
  | Below_rsp d -> Layout.initial_rsp - d
  | Anywhere a -> a

let gen_place =
  let open QCheck2.Gen in
  let region = int_bound (Array.length regions - 1) in
  oneof
    [
      map2 (fun k d -> From_lo (k, d)) region (int_range (-9) 16);
      map2 (fun k d -> From_hi (k, d)) region (int_range (-8) 16);
      map2 (fun k d -> From_lo (k, d)) region (int_bound ((1 lsl 20) - 1));
      map2 (fun k d -> Below_window (k, d)) region (int_range (-16) 16);
      map2 (fun k d -> Above_window (k, d)) region (int_range (-16) 16);
      map2 (fun k d -> Below_window (k, d)) region (int_bound (1 lsl 22));
      map2 (fun k d -> Above_window (k, d)) region (int_bound (1 lsl 22));
      map (fun d -> Below_rsp d) (int_range (-24) 65536);
      map (fun a -> Anywhere a) (int_bound 0xC000000);
      oneofl [ Anywhere max_int; Anywhere (max_int - 3); Anywhere min_int;
               Anywhere (-1); Anywhere 0 ];
    ]

let gen_access =
  let open QCheck2.Gen in
  let f = map Int64.float_of_bits int64 in
  oneof
    [
      pure Read_u8;
      pure Read_f32;
      map (fun v -> Write_f32 v) f;
      pure Read_i64;
      map (fun v -> Write_i64 v) int64;
      pure Read_f64;
      map (fun v -> Write_f64 v) f;
    ]

let print_op (place, access) =
  let place =
    match place with
    | From_lo (k, d) -> Printf.sprintf "lo(%d)+%d" k d
    | From_hi (k, d) -> Printf.sprintf "hi(%d)-%d" k d
    | Below_window (k, d) -> Printf.sprintf "window(%d)-%d" k d
    | Above_window (k, d) -> Printf.sprintf "window_end(%d)+%d" k d
    | Below_rsp d -> Printf.sprintf "rsp-%d" d
    | Anywhere a -> Printf.sprintf "%#x" a
  in
  let access =
    match access with
    | Read_u8 -> "read_u8"
    | Read_f32 -> "read_f32"
    | Write_f32 v -> Printf.sprintf "write_f32 %h" v
    | Read_i64 -> "read_i64"
    | Write_i64 v -> Printf.sprintf "write_i64 %Ld" v
    | Read_f64 -> "read_f64"
    | Write_f64 v -> Printf.sprintf "write_f64 %h" v
  in
  access ^ " @ " ^ place

(* Both memories run the same accesses; floats compare by their bits. *)
let prop_memory_matches_eager =
  QCheck2.Test.make ~name:"first-touch memory = eagerly zeroed memory"
    ~count:300
    ~print:QCheck2.Print.(list print_op)
    QCheck2.Gen.(list_size (int_range 1 120) (pair gen_place gen_access))
    (fun ops ->
      let m = Memory.create Layout.memory_regions
      and e = Eager.create Layout.memory_regions in
      let outcome f = match f () with v -> Ok v | exception Memory.Fault a -> Error a in
      let bits x = Int64.bits_of_float x in
      let written = ref [] in
      List.for_all
        (fun (place, access) ->
          let addr = address m place in
          let got, want =
            match access with
            | Read_u8 ->
                ( outcome (fun () -> Int64.of_int (Memory.read_u8 m addr)),
                  outcome (fun () -> Int64.of_int (Eager.read_u8 e addr)) )
            | Read_f32 ->
                ( outcome (fun () -> bits (Memory.read_f32 m addr)),
                  outcome (fun () -> bits (Eager.read_f32 e addr)) )
            | Write_f32 v ->
                ( outcome (fun () -> Memory.write_f32 m addr v; 0L),
                  outcome (fun () -> Eager.write_f32 e addr v; 0L) )
            | Read_i64 ->
                ( outcome (fun () -> Memory.read_i64 m addr),
                  outcome (fun () -> Eager.read_i64 e addr) )
            | Write_i64 v ->
                ( outcome (fun () -> Memory.write_i64 m addr v; 0L),
                  outcome (fun () -> Eager.write_i64 e addr v; 0L) )
            | Read_f64 ->
                ( outcome (fun () -> bits (Memory.read_f64 m addr)),
                  outcome (fun () -> bits (Eager.read_f64 e addr)) )
            | Write_f64 v ->
                ( outcome (fun () -> Memory.write_f64 m addr v; 0L),
                  outcome (fun () -> Eager.write_f64 e addr v; 0L) )
          in
          (match access with
          | Write_f32 _ | Write_i64 _ | Write_f64 _ -> written := addr :: !written
          | Read_u8 | Read_f32 | Read_i64 | Read_f64 -> ());
          got = want
          && List.for_all
               (fun a -> Memory.is_mapped m a = Eager.is_mapped e a)
               [ addr - 1; addr; addr + 7; addr + 8 ])
        ops
      && List.for_all
           (fun addr ->
             outcome (fun () -> Memory.read_i64 m addr)
             = outcome (fun () -> Eager.read_i64 e addr))
           !written)

(* [is_mapped] answers from the declared bounds: asking about every
   region's ends backs nothing. *)
let test_is_mapped_grows_nothing () =
  let m = Memory.create Layout.memory_regions in
  List.iter
    (fun (base, size) ->
      checkb "first byte" true (Memory.is_mapped m base);
      checkb "last byte" true (Memory.is_mapped m (base + size - 1));
      checkb "past the end" false (Memory.is_mapped m (base + size)))
    Layout.memory_regions;
  Array.iter
    (fun (r : Memory.region) -> checki "window" 0 (Bytes.length r.Memory.data))
    m.Memory.regions

(* A machine no longer zeroes its 10 MiB of declared regions up front. *)
let test_machine_create_allocation () =
  let w = Hbbp_workloads.Registry.find "hello" in
  let b0 = Gc.allocated_bytes () in
  let m = Machine.create ~process:w.Hbbp_core.Workload.live_process () in
  let allocated = Gc.allocated_bytes () -. b0 in
  ignore (Sys.opaque_identity m);
  if allocated >= 1048576.0 then
    Alcotest.failf "Machine.create allocated %.0f bytes (limit 1 MiB)" allocated

(* ------------------------------------------------------------------ *)
(* Machine + semantics: run small programs and inspect final state.    *)

let run_program ?kernel funcs =
  let img = assemble ~name:"t" ~base:Layout.user_code_base ~ring:Ring.User funcs in
  let images = match kernel with None -> [ img ] | Some k -> [ img; k ] in
  let process = Process.create images in
  let machine = Machine.create ~process () in
  let entry = (Option.get (Image.find_symbol img "main")).Symbol.addr in
  let stats = Machine.run machine ~entry () in
  (Machine.state machine, stats)

let final_rax funcs =
  let st, _ = run_program funcs in
  State.get_gpr st Operand.RAX

let test_arith () =
  let v =
    final_rax
      [
        func "main"
          [
            i Mnemonic.MOV [ rax; imm 10 ];
            i Mnemonic.ADD [ rax; imm 32 ];
            i Mnemonic.SUB [ rax; imm 2 ];
            i Mnemonic.IMUL [ rax; rax ];
            i Mnemonic.RET_NEAR [];
          ];
      ]
  in
  checki64 "(10+32-2)^2" 1600L v

let test_div () =
  let v =
    final_rax
      [
        func "main"
          [
            i Mnemonic.MOV [ rax; imm 100 ];
            i Mnemonic.MOV [ rbx; imm 7 ];
            i Mnemonic.DIV [ rbx ];
            (* quotient 14 in rax, remainder 2 in rdx *)
            i Mnemonic.ADD [ rax; rdx ];
            i Mnemonic.RET_NEAR [];
          ];
      ]
  in
  checki64 "100/7 -> 14+2" 16L v

let test_loop_and_flags () =
  let v =
    final_rax
      [
        func "main"
          [
            i Mnemonic.XOR [ rax; rax ];
            i Mnemonic.MOV [ rcx; imm 5 ];
            label "l";
            i Mnemonic.ADD [ rax; rcx ];
            i Mnemonic.DEC [ rcx ];
            i Mnemonic.JNZ [ L "l" ];
            i Mnemonic.RET_NEAR [];
          ];
      ]
  in
  checki64 "sum 5..1" 15L v

let test_signed_conditions () =
  let v =
    final_rax
      [
        func "main"
          [
            i Mnemonic.MOV [ rax; imm (-5) ];
            i Mnemonic.CMP [ rax; imm 3 ];
            i Mnemonic.JL [ L "neg" ];
            i Mnemonic.MOV [ rax; imm 0 ];
            i Mnemonic.RET_NEAR [];
            label "neg";
            i Mnemonic.MOV [ rax; imm 1 ];
            i Mnemonic.RET_NEAR [];
          ];
      ]
  in
  checki64 "-5 < 3 signed" 1L v

let test_stack_and_calls () =
  let v =
    final_rax
      [
        func "main"
          [
            i Mnemonic.MOV [ rax; imm 5 ];
            i Mnemonic.PUSH [ rax ];
            i Mnemonic.CALL_NEAR [ L "double" ];
            i Mnemonic.POP [ rbx ];
            i Mnemonic.ADD [ rax; rbx ];
            i Mnemonic.RET_NEAR [];
          ];
        func "double" [ i Mnemonic.ADD [ rax; rax ]; i Mnemonic.RET_NEAR [] ];
      ]
  in
  checki64 "double(5) + pushed 5" 15L v

let test_indirect_call () =
  let v =
    final_rax
      [
        func "main"
          [
            i Mnemonic.MOV [ r11; A "target" ];
            i Mnemonic.CALL_NEAR [ r11 ];
            i Mnemonic.RET_NEAR [];
          ];
        func "target" [ i Mnemonic.MOV [ rax; imm 77 ]; i Mnemonic.RET_NEAR [] ];
      ]
  in
  checki64 "indirect call" 77L v

let test_memory_ops () =
  let v =
    final_rax
      [
        func "main"
          [
            i Mnemonic.MOV [ rbp; imm Layout.user_data_base ];
            i Mnemonic.MOV [ rbx; imm 42 ];
            i Mnemonic.MOV [ mem Operand.RBP ~disp:16; rbx ];
            i Mnemonic.MOV [ rax; mem Operand.RBP ~disp:16 ];
            i Mnemonic.RET_NEAR [];
          ];
      ]
  in
  checki64 "store/load" 42L v

let test_fp_scalar () =
  let st, _ =
    run_program
      [
        func "main"
          [
            i Mnemonic.MOV [ rax; imm 9 ];
            i Mnemonic.CVTSI2SD [ xmm 0; rax ];
            i Mnemonic.SQRTSD [ xmm 1; xmm 0 ];
            i Mnemonic.CVTSD2SI [ rax; xmm 1 ];
            i Mnemonic.RET_NEAR [];
          ];
      ]
  in
  checki64 "sqrt(9)" 3L (State.get_gpr st Operand.RAX)

let test_x87_stack () =
  let st, _ =
    run_program
      [
        func "main"
          [
            i Mnemonic.MOV [ rbp; imm Layout.user_data_base ];
            i Mnemonic.MOV [ rax; imm 6 ];
            i Mnemonic.MOV [ mem Operand.RBP; rax ];
            i Mnemonic.FILD [ mem Operand.RBP ];
            i Mnemonic.FLD [ st 0 ];
            i Mnemonic.FMUL [ st 1 ];
            (* st0 = 36 *)
            i Mnemonic.FISTP [ mem Operand.RBP ~disp:8 ];
            i Mnemonic.FSTP [ mem Operand.RBP ~disp:16 ];
            i Mnemonic.MOV [ rax; mem Operand.RBP ~disp:8 ];
            i Mnemonic.RET_NEAR [];
          ];
      ]
  in
  checki64 "6*6 via x87" 36L (State.get_gpr st Operand.RAX)

let test_vector_lanes () =
  let st, _ =
    run_program
      [
        func "main"
          [
            i Mnemonic.MOV [ rax; imm 3 ];
            i Mnemonic.CVTSI2SS [ xmm 1; rax ];
            i Mnemonic.VBROADCASTSS [ ymm 2; xmm 1 ];
            i Mnemonic.VADDPS [ ymm 3; ymm 2; ymm 2 ];
            i Mnemonic.RET_NEAR [];
          ];
      ]
  in
  Array.iter
    (fun lane -> Alcotest.(check (float 0.0)) "lane = 6" 6.0 lane)
    (Array.sub st.State.vregs.(3) 0 8)

let test_xor_zeroing () =
  let st, _ =
    run_program
      [
        func "main"
          [
            i Mnemonic.MOV [ rax; imm 7 ];
            i Mnemonic.CVTSI2SS [ xmm 4; rax ];
            i Mnemonic.XORPS [ xmm 4; xmm 4 ];
            i Mnemonic.RET_NEAR [];
          ];
      ]
  in
  Array.iteri
    (fun k lane ->
      if k < 4 then Alcotest.(check (float 0.0)) "zeroed" 0.0 lane)
    st.State.vregs.(4)

let test_run_stats () =
  let _, stats =
    run_program
      [
        func "main"
          [
            i Mnemonic.MOV [ rcx; imm 100 ];
            label "l";
            i Mnemonic.ADD [ rax; imm 1 ];
            i Mnemonic.DEC [ rcx ];
            i Mnemonic.JNZ [ L "l" ];
            i Mnemonic.RET_NEAR [];
          ];
      ]
  in
  (* mov + 100*(add,dec,jnz) + ret *)
  checki "retired" 302 stats.Machine.retired;
  checki "taken: 99 backedges + ret" 100 stats.Machine.taken_branches;
  checki "no kernel" 0 stats.Machine.kernel_retired

let test_runaway () =
  let funcs = [ func "main" [ label "l"; i Mnemonic.JMP [ L "l" ] ] ] in
  let img = assemble ~name:"t" ~base:Layout.user_code_base ~ring:Ring.User funcs in
  let machine = Machine.create ~process:(Process.create [ img ]) () in
  let entry = (Option.get (Image.find_symbol img "main")).Symbol.addr in
  match Machine.run machine ~entry ~max_instructions:1000 () with
  | exception Machine.Runaway n -> checki "budget respected" 1000 n
  | _ -> Alcotest.fail "expected Runaway"

let test_syscall_roundtrip () =
  let kernel = Kernel.build () in
  let st, stats =
    run_program ~kernel:kernel.Kernel.live
      [
        func "main"
          [
            i Mnemonic.MOV [ rax; imm Kernel_abi.sys_getpid ];
            i Mnemonic.SYSCALL [];
            i Mnemonic.RET_NEAR [];
          ];
      ]
  in
  checki64 "getpid result" 4242L (State.get_gpr st Operand.RAX);
  checkb "kernel instructions retired" true (stats.Machine.kernel_retired > 0);
  checkb "back in user ring" true (Ring.equal st.State.ring Ring.User)

(* ------------------------------------------------------------------ *)
(* LBR                                                                 *)

let check_int_array = Alcotest.(check (array int))

let test_lbr_ring () =
  let l = Lbr.create ~depth:4 in
  checki "empty" 0 (Array.length (Lbr.snapshot l));
  for k = 1 to 2 do
    Lbr.push l ~src:k ~tgt:(k * 10)
  done;
  check_int_array "partial: oldest first" [| 1; 10; 2; 20 |] (Lbr.snapshot l);
  for k = 3 to 6 do
    Lbr.push l ~src:k ~tgt:(k * 10)
  done;
  let snap = Lbr.snapshot l in
  checki "depth bounded" 4 (Lbr.entries snap);
  check_int_array "wrapped: oldest first" [| 3; 30; 4; 40; 5; 50; 6; 60 |] snap;
  checki "oldest is 3" 3 (Lbr.src snap 0);
  checki "newest is 6" 6 (Lbr.src snap 3);
  checki "newest target" 60 (Lbr.tgt snap 3);
  (* Every wrap position: after [depth + j] pushes the snapshot is the
     last [depth] pushes, oldest first. *)
  for j = 0 to 8 do
    let l = Lbr.create ~depth:4 in
    let pushes = 4 + j in
    for k = 1 to pushes do
      Lbr.push l ~src:k ~tgt:(-k)
    done;
    check_int_array
      (Printf.sprintf "wrap after %d pushes" pushes)
      (Array.init 8 (fun w ->
           let k = pushes - 3 + (w / 2) in
           if w land 1 = 0 then k else -k))
      (Lbr.snapshot l)
  done;
  Lbr.overwrite_oldest l ~src:99 ~tgt:990;
  let snap = Lbr.snapshot l in
  checki "oldest clobbered" 99 (Lbr.src snap 0);
  checki "oldest target clobbered" 990 (Lbr.tgt snap 0);
  checki "newest intact" 6 (Lbr.src snap 3);
  Lbr.clear l;
  checki "cleared" 0 (Lbr.fill_level l);
  Lbr.overwrite_oldest l ~src:1 ~tgt:2;
  checki "overwrite on empty is a no-op" 0 (Array.length (Lbr.snapshot l))

(* ------------------------------------------------------------------ *)
(* PMU                                                                 *)

let counting_machine funcs events =
  let img = assemble ~name:"t" ~base:Layout.user_code_base ~ring:Ring.User funcs in
  let machine = Machine.create ~process:(Process.create [ img ]) () in
  let pmu =
    Pmu.create Pmu_model.default
      (List.map (fun event -> { Pmu.event; mode = Pmu.Counting }) events)
  in
  Machine.add_observer machine (Pmu.observer pmu);
  let entry = (Option.get (Image.find_symbol img "main")).Symbol.addr in
  let stats = Machine.run machine ~entry () in
  (pmu, stats)

let simple_loop n body =
  [
    func "main"
      ((i Mnemonic.MOV [ rcx; imm n ] :: label "l" :: body)
      @ [ i Mnemonic.DEC [ rcx ]; i Mnemonic.JNZ [ L "l" ];
          i Mnemonic.RET_NEAR [] ]);
  ]

let test_pmu_counting_exact () =
  let pmu, stats =
    counting_machine
      (simple_loop 1000 [ i Mnemonic.ADD [ rax; imm 1 ] ])
      [ Pmu_event.Inst_retired_any; Pmu_event.Br_inst_retired_near_taken ]
  in
  let counts = Pmu.counts pmu in
  checki64 "instructions exact"
    (Int64.of_int stats.Machine.retired)
    (List.assoc Pmu_event.Inst_retired_any counts);
  checki64 "taken branches exact"
    (Int64.of_int stats.Machine.taken_branches)
    (List.assoc Pmu_event.Br_inst_retired_near_taken counts)

let test_pmu_specific_events () =
  let body =
    [
      i Mnemonic.ADDSD [ xmm 0; xmm 1 ];
      i Mnemonic.VADDPS [ ymm 0; ymm 1; ymm 2 ];
      i Mnemonic.FADD [ st 1 ];
      i Mnemonic.PADDD [ xmm 2; xmm 3 ];
    ]
  in
  let pmu, _ =
    counting_machine (simple_loop 100 body)
      [
        Pmu_event.Fp_comp_ops_sse; Pmu_event.Fp_comp_ops_avx;
        Pmu_event.Fp_comp_ops_x87; Pmu_event.Simd_int_128;
      ]
  in
  let counts = Pmu.counts pmu in
  checki64 "sse fp" 100L (List.assoc Pmu_event.Fp_comp_ops_sse counts);
  checki64 "avx fp" 100L (List.assoc Pmu_event.Fp_comp_ops_avx counts);
  checki64 "x87" 100L (List.assoc Pmu_event.Fp_comp_ops_x87 counts);
  checki64 "simd int" 100L (List.assoc Pmu_event.Simd_int_128 counts)

let test_pmu_sampling_rate () =
  let img =
    assemble ~name:"t" ~base:Layout.user_code_base ~ring:Ring.User
      (simple_loop 50_000 [ i Mnemonic.ADD [ rax; imm 1 ] ])
  in
  let machine = Machine.create ~process:(Process.create [ img ]) () in
  let pmu =
    Pmu.create Pmu_model.default
      [
        {
          Pmu.event = Pmu_event.Inst_retired_prec_dist;
          mode = Pmu.Sampling { period = 997; lbr = false };
        };
      ]
  in
  Machine.add_observer machine (Pmu.observer pmu);
  let entry = (Option.get (Image.find_symbol img "main")).Symbol.addr in
  let stats = Machine.run machine ~entry () in
  let expected = stats.Machine.retired / 997 in
  let got = List.length (Pmu.samples pmu) in
  checkb "sample count ~ retired/period" true (abs (got - expected) <= 2)

let test_pmu_validation () =
  (match
     Pmu.create Pmu_model.default
       (List.init 5 (fun _ ->
            { Pmu.event = Pmu_event.Inst_retired_any; mode = Pmu.Counting }))
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected counter limit");
  match
    Pmu.create Pmu_model.default
      [
        { Pmu.event = Pmu_event.Inst_retired_prec_dist;
          mode = Pmu.Sampling { period = 100; lbr = false } };
        { Pmu.event = Pmu_event.Inst_retired_prec_dist;
          mode = Pmu.Sampling { period = 200; lbr = false } };
      ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected precise-event restriction"

let test_pmu_reset () =
  let pmu, _ =
    counting_machine
      (simple_loop 10 [ i Mnemonic.ADD [ rax; imm 1 ] ])
      [ Pmu_event.Inst_retired_any ]
  in
  Pmu.reset pmu;
  checki64 "counts cleared" 0L
    (List.assoc Pmu_event.Inst_retired_any (Pmu.counts pmu));
  checki "samples cleared" 0 (List.length (Pmu.samples pmu))

let test_quirk_determinism () =
  let m = Pmu_model.default in
  List.iter
    (fun addr ->
      checkb "stable quirk decision" true
        (Pmu_model.is_quirk_branch m addr = Pmu_model.is_quirk_branch m addr))
    [ 0x400000; 0x400123; 0x812345 ]

let test_skid_draws_valid () =
  let prng = Prng.create ~seed:3L in
  let m = Pmu_model.default in
  for _ = 1 to 1000 do
    let d = Pmu_model.draw_skid prng m.Pmu_model.precise_skid in
    checkb "skid non-negative" true (d >= 0);
    checkb "skid bounded" true (d <= 8)
  done

(* ------------------------------------------------------------------ *)
(* Kernel image                                                        *)

let test_kernel_layouts_match () =
  let k = Kernel.build () in
  checki "same size" (Image.size k.Kernel.disk) (Image.size k.Kernel.live);
  checki "same base" k.Kernel.disk.Image.base k.Kernel.live.Image.base;
  checkb "text differs at tracepoints" false
    (Bytes.equal k.Kernel.disk.Image.code k.Kernel.live.Image.code)

let test_kernel_tracepoints_are_jumps_on_disk () =
  let k = Kernel.build () in
  let count_mnemonic img m =
    let decoded = Result.get_ok (Disasm.image img) in
    Array.fold_left
      (fun acc (d : Disasm.decoded) ->
        if Mnemonic.equal d.instr.Instruction.mnemonic m then acc + 1 else acc)
      0 decoded
  in
  (* 6 tracepoints: JMPs on disk become NOPs live; probe JMPs remain. *)
  checki "disk has 6 more JMPs"
    (count_mnemonic k.Kernel.disk Mnemonic.JMP)
    (count_mnemonic k.Kernel.live Mnemonic.JMP + 6);
  checki "live has 6 more NOPs"
    (count_mnemonic k.Kernel.live Mnemonic.NOP)
    (count_mnemonic k.Kernel.disk Mnemonic.NOP + 6)

let test_kernel_external_validation () =
  match
    Kernel.build
      ~external_services:[ { Kernel.number = 1; name = "x"; entry_addr = 0 } ]
      ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected reserved-number rejection"

(* ------------------------------------------------------------------ *)
(* Properties over random synthetic programs                           *)

let random_workload seed =
  let ctx = Hbbp_workloads.Codegen.create_ctx ~seed:(Int64.of_int seed) in
  let funcs =
    Hbbp_workloads.Codegen.synthetic_funcs ctx ~name:"p" ~helpers:2
      {
        Hbbp_workloads.Codegen.blocks = 8;
        mean_len = 4;
        len_jitter = 2;
        iterations = 50;
        call_rate = 0.25;
        indirect_calls = false;
        profile =
          { Hbbp_workloads.Codegen.fp = Hbbp_workloads.Codegen.Mixed_fp;
            fp_rate = 0.25; mem_rate = 0.2; long_rate = 0.04;
            simd_int_rate = 0.05 };
      }
  in
  (* user_workload adds the _start wrapper that points RBP at the data
     region — the convention all filler memory operands rely on. *)
  Hbbp_workloads.Codegen.user_workload ~name:"p" funcs

let run_once (w : Hbbp_core.Workload.t) =
  let machine =
    Machine.create ~process:w.Hbbp_core.Workload.live_process ()
  in
  let pmu =
    Pmu.create Pmu_model.default
      [
        { Pmu.event = Pmu_event.Inst_retired_any; mode = Pmu.Counting };
        { Pmu.event = Pmu_event.Br_inst_retired_near_taken;
          mode = Pmu.Counting };
      ]
  in
  Machine.add_observer machine (Pmu.observer pmu);
  let stats =
    Machine.run machine ~entry:w.Hbbp_core.Workload.entry
      ~max_instructions:10_000_000 ()
  in
  (stats, Pmu.counts pmu)

let prop_machine_deterministic =
  QCheck2.Test.make ~name:"machine runs are deterministic" ~count:15
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let img = random_workload seed in
      let a, _ = run_once img and b, _ = run_once img in
      a = b)

let prop_pmu_counting_matches_machine =
  QCheck2.Test.make ~name:"PMU counting equals machine stats" ~count:15
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let img = random_workload seed in
      let stats, counts = run_once img in
      Int64.to_int (List.assoc Pmu_event.Inst_retired_any counts)
      = stats.Machine.retired
      && Int64.to_int (List.assoc Pmu_event.Br_inst_retired_near_taken counts)
        = stats.Machine.taken_branches)

let () =
  Alcotest.run "cpu"
    [
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "choose" `Quick test_prng_choose;
        ] );
      ( "memory",
        [
          Alcotest.test_case "rw" `Quick test_memory_rw;
          Alcotest.test_case "fault" `Quick test_memory_fault;
          Alcotest.test_case "overlap" `Quick test_memory_overlap_rejected;
          QCheck_alcotest.to_alcotest prop_memory_matches_eager;
          Alcotest.test_case "is_mapped grows nothing" `Quick
            test_is_mapped_grows_nothing;
          Alcotest.test_case "machine creation allocates < 1 MiB" `Quick
            test_machine_create_allocation;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "arith" `Quick test_arith;
          Alcotest.test_case "div" `Quick test_div;
          Alcotest.test_case "loop+flags" `Quick test_loop_and_flags;
          Alcotest.test_case "signed conditions" `Quick test_signed_conditions;
          Alcotest.test_case "stack+calls" `Quick test_stack_and_calls;
          Alcotest.test_case "indirect call" `Quick test_indirect_call;
          Alcotest.test_case "memory ops" `Quick test_memory_ops;
          Alcotest.test_case "fp scalar" `Quick test_fp_scalar;
          Alcotest.test_case "x87 stack" `Quick test_x87_stack;
          Alcotest.test_case "vector lanes" `Quick test_vector_lanes;
          Alcotest.test_case "xor zeroing" `Quick test_xor_zeroing;
        ] );
      ( "machine",
        [
          Alcotest.test_case "run stats" `Quick test_run_stats;
          Alcotest.test_case "runaway" `Quick test_runaway;
          Alcotest.test_case "syscall roundtrip" `Quick test_syscall_roundtrip;
        ] );
      ("lbr", [ Alcotest.test_case "ring buffer" `Quick test_lbr_ring ]);
      ( "pmu",
        [
          Alcotest.test_case "counting exact" `Quick test_pmu_counting_exact;
          Alcotest.test_case "specific events" `Quick test_pmu_specific_events;
          Alcotest.test_case "sampling rate" `Quick test_pmu_sampling_rate;
          Alcotest.test_case "validation" `Quick test_pmu_validation;
          Alcotest.test_case "reset" `Quick test_pmu_reset;
          Alcotest.test_case "quirk determinism" `Quick test_quirk_determinism;
          Alcotest.test_case "skid draws" `Quick test_skid_draws_valid;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_machine_deterministic;
          QCheck_alcotest.to_alcotest prop_pmu_counting_matches_machine;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "layouts match" `Quick test_kernel_layouts_match;
          Alcotest.test_case "tracepoints" `Quick
            test_kernel_tracepoints_are_jumps_on_disk;
          Alcotest.test_case "external validation" `Quick
            test_kernel_external_validation;
        ] );
    ]
