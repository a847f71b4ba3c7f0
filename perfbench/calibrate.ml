(* Host-speed calibration.

   The reference host is shared: other tenants slow it by up to about
   2x, for moments or for minutes, and a whole run can fall in a slow
   period.  So every timed call is bracketed by two slices of a fixed
   kernel that belongs to the benchmark, not to the library, and its time
   is scaled by the ratio of the kernel's reference time to the slices'
   mean: the seconds the call would have taken at the reference host's
   quiet speed.  A change to the library moves the call's time but not
   the kernel's, so it shows in full.

   The kernel has two parts, because the host's busy periods slow the
   two kinds of work in the pipeline by different amounts.  A small
   register machine (indirect dispatch, integer arithmetic, loads and
   stores into a 512 KiB table) slows like the simulator; short-lived
   boxed floats and list cells slow like decoding and analysis.  In busy
   periods the register machine alone over-corrects analysis by about
   20%, and the allocation alone under-corrects execution by up to 10%.
   Together, with about a third of the slice's time in the first, four
   pipeline calls measured on the reference host (a profile, a
   collection, two analyses) read within 8% of
   their quiet-period times in busy periods, and over 15 minutes in
   which their raw times spread 18-35% between 30 s windows (quartile
   distance ÷ median), their scaled times spread 4-6%.  Nothing the
   kernel allocates survives a minor collection, so it leaves no work to
   the major GC. *)

let now = Unix.gettimeofday

let table = Bigarray.(Array1.create int64 c_layout 65536)
let () = Bigarray.Array1.fill table 1L
let program = [| 0; 1; 2; 3; 4; 5; 1; 6; 2; 7; 3; 0; 4; 6; 5; 7 |]

let interpret iterations =
  let r = Array.make 8 1 in
  let pc = ref 0 in
  for _ = 1 to iterations do
    (match program.(!pc land 15) with
    | 0 -> r.(0) <- (r.(0) * 1103515245) + 12345
    | 1 -> r.(1) <- r.(1) + (r.(0) lsr 7)
    | 2 ->
        let a = (r.(0) lsr 3) land 65535 in
        r.(2) <- r.(2) + Int64.to_int (Bigarray.Array1.unsafe_get table a)
    | 3 ->
        let a = (r.(1) lsr 5) land 65535 in
        Bigarray.Array1.unsafe_set table a (Int64.of_int r.(2))
    | 4 -> r.(3) <- r.(3) lxor r.(1)
    | 5 -> if r.(3) land 1 = 0 then r.(4) <- r.(4) + 1 else r.(5) <- r.(5) + 1
    | 6 -> r.(6) <- r.(6) + r.(4) - r.(5)
    | _ -> r.(7) <- r.(7) + (r.(6) land 255));
    pc := !pc + 1 + (r.(0) land 1)
  done;
  r.(7)

let allocate iterations =
  let acc = ref 0.0 in
  for i = 1 to iterations do
    acc := !acc +. List.fold_left ( +. ) 0.0 [ float_of_int i; 2.0; 3.0 ]
  done;
  !acc

(* A slice's time on the reference host in a quiet period (2-vCPU Intel
   Xeon virtual machine, OCaml 5.1.1); it takes up to about twice that
   in a busy one. *)
let reference_s = 0.010

let slice () =
  let t0 = now () in
  ignore (Sys.opaque_identity (interpret 1_000_000));
  ignore (Sys.opaque_identity (allocate 500_000));
  now () -. t0

(* The last slice and when it ended.  A call that starts within [fresh_s]
   of it takes it as its leading slice: the calls of analyze-shards take
   about as long as a slice, and a slice each between them leaves more
   time for their runs. *)
let last = ref (0.0, neg_infinity)
let fresh_s = 0.05

(* [time f] is [(v, dt, scale)]: [f]'s result, its seconds, and the
   factor that turns them into reference seconds. *)
let time f =
  let before =
    match !last with
    | s, ended when now () -. ended <= fresh_s -> s
    | _ -> slice ()
  in
  let t0 = now () in
  let v = f () in
  let dt = now () -. t0 in
  let after = slice () in
  last := (after, now ());
  (v, dt, 2.0 *. reference_s /. (before +. after))
