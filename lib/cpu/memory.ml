type region = { base : int; data : Bytes.t }
type t = { regions : region array; mutable hot : int }

exception Fault of int

let create specs =
  let regions =
    specs
    |> List.map (fun (base, size) -> { base; data = Bytes.make size '\000' })
    |> List.sort (fun a b -> compare a.base b.base)
    |> Array.of_list
  in
  Array.iteri
    (fun k r ->
      if k > 0 then
        let prev = regions.(k - 1) in
        if prev.base + Bytes.length prev.data > r.base then
          invalid_arg "Memory.create: overlapping regions")
    regions;
  { regions; hot = 0 }

(* Consult the last-hit region first — consecutive accesses
   overwhelmingly land in the same region (stack runs, array sweeps) —
   and fall back to a scan that refreshes the cache.  Regions never
   overlap, so which region resolves an address is unique and the cache
   cannot change results, only the number of compares.  The scan is a
   top-level function rather than a local closure, so a miss (CALL/RET
   alternating between stack and data) allocates nothing. *)

let rec scan t addr len k =
  if k = Array.length t.regions then raise (Fault addr)
  else
    let r = Array.unsafe_get t.regions k in
    let off = addr - r.base in
    if off >= 0 && off + len <= Bytes.length r.data then begin
      t.hot <- k;
      r
    end
    else scan t addr len (k + 1)

let region_for t addr len =
  let r = Array.unsafe_get t.regions t.hot in
  let off = addr - r.base in
  if off >= 0 && off + len <= Bytes.length r.data then r else scan t addr len 0

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
  match region_for t addr 1 with
  | _ -> true
  | exception Fault _ -> false
