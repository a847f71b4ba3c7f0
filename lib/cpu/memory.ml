type region = { mutable base : int; mutable data : Bytes.t; lo : int; hi : int }
type t = { regions : region array; mutable hot : int }

exception Fault of int

let create specs =
  let regions =
    specs
    |> List.map (fun (base, size) ->
           { base; data = Bytes.empty; lo = base; hi = base + size })
    |> List.sort (fun a b -> compare a.lo b.lo)
    |> Array.of_list
  in
  Array.iteri
    (fun k r ->
      if k > 0 && regions.(k - 1).hi > r.lo then
        invalid_arg "Memory.create: overlapping regions")
    regions;
  { regions; hot = 0 }

(* Backing on first touch.  A region's [data] holds only the window
   [base, base + length data) of its declared bounds [lo, hi); every
   byte outside the window is zero, as in a region zeroed up front.  A
   miss inside the bounds grows the window to cover the access, by whole
   pages and at least doubling towards it, so a region touched across
   [n] bytes is copied O(log n) times and a stack grows down from its
   first push.  The window starts empty, so a region nothing touches
   costs nothing. *)

let page = 4096

let grow r addr len =
  let wlo = r.base and whi = r.base + Bytes.length r.data in
  let span = whi - wlo in
  let down a = r.lo + ((a - r.lo) land lnot (page - 1)) in
  let nlo =
    if span = 0 then down addr
    else if addr < wlo then min (down addr) (whi - (2 * span))
    else wlo
  and nhi =
    if span = 0 then down (addr + len + page - 1)
    else if addr + len > whi then
      max (down (addr + len + page - 1)) (wlo + (2 * span))
    else whi
  in
  let nlo = max nlo r.lo and nhi = min nhi r.hi in
  let data = Bytes.make (nhi - nlo) '\000' in
  if span > 0 then Bytes.blit r.data 0 data (wlo - nlo) span;
  r.base <- nlo;
  r.data <- data

(* Consult the last-hit region first — consecutive accesses
   overwhelmingly land in the same region (stack runs, array sweeps) —
   and fall back to a scan of the declared bounds that refreshes the
   cache and grows the window when the access falls outside it.  Regions
   never overlap, so which region resolves an address is unique and the
   cache cannot change results, only the number of compares.  The scan
   is a top-level function rather than a local closure, so a miss
   (CALL/RET alternating between stack and data) allocates nothing
   unless it grows a window. *)

let rec scan t addr len k =
  if k = Array.length t.regions then raise (Fault addr)
  else
    let r = Array.unsafe_get t.regions k in
    let off = addr - r.lo in
    if off >= 0 && off + len <= r.hi - r.lo then begin
      t.hot <- k;
      let off = addr - r.base in
      if not (off >= 0 && off + len <= Bytes.length r.data) then
        grow r addr len;
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

(* The declared bounds decide, so asking grows no window; a mapped
   address refreshes the hot region as an access would. *)
let rec mapped t addr k =
  k < Array.length t.regions
  &&
  let r = Array.unsafe_get t.regions k in
  let off = addr - r.lo in
  if off >= 0 && off < r.hi - r.lo then begin
    t.hot <- k;
    true
  end
  else mapped t addr (k + 1)

let is_mapped t addr = mapped t addr 0
