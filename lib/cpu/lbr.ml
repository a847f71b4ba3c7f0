type snapshot = int array

(* One interleaved int array, the snapshot layout itself: entry slot
   [j] holds its source at [2j] and its target at [2j + 1].  [head] and
   [filled] count words, not entries.  [push] runs once per retired
   taken branch on armed runs, and with this layout it is two immediate
   stores — no allocation, no GC write barrier, no modulo — and
   [snapshot] is at most two blits. *)
type t = {
  ring : int array;
  mutable head : int;  (* word index of the slot receiving the next push *)
  mutable filled : int;  (* words in use *)
}

let create ~depth = { ring = Array.make (2 * depth) 0; head = 0; filled = 0 }
let depth t = Array.length t.ring / 2

let push t ~src ~tgt =
  let h = t.head in
  Array.unsafe_set t.ring h src;
  Array.unsafe_set t.ring (h + 1) tgt;
  let h = h + 2 in
  t.head <- (if h = Array.length t.ring then 0 else h);
  if t.filled < Array.length t.ring then t.filled <- t.filled + 2

let snapshot t =
  let words = t.filled in
  if words < Array.length t.ring then Array.sub t.ring 0 words
  else begin
    (* Full: the oldest entry is the one [push] overwrites next. *)
    let out = Array.make words 0 in
    Array.blit t.ring t.head out 0 (words - t.head);
    Array.blit t.ring 0 out (words - t.head) t.head;
    out
  end

let entries snap = Array.length snap / 2
let src snap k = snap.(2 * k)
let tgt snap k = snap.((2 * k) + 1)

let overwrite_oldest t ~src ~tgt =
  if t.filled > 0 then begin
    let oldest = if t.filled < Array.length t.ring then 0 else t.head in
    t.ring.(oldest) <- src;
    t.ring.(oldest + 1) <- tgt
  end

let clear t =
  t.head <- 0;
  t.filled <- 0

let fill_level t = t.filled / 2
