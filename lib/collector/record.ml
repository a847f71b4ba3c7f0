open Hbbp_program
open Hbbp_cpu

type sample = {
  event : Pmu_event.t;
  ip : int;
  lbr : Lbr.snapshot;
  ring : Ring.t;
  time : int;
}

type t =
  | Comm of { pid : int; name : string }
  | Mmap of { addr : int; len : int; name : string; ring : Ring.t }
  | Fork of { parent : int; child : int }
  | Sample of sample
  | Lost of int

let pp ppf = function
  | Comm { pid; name } -> Format.fprintf ppf "COMM pid=%d %s" pid name
  | Mmap { addr; len; name; ring } ->
      Format.fprintf ppf "MMAP %#x+%#x %s [%a]" addr len name Ring.pp ring
  | Fork { parent; child } -> Format.fprintf ppf "FORK %d -> %d" parent child
  | Sample s ->
      Format.fprintf ppf "SAMPLE %a ip=%#x lbr=%d [%a] t=%d" Pmu_event.pp
        s.event s.ip (Lbr.entries s.lbr) Ring.pp s.ring s.time
  | Lost n -> Format.fprintf ppf "LOST %d" n

let samples records =
  List.filter_map (function Sample s -> Some s | _ -> None) records

let mmaps records =
  List.filter_map
    (function
      | Mmap { addr; len; name; ring } -> Some (addr, len, name, ring)
      | _ -> None)
    records
