(** The one JSON string escaper shared by every hand-written JSON
    emitter (trace, metrics, health, doctor, profile export, CLI
    reports). *)

(** [escape s] — [s] as the body of a JSON string literal: a double
    quote or backslash gets a backslash; newline, tab and carriage
    return become their short escapes; every other control character
    becomes a [\u00XX] escape.  All other bytes pass through unchanged. *)
val escape : string -> string
