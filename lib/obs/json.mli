(** Minimal dependency-free JSON: value type, strict parser, printer.

    The repository deliberately has no JSON library dependency. The
    run records, the [--metrics-out] document and the serve protocol
    are built as {!t} values and printed here; the run-record /
    baseline-drift machinery and the tests read them back with the same
    parser. It sits at the bottom of the tree so both the driver and
    the test binary can use it.

    The parser is strict RFC-8259 syntax (no trailing commas, no
    comments, a single top-level value). Object fields keep document
    order; duplicate keys are kept (first one wins in {!member}). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val parse : string -> (t, string) result

val parse_exn : string -> t
(** Like {!parse}; raises {!Parse_error}. *)

val to_string : t -> string
(** Pretty-print with two-space indentation and a trailing newline.
    Finite numbers round-trip bit-exactly through {!parse}; non-finite
    numbers are emitted as strings (nan, inf, -inf) — see {!to_num}. *)

val to_compact_string : t -> string
(** Single-line print: no indentation, no interior or trailing newline.
    The encoding used by newline-delimited protocols ([Driver.Serve]),
    where the framing layer owns the newline. Numbers print exactly as
    in {!to_string}. *)

val escape : string -> string
(** The string-body escaper, shared with the hand-rolled writers. *)

val float_repr : float -> string
(** Shortest decimal representation of a finite float that parses back
    to the same bits. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] on missing field or non-object. *)

val to_list : t -> t list option
val to_str : t -> string option

val to_num : t -> float option
(** [Num f] as [f]; also accepts the [Str] encoding of non-finite
    floats (nan, inf, …) that {!to_string} produces. *)
