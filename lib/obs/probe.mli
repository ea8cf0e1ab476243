(** Low-level observability probes: spans and counters.

    This is the dependency-free recording layer every library in the tree
    can link against (the analysis passes cannot depend on [Driver], which
    sits above them). [Driver.Trace] adds rendering, JSON export and the
    command-line integration on top.

    Recording is off by default and every probe is a single atomic load
    plus a branch when disabled, so instrumented hot paths (the linear
    solver, the cache) cost nothing in normal runs.

    Thread model: spans are recorded into per-domain buffers (no
    contention on the hot path) and merged on demand, sorted by span id —
    never by completion order — so the merged stream is stable for a
    given execution structure. Counters live in one mutex-protected
    table; their merges are commutative sums, so recording order cannot
    be observed. Snapshots ({!spans}, {!counters}) and {!reset} are meant
    to be taken between parallel regions, when no task is recording. *)

(** {1 Master switch} *)

val set_enabled : bool -> unit
(** Turn recording on or off (process-wide). *)

val enabled : unit -> bool
(** Whether probes currently record. *)

val reset : unit -> unit
(** Drop all recorded spans and counters. Call between parallel
    regions only. *)

val reset_spans : unit -> unit
(** Drop recorded spans only, keeping counters and gauges. A
    long-running daemon calls this per batch to bound span-buffer
    memory without losing its cumulative counters — the [metrics]
    verb reports since-startup totals. Span ids keep counting up
    (they are not reset), so ids stay unique across batches. *)

val now_ns : unit -> int64
(** The monotonic clock probes time spans with — exposed so other
    telemetry (histograms, the serve request timer) shares one
    timebase. *)

(** {1 Spans} *)

val with_span : string -> (unit -> 'a) -> 'a
(** [with_span label f] runs [f], recording a monotonic-clock timed span
    around it when enabled. Spans nest: a span opened while another is
    running on the same domain records it as its parent. Exceptions
    propagate and still close the span. *)

val current_span : unit -> int
(** The id of the innermost open span on this domain, or [-1]. Used to
    hand a parent to work that executes on another domain. *)

val with_parent : int -> (unit -> 'a) -> 'a
(** [with_parent id f] runs [f] with [id] as the ambient parent span, so
    spans opened by [f] on this domain attach below the span that
    scheduled the work (see [Driver.Parallel]). A no-op when disabled or
    when [id] is [-1]. *)

(** A closed span. Times are monotonic-clock nanoseconds. *)
type span = {
  id : int;             (** allocation order: parents have smaller ids *)
  parent : int;         (** enclosing span id, or [-1] for a root *)
  domain : int;         (** id of the domain that ran the span *)
  label : string;
  start_ns : int64;
  stop_ns : int64;
}

val spans : unit -> span list
(** All closed spans, merged across domains and sorted by id. *)

(** {1 Counters}

    A counter is a plain event tally: [count] adds one. Distributions go
    to {!Hist}, levels to the gauges below. *)

val count : string -> unit

val counters : unit -> (string * int) list
(** All counters with at least one event, sorted by name. *)

(** {1 Gauges}

    A gauge holds the {e last} value written — a level, not an event
    tally (bytes resident in a cache, depth of a pending queue, the
    smallest pivot of the last solve). Unlike a counter it can go down,
    and reading it answers "what is the value now". A writer that needs
    the history of a value records it into a {!Hist} instead. *)

val set_gauge : string -> float -> unit
(** Record the current level of a named gauge (last write wins). *)

val gauge : string -> float option
(** Current value of a gauge, or [None] if it was never set (or probes
    were disabled at every write). *)

val gauges : unit -> (string * float) list
(** All gauges with at least one write, sorted by name. *)
