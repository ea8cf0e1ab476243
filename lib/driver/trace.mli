(** Structured tracing and metrics for the estimator pipeline.

    The recording layer is {!Obs.Probe} (spans + counters, recorded
    per-domain, merged by span id); this module is the user-facing
    subsystem: it aggregates the recorded stream into a deterministic
    tree, renders it for humans ([--trace]) and exports it as JSON
    ([--metrics-out FILE]) on both [bin/main.exe] and [bench/main.exe].

    Tracing is purely observational: it never touches the analysis
    results, so the differential harness's byte-identity across [--jobs]
    settings holds with tracing on or off. *)

val enable : unit -> unit
(** Turn probe recording on (idempotent). *)

val enabled : unit -> bool

val with_span : string -> (unit -> 'a) -> 'a
(** Re-export of {!Obs.Probe.with_span} for driver-level code. *)

val render_tree : unit -> string
(** The recorded spans as a human-readable tree: spans are merged by
    span id (never completion order), grouped by label under their
    parent, and reported as [count × total-time]. Counters (one number
    each) and gauges follow, sorted by name; then the fault summary
    ({!Fault.summary}), present only when the run degraded somewhere. *)

val snapshot : unit -> (string * Obs.Json.t) list
(** This process's probe tables as three objects, each sorted by name:
    [counters] (name → count), [gauges] (name → last value) and [hists]
    (name → {!Obs.Hist.summary_json}). The [--metrics-out] document and
    the serve daemon's [metrics] verb both carry it. *)

val metrics_json : unit -> string
(** The recorded spans, the {!snapshot} and the faults as a JSON
    document: [{"jobs": n, "spans": [{"path", "count", "total_ms"} ...],
    "counters": {..}, "gauges": {..}, "hists": {..},
    "faults": [{"stage", "subject", "detail", "exn", "recovery"} ...]}].
    Span paths are slash-joined label chains, sorted lexicographically;
    faults follow the deterministic {!Fault.sorted} order ([[]] when the
    run was healthy) — the document layout is deterministic for a given
    execution structure. *)

val with_reporting :
  trace:bool -> metrics_out:string option -> (unit -> 'a) -> 'a
(** [with_reporting ~trace ~metrics_out f] enables recording if either
    output was requested, runs [f] under a root ["run"] span, then
    prints the tree to stderr (when [trace]) and writes the JSON
    document to the given file (when [metrics_out]). Reports are emitted
    even when [f] raises — diagnostics matter most on failure. *)
