(** Mergeable log-bucketed latency histograms with bounded memory.

    HDR-style log-linear bucketing over non-negative integer values
    (the telemetry plane records monotonic-clock nanoseconds): values
    below {!sub_count} land in exact unit buckets; above, each power of
    two is split into {!sub_count} linear sub-buckets, so the relative
    quantization error is bounded by [1/sub_count] (≈ 3.1%) at every
    magnitude while the whole bucket array stays under two kilowords.
    Bucketing is pure integer arithmetic — a value exactly on a bucket
    edge lands in the bucket whose {e lower} edge it is, on every
    platform, deterministically (pinned by test/test_hist.ml).

    Snapshots are plain data: {!merge} sums bucket counts (associative
    and commutative, so per-shard histograms merge in any order to the
    same result — the serve daemon's [metrics] verb relies on this),
    and {!quantile} extracts exact-count quantiles by rank walk: the
    returned value is the lower edge of the bucket holding the ranked
    observation, so quantiles are monotone in [q] and reproducible for
    a given multiset of observations regardless of recording order.

    The named registry mirrors {!Probe}'s discipline: recording is
    gated on the probe master switch (one atomic load when disabled)
    and each histogram carries its own mutex, so concurrent domains
    recording into different metric domains never contend. *)

type t
(** A mutable histogram. *)

val sub_count : int
(** Sub-buckets per power of two (32). *)

val bucket_count : int
(** Total number of buckets (bounded memory: the dense count array). *)

val bucket_of_value : int -> int
(** The bucket index of a value (negative values clamp to 0). *)

val bucket_lower : int -> int
(** The smallest value landing in a bucket — the representative
    {!quantile} reports. [bucket_lower (bucket_of_value v) <= v]. *)

val create : unit -> t
val record : t -> int -> unit
(** Unconditional recording into a standalone histogram (no probe
    gate); negative values clamp to 0. *)

(** {1 Snapshots} *)

(** An immutable view: total count, exact sum/min/max of the recorded
    values, and the sparse non-empty buckets in ascending index order. *)
type snapshot = {
  h_count : int;
  h_sum : float;
  h_min : int;             (** meaningless when [h_count = 0] *)
  h_max : int;
  h_buckets : (int * int) list;  (** (bucket index, count), ascending *)
}

val empty : snapshot
val snapshot : t -> snapshot

val merge : snapshot -> snapshot -> snapshot
(** Associative, commutative, with {!empty} as identity. *)

val quantile : snapshot -> float -> float
(** [quantile s q] is the value at rank [ceil (q * count)] (clamped to
    [1, count]): the lower edge of the bucket holding that observation.
    [nan] on an empty snapshot. Monotone in [q]. *)

val to_json : snapshot -> Json.t
(** [{"count", "sum", "min", "max", "buckets": [[i, n], ...]}] — the
    wire format workers ship to the supervising parent for merging. *)

val of_json : Json.t -> snapshot option

val summary_json : snapshot -> Json.t
(** {!to_json} extended with ["p50"], ["p90"], ["p99"], ["p999"] fields
    (raw recorded units) — what the [metrics] verb publishes. *)

(** {1 Named registry}

    Shares {!Probe}'s master switch: when probes are disabled every
    call is one atomic load and a branch. *)

val observe : string -> int -> unit
(** Record a value into the named histogram (created on first use). *)

val time : string -> (unit -> 'a) -> 'a
(** Run the thunk, recording its monotonic-clock duration in
    nanoseconds into the named histogram when probes are enabled. *)

val all : unit -> (string * snapshot) list
(** Every named histogram with at least one recording, sorted by
    name. *)

val reset : unit -> unit
(** Drop every named histogram (tests; {!Probe.reset} does NOT touch
    histograms — serve's cumulative latency distributions survive the
    per-batch span reset). *)
