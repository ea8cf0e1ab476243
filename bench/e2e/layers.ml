(* Per-layer numbers read from the system's own public counters: the
   incremental store's statistics (in process through [Incr.stats], or
   from a daemon's [stats] verb) and the daemon's [metrics] histograms. *)

module Json = Obs.Json

type store = {
  hits : float;
  misses : float;
  evictions : float;
  bytes : float;
  restored : float;
  journal : float;
  snapshots : float;
}

let of_incr (st : Driver.Incr.stats) : store =
  let f = float_of_int in
  { hits = f st.Driver.Incr.st_hits; misses = f st.Driver.Incr.st_misses;
    evictions = f st.Driver.Incr.st_evictions; bytes = f st.Driver.Incr.st_bytes;
    restored = f st.Driver.Incr.st_restored;
    journal = f st.Driver.Incr.st_journal_entries;
    snapshots = f st.Driver.Incr.st_snapshots }

(* From a [stats] response line. *)
let of_stats_line (line : string) : store =
  let j = match Json.parse line with Ok j -> j | Error _ -> Json.Null in
  let f name = Option.value ~default:0.0 (Option.bind (Json.member name j) Json.to_num) in
  { hits = f "hits"; misses = f "misses"; evictions = f "evictions"; bytes = f "bytes";
    restored = f "restored"; journal = f "journal_entries"; snapshots = f "snapshots" }

(* Counters accumulated between two readings; levels from the later. *)
let delta ~(before : store) (after : store) : store =
  { after with
    hits = after.hits -. before.hits;
    misses = after.misses -. before.misses;
    evictions = after.evictions -. before.evictions }

let no_store =
  { hits = 0.0; misses = 0.0; evictions = 0.0; bytes = 0.0; restored = 0.0;
    journal = 0.0; snapshots = 0.0 }

(* The per-layer metrics of a traced run besides the ledger's: the
   store's counters, the operations the loop sent and completed, the
   spans recorded, and the share of the loop's wall time ([loop_s],
   during which [loop_spans] were recorded) spent recording them. *)
let traced ~(store : store) ~(sent : int) ~(completed : int) ~(loop_spans : int) ~(loop_s : float) :
    (string * float) list =
  let lookups = store.hits +. store.misses in
  [ ("incr.hits", store.hits); ("incr.misses", store.misses);
    ("incr.hit_ratio", if lookups > 0.0 then store.hits /. lookups else 0.0);
    ("incr.evictions", store.evictions); ("incr.bytes", store.bytes);
    ("incr.restored", store.restored); ("persist.journal_entries", store.journal);
    ("persist.snapshots", store.snapshots);
    ("loadgen.sent", float_of_int sent); ("loadgen.completed", float_of_int completed);
    ("trace.spans", float_of_int !Tracer.count);
    ("trace.overhead_pct",
     100.0 *. float_of_int loop_spans *. Tracer.span_cost_ns () /. 1e9 /. loop_s) ]

(* ------------------------------------------------------------------ *)
(* The daemon's latency histograms, from [metrics] responses taken
   before and after a window: bucket counts subtract, so quantiles of
   the difference describe only the window's requests. *)

let hists (line : string) : (string * Obs.Hist.snapshot) list =
  match Json.parse line with
  | Ok j ->
    (match Json.member "hists" j with
    | Some (Json.Obj fields) ->
      List.filter_map (fun (k, v) -> Option.map (fun s -> (k, s)) (Obs.Hist.of_json v)) fields
    | _ -> [])
  | Error _ -> []

let hist_delta ~(before : string) ~(after : string) (name : string) : Obs.Hist.snapshot =
  let get line = Option.value ~default:Obs.Hist.empty (List.assoc_opt name (hists line)) in
  let b = get before and a = get after in
  let buckets =
    List.filter_map
      (fun (i, n) ->
        let n0 = Option.value ~default:0 (List.assoc_opt i b.Obs.Hist.h_buckets) in
        if n - n0 > 0 then Some (i, n - n0) else None)
      a.Obs.Hist.h_buckets
  in
  { Obs.Hist.h_count = a.Obs.Hist.h_count - b.Obs.Hist.h_count;
    h_sum = a.Obs.Hist.h_sum -. b.Obs.Hist.h_sum;
    h_min = a.Obs.Hist.h_min; h_max = a.Obs.Hist.h_max; h_buckets = buckets }

(* p50/p90 of a nanosecond histogram window, in ms; nan when empty. *)
let hist_ms (s : Obs.Hist.snapshot) (q : float) : float =
  if s.Obs.Hist.h_count <= 0 then nan else Obs.Hist.quantile s q /. 1e6
