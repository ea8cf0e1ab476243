(* The estimator server: a long-running daemon speaking newline-
   delimited JSON, answering from the warm incremental store.

   Framing. One request per line; a *blank line* (or EOF) closes a
   batch. All [analyze] requests that are adjacent within a batch fan
   out together — through [Parallel.map] in-process, or across the
   supervised worker pool under [--workers]; the control operations
   ([scores], [invalidate], [stats], [resize], [shutdown]) are
   sequential barriers between fan-outs. Responses are written one per
   line, in request order, after the whole batch has been processed,
   then flushed — so a client that writes N lines and a blank line
   reads exactly N lines back. The framing itself lives in
   [Driver.Transport]; this module is carrier-agnostic and serves the
   same protocol over stdin/stdout ([serve], the default of [bin
   serve]) or a Unix-domain socket ([--socket PATH]).

   Requests:   {"id": .., "op": "analyze", "name": s, "source": s,
                "kinds": [s..]?, "runs": [{"argv": [s..], "input": s}..]?}
               {"id": .., "op": "scores", "name": s}
               {"id": .., "op": "invalidate", "name": s?}
               {"id": .., "op": "stats"}
               {"id": .., "op": "metrics"}
               {"id": .., "op": "resize", "jobs": n}
               {"id": .., "op": "shutdown"}
   Responses:  {"id": .., "ok": true, ...}    (per-op payload below)
             | {"id": .., "ok": false, "error": {"stage": s,
                "subject": s, "detail": s, "exn": s, "recovery": s}}

   Three error responses carry an extra marker field so clients can
   react without parsing detail strings: ["overloaded": true] (the
   request was shed at admission because the pending-request queue was
   full), ["worker_lost": true] (a [--workers] shard died twice on this
   request — once plus one replay — and was restarted), and
   ["deadline_exceeded": true] (the request overran [--deadline-ms]).

   The [id] is echoed verbatim (any JSON value; [null] when the
   request had none or did not parse).

   Fault isolation. Each request body runs under [Fault.capture] with
   the PR-4 taxonomy: a bad source degrades exactly one response —
   carrying the fault's stage/exn detail — and never the daemon. The
   fault log is reset after every batch so a long-running daemon's
   memory stays bounded; clients that care read [stats.faults] (the
   count for the current batch's log) before it resets. A [shutdown]
   answers [ok] and stops after its batch; requests queued *behind* it
   in the same batch get an error response rather than silence.

   Durability and drain. Under [--store DIR] every intra solution is
   journaled through [Incr]/[Persist] as it is computed, so a restart
   (graceful or [kill -9]) begins warm. SIGTERM/SIGINT drain
   gracefully: stop accepting work, finish the in-flight batch, take a
   final snapshot (flushing the journal), report recorded faults on
   stderr and exit — code 3 if any batch of the daemon's life degraded,
   0 otherwise. *)

module Json = Obs.Json

type request = { rq_id : Json.t; rq_op : string; rq_body : Json.t }

(* ------------------------------------------------------------------ *)
(* Parsing. *)

let member_str (name : string) (j : Json.t) : string option =
  Option.bind (Json.member name j) Json.to_str

let parse_request (line : string) : (request, Json.t * string) result =
  match Json.parse line with
  | Error msg -> Error (Json.Null, "request is not valid JSON: " ^ msg)
  | Ok j ->
    let id = Option.value ~default:Json.Null (Json.member "id" j) in
    (match member_str "op" j with
    | None -> Error (id, "request has no \"op\" field")
    | Some op -> Ok { rq_id = id; rq_op = op; rq_body = j })

(* The id of a raw line, for error responses built before (or instead
   of) dispatch: shed, shutdown-drain, client bookkeeping. *)
let line_id (line : string) : Json.t =
  match parse_request line with Ok rq -> rq.rq_id | Error (id, _) -> id

let parse_kinds (j : Json.t) :
    (Core.Pipeline.intra_kind list option, string) result =
  match Json.member "kinds" j with
  | None -> Ok None
  | Some ks ->
    (match Json.to_list ks with
    | None -> Error "\"kinds\" is not an array"
    | Some items ->
      let rec go acc = function
        | [] -> Ok (Some (List.rev acc))
        | item :: rest ->
          (match Option.bind (Json.to_str item) Core.Pipeline.intra_kind_of_string with
          | Some k -> go (k :: acc) rest
          | None ->
            Error
              (Printf.sprintf "unknown intra kind %s"
                 (Json.to_compact_string item)))
      in
      go [] items)

let parse_runs (j : Json.t) :
    (Core.Pipeline.run list, string) result =
  match Json.member "runs" j with
  | None -> Ok []
  | Some rs ->
    (match Json.to_list rs with
    | None -> Error "\"runs\" is not an array"
    | Some items ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | item :: rest ->
          let argv =
            match Option.bind (Json.member "argv" item) Json.to_list with
            | None -> Some []
            | Some l ->
              let strs = List.filter_map Json.to_str l in
              if List.length strs = List.length l then Some strs else None
          in
          let input =
            match Json.member "input" item with
            | None -> Some ""
            | Some v -> Json.to_str v
          in
          (match (argv, input) with
          | Some argv, Some input ->
            go ({ Core.Pipeline.argv; input } :: acc) rest
          | _ -> Error "each run is {\"argv\": [str..], \"input\": str}")
      in
      go [] items)

(* ------------------------------------------------------------------ *)
(* Responses. *)

let ok_response (id : Json.t) (fields : (string * Json.t) list) : Json.t =
  Json.Obj (("id", id) :: ("ok", Json.Bool true) :: fields)

let fault_error (id : Json.t) (f : Fault.t) : Json.t =
  Json.Obj
    [ ("id", id); ("ok", Json.Bool false);
      ("error",
       Json.Obj
         [ ("stage", Json.Str (Fault.stage_to_string f.Fault.f_stage));
           ("subject", Json.Str f.Fault.f_subject);
           ("detail", Json.Str f.Fault.f_detail);
           ("exn", Json.Str f.Fault.f_exn);
           ("recovery", Json.Str f.Fault.f_recovery) ])
    ]

let plain_error (id : Json.t) (detail : string) : Json.t =
  fault_error id
    { Fault.f_stage = Fault.Experiment; f_subject = "serve";
      f_detail = detail; f_exn = ""; f_backtrace = "";
      f_recovery = "request rejected; daemon keeps serving" }

(* Marker-carrying errors (see the protocol comment above). *)

let with_marker (marker : string) (j : Json.t) : Json.t =
  match j with
  | Json.Obj fields -> Json.Obj (fields @ [ (marker, Json.Bool true) ])
  | j -> j

let overloaded_response (id : Json.t) ~(queue_limit : int) : Json.t =
  with_marker "overloaded"
    (fault_error id
       { Fault.f_stage = Fault.Experiment; f_subject = "serve";
         f_detail =
           Printf.sprintf "pending-request queue limit %d exceeded"
             queue_limit;
         f_exn = ""; f_backtrace = "";
         f_recovery =
           "request shed before execution; retry after the daemon drains" })

(* Worker-lost and supervised-deadline responses are *recorded* faults:
   they count toward [stats.faults] and turn the daemon's eventual exit
   code to 3, same as any other degradation. *)

let worker_lost_response (id : Json.t) ~(name : string) (detail : string) :
    Json.t =
  let f =
    { Fault.f_stage = Fault.Worker; f_subject = name; f_detail = detail;
      f_exn = "worker process died"; f_backtrace = "";
      f_recovery = "worker restarted; request replayed once, then failed" }
  in
  Fault.record f;
  with_marker "worker_lost" (fault_error id f)

let deadline_response (id : Json.t) ~(name : string) (seconds : float) :
    Json.t =
  let f =
    { Fault.f_stage = Fault.Worker; f_subject = name;
      f_detail = Printf.sprintf "request deadline %gs exceeded" seconds;
      f_exn = "worker killed on deadline"; f_backtrace = "";
      f_recovery = "worker restarted; request answered with a deadline fault" }
  in
  Fault.record f;
  with_marker "deadline_exceeded" (fault_error id f)

(* ------------------------------------------------------------------ *)
(* The metrics snapshot: one JSON object of every counter, gauge and
   histogram summary, plus the slow-request log. Schema versioned like
   the run-record schema; bump on any shape change. *)

let metrics_schema_version = 1

let metrics_payload () : (string * Json.t) list =
  let num i = Json.Num (float_of_int i) in
  let counters =
    Json.Obj
      (List.map
         (fun (name, c) ->
           ( name,
             Json.Obj
               [ ("hits", num c.Obs.Probe.hits);
                 ("total", Json.Num c.Obs.Probe.total);
                 ("min", Json.Num c.Obs.Probe.vmin);
                 ("max", Json.Num c.Obs.Probe.vmax) ] ))
         (Obs.Probe.counters ()))
  in
  (* Gauges carry a shard label from day one so local and merged
     snapshots parse identically; -1 is "this process" (the parent, or
     an unsharded daemon). *)
  let gauges =
    Json.Obj
      (List.map
         (fun (name, v) ->
           ( name,
             Json.Obj
               [ ("value", Json.Num v); ("shard", num (-1));
                 ("per_shard", Json.Arr [ Json.Arr [ num (-1); Json.Num v ] ])
               ] ))
         (Obs.Probe.gauges ()))
  in
  let hists =
    Json.Obj
      (List.map
         (fun (name, s) -> (name, Obs.Hist.summary_json s))
         (Obs.Hist.all ()))
  in
  let recent =
    let entries = Reqtrace.slow_entries () in
    let skip = List.length entries - 8 in
    List.filteri (fun i _ -> i >= skip) entries
  in
  let slow =
    Json.Obj
      [ ( "threshold_ms",
          match Reqtrace.slow_ms () with
          | None -> Json.Null
          | Some t -> Json.Num t );
        ("count", num (Reqtrace.slow_count ()));
        ("recent", Json.Arr (List.map Reqtrace.slow_entry_to_json recent)) ]
  in
  [ ("schema", num metrics_schema_version);
    ("counters", counters);
    ("gauges", gauges);
    ("hists", hists);
    ("slow", slow);
    ("workers", num 0);
    ("workers_alive", num 0);
    ("worker_restarts", num 0);
    ("worker_lost", num 0);
    ("shards", Json.Arr []);
    ("git_rev", Json.Str (Obs.Envmeta.git_rev ())) ]

(* ------------------------------------------------------------------ *)
(* Per-request handlers. *)

(* Last successful analysis per program name, so [scores] can answer
   without re-running anything. Written only from the sequential merge
   path of [handle_batch] (or, sharded, inside the owning worker);
   bounded by the number of distinct names. *)
let last_scores : (string, Score.t list) Hashtbl.t = Hashtbl.create 64

let scores_json (scores : Score.t list) : Json.t =
  Json.Arr (List.map Run_record.score_to_json scores)

let analysis_response (id : Json.t) (a : Incr.analysis) : Json.t =
  ok_response id
    [ ("name", Json.Str a.Incr.an_name);
      ("program_hit", Json.Bool a.Incr.an_program_hit);
      ("profile_hit",
       match a.Incr.an_profile_hit with
       | None -> Json.Null
       | Some h -> Json.Bool h);
      ("fn_hits", Json.Num (float_of_int a.Incr.an_fn_hits));
      ("fn_misses", Json.Num (float_of_int a.Incr.an_fn_misses));
      ("fn_hashes",
       Json.Obj
         (List.map (fun (fn, h) -> (fn, Json.Str h)) a.Incr.an_fn_hashes));
      ("scores", scores_json a.Incr.an_scores) ]

(* The parallel part of [analyze]: everything except the response-cache
   write, which the merge path does sequentially. The cooperative
   [deadline_s] rides into [Incr.analyze]; overrunning it raises
   [Incr.Deadline_exceeded], which the handler below turns into a typed
   fault response like any other per-request failure, plus the
   deadline marker. *)
let run_analyze ?(deadline_s : float option) (rq : request) :
    (Incr.analysis, Json.t) result =
  match member_str "name" rq.rq_body with
  | None -> Error (plain_error rq.rq_id "analyze needs a \"name\" field")
  | Some name ->
    (match member_str "source" rq.rq_body with
    | None -> Error (plain_error rq.rq_id "analyze needs a \"source\" field")
    | Some source ->
      (match parse_kinds rq.rq_body with
      | Error msg -> Error (plain_error rq.rq_id msg)
      | Ok kinds ->
        (match parse_runs rq.rq_body with
        | Error msg -> Error (plain_error rq.rq_id msg)
        | Ok runs ->
          (match Incr.analyze ?kinds ~runs ?deadline_s ~name source with
          | a -> Ok a
          | exception e ->
            let f =
              Fault.absorb ~stage:Fault.Experiment ~subject:name
                ~detail:"serve analyze"
                ~recovery:"request answered with an error response" e
                (Printexc.get_raw_backtrace ())
            in
            let resp = fault_error rq.rq_id f in
            (match e with
            | Incr.Deadline_exceeded _ ->
              Error (with_marker "deadline_exceeded" resp)
            | _ -> Error resp)))))

let handle_control (stop : bool ref) (rq : request) : Json.t =
  match rq.rq_op with
  | "scores" ->
    (match member_str "name" rq.rq_body with
    | None -> plain_error rq.rq_id "scores needs a \"name\" field"
    | Some name ->
      (match Hashtbl.find_opt last_scores name with
      | None ->
        plain_error rq.rq_id
          (Printf.sprintf "no analysis on record for %S" name)
      | Some scores ->
        ok_response rq.rq_id
          [ ("name", Json.Str name); ("scores", scores_json scores) ]))
  | "invalidate" ->
    (match member_str "name" rq.rq_body with
    | Some name ->
      let dropped = Incr.invalidate ~name in
      Hashtbl.remove last_scores name;
      ok_response rq.rq_id
        [ ("name", Json.Str name);
          ("dropped", Json.Num (float_of_int dropped)) ]
    | None ->
      Incr.clear ();
      Hashtbl.reset last_scores;
      ok_response rq.rq_id [ ("cleared", Json.Bool true) ])
  | "stats" ->
    let st = Incr.stats () in
    let num i = Json.Num (float_of_int i) in
    ok_response rq.rq_id
      [ ("entries", num st.Incr.st_entries);
        ("bytes", num st.Incr.st_bytes);
        ("budget", num st.Incr.st_budget);
        ("hits", num st.Incr.st_hits);
        ("misses", num st.Incr.st_misses);
        ("evictions", num st.Incr.st_evictions);
        ("bypasses", num st.Incr.st_bypasses);
        ("restored", num st.Incr.st_restored);
        ("journal_entries", num st.Incr.st_journal_entries);
        ("snapshots", num st.Incr.st_snapshots);
        ("persisted", Json.Bool st.Incr.st_persisted);
        ("jobs", num (Parallel.jobs ()));
        ("pool_size",
         match Parallel.pool_size () with
         | None -> Json.Null
         | Some s -> num s);
        ("faults", num (Fault.count ()));
        (* Re-read per request — a long-running daemon must report the
           repository's rev as it is *now*, not at startup. *)
        ("git_rev", Json.Str (Obs.Envmeta.git_rev ())) ]
  | "metrics" -> ok_response rq.rq_id (metrics_payload ())
  | "resize" ->
    (match Option.bind (Json.member "jobs" rq.rq_body) Json.to_num with
    | None -> plain_error rq.rq_id "resize needs a numeric \"jobs\" field"
    | Some n ->
      Parallel.set_jobs (int_of_float n);
      ok_response rq.rq_id [ ("jobs", Json.Num (float_of_int (Parallel.jobs ()))) ])
  | "shutdown" ->
    stop := true;
    ok_response rq.rq_id [ ("stopping", Json.Bool true) ]
  | op -> plain_error rq.rq_id (Printf.sprintf "unknown op %S" op)

(* ------------------------------------------------------------------ *)
(* The worker side of [--workers]: handle exactly one request line and
   return one response line. Runs inside a [Supervise] child, which
   has its own store shard attached ([Incr.open_store DIR/shard-N]).
   Chaos ([--chaos SEED] arming ["serve.worker-kill"]) kills the worker
   *process* here, by request key — the parent's supervision, not this
   handler, turns that into a typed response. *)

let handle_one_line ?(deadline_s : float option) (line : string) : string =
  let parsed = parse_request line in
  (* The parent's tracing envelope: ["__trace"] asks for our span
     subtree back; ["__seq"] is the daemon-assigned request id, echoed
     inside the subtree envelope so the parent can verify it grafts the
     right request's spans. *)
  let want_trace =
    match parsed with
    | Ok rq -> Json.member "__trace" rq.rq_body = Some (Json.Bool true)
    | Error _ -> false
  in
  let seq =
    match parsed with
    | Ok rq -> Option.bind (Json.member "__seq" rq.rq_body) Json.to_num
    | Error _ -> None
  in
  let handle () =
    match parsed with
    | Error (id, msg) -> plain_error id msg
    | Ok rq when rq.rq_op = "analyze" ->
      (match member_str "name" rq.rq_body with
      | Some name when Obs.Inject.should_fire "serve.worker-kill" ~key:name
        ->
        Unix.kill (Unix.getpid ()) Sys.sigkill;
        plain_error rq.rq_id "unreachable"
      | _ ->
        (match run_analyze ?deadline_s rq with
        | Ok a ->
          Hashtbl.replace last_scores a.Incr.an_name a.Incr.an_scores;
          analysis_response rq.rq_id a
        | Error resp -> resp))
    | Ok rq -> handle_control (ref false) rq
  in
  let resp, root =
    Obs.Hist.time "serve.handle.ns" (fun () ->
        if want_trace then Reqtrace.with_root handle else (handle (), -1))
  in
  let resp =
    if want_trace && root >= 0 then
      match (Reqtrace.tree_of_root root (Obs.Probe.spans ()), resp) with
      | Some tree, Json.Obj fields ->
        Json.Obj
          (fields
          @ [ ( "__spans",
                Json.Obj
                  [ ( "seq",
                      match seq with Some s -> Json.Num s | None -> Json.Null
                    );
                    ("tree", Reqtrace.tree_to_json tree) ] ) ])
      | _ -> resp
    else resp
  in
  let s = Json.to_compact_string resp in
  (* One request is this process's whole batch: reset the log after the
     response (which already carries any fault detail) is built. Store
     gauges are re-published and span buffers dropped for the same
     bounded-memory reason — counters and histograms accumulate for the
     life of the worker; [metrics] reads them. *)
  Fault.reset ();
  Incr.republish_gauges ();
  if Obs.Probe.enabled () then Obs.Probe.reset_spans ();
  s

(* ------------------------------------------------------------------ *)
(* Batch execution. *)

(* Split a batch into maximal runs of adjacent analyzes (parallel) and
   single control requests (barriers), preserving order. *)
type group =
  | Analyzes of (int * request) list  (* original indices *)
  | Control of int * request
  | Malformed of int * Json.t  (* ready-made error response *)

let group_requests (lines : string list) : group list =
  let parsed =
    List.mapi (fun i line -> (i, parse_request line)) lines
  in
  let flush_run acc run =
    match run with [] -> acc | run -> Analyzes (List.rev run) :: acc
  in
  let rec go acc run = function
    | [] -> List.rev (flush_run acc run)
    | (i, Error (id, msg)) :: rest ->
      go (Malformed (i, plain_error id msg) :: flush_run acc run) [] rest
    | (i, Ok rq) :: rest when rq.rq_op = "analyze" ->
      go acc ((i, rq) :: run) rest
    | (i, Ok rq) :: rest ->
      go (Control (i, rq) :: flush_run acc run) [] rest
  in
  go [] [] parsed

(* How a batch's requests get executed: in this process (fanning out
   through the domain pool) or across the supervised worker pool. *)
type dispatcher = Local | Sharded of Supervise.t

(* Aggregate [stats] across every shard: per-store numeric fields sum;
   [faults] additionally counts the parent's own supervision faults;
   pool-shape fields come from the parent, which owns the pool. *)
let sum_fields =
  [ "entries"; "bytes"; "budget"; "hits"; "misses"; "evictions";
    "bypasses"; "restored"; "journal_entries"; "snapshots"; "faults" ]

let merge_stats (pool : Supervise.t) (id : Json.t)
    (replies : (int * Supervise.outcome) list) : Json.t =
  let sums = Hashtbl.create 16 in
  let persisted = ref false in
  List.iter
    (fun (_, o) ->
      match o with
      | Supervise.Reply line ->
        (match Json.parse line with
        | Error _ -> ()
        | Ok j ->
          List.iter
            (fun f ->
              match Option.bind (Json.member f j) Json.to_num with
              | Some v ->
                Hashtbl.replace sums f
                  ((try Hashtbl.find sums f with Not_found -> 0.0) +. v)
              | None -> ())
            sum_fields;
          (match Json.member "persisted" j with
          | Some (Json.Bool true) -> persisted := true
          | _ -> ()))
      | Supervise.Deadline _ | Supervise.Lost _ -> ())
    replies;
  let get f = try Hashtbl.find sums f with Not_found -> 0.0 in
  let num v = Json.Num v in
  ok_response id
    (List.map
       (fun f ->
         if f = "faults" then
           (f, num (get f +. float_of_int (Fault.count ())))
         else (f, num (get f)))
       sum_fields
    @ [ ("persisted", Json.Bool !persisted);
        ("jobs", num (float_of_int (Supervise.size pool)));
        ("pool_size", Json.Null);
        ("workers", num (float_of_int (Supervise.size pool)));
        ("workers_alive", num (float_of_int (Supervise.alive pool)));
        ("worker_restarts", num (float_of_int (Supervise.restarts pool)));
        ("worker_lost", num (float_of_int (Supervise.lost pool)));
        ("git_rev", Json.Str (Obs.Envmeta.git_rev ())) ])

(* Aggregate [metrics] across the parent and every shard. Counters are
   sums (hits and totals add; min-of-mins, max-of-maxes) and histograms
   are bucket merges — both order-independent. Gauges are NOT summed:
   each shard's level was sampled at a different instant, so the merged
   entry reports the per-shard maximum, labelled with the shard that
   holds it, plus the full per-shard list ([[-1, v] is the parent). A
   client wanting total store bytes across shards reads [stats.bytes],
   which sums a consistent per-store field instead. *)
let merge_metrics (pool : Supervise.t) (id : Json.t)
    (replies : (int * Supervise.outcome) list) : Json.t =
  let num i = Json.Num (float_of_int i) in
  let fnum field j = Option.bind (Json.member field j) Json.to_num in
  let parent = Json.Obj (metrics_payload ()) in
  let sources =
    (-1, parent)
    :: List.filter_map
         (fun (shard, o) ->
           match o with
           | Supervise.Reply l ->
             (match Json.parse l with
             | Ok j -> Some (shard, j)
             | Error _ -> None)
           | Supervise.Deadline _ | Supervise.Lost _ -> None)
         replies
  in
  let counters : (string, float * float * float * float) Hashtbl.t =
    Hashtbl.create 64
  in
  let gauges : (string, (int * float) list) Hashtbl.t = Hashtbl.create 16 in
  let hists : (string, Obs.Hist.snapshot) Hashtbl.t = Hashtbl.create 16 in
  let fold_obj j field f =
    match Json.member field j with
    | Some (Json.Obj entries) -> List.iter f entries
    | _ -> ()
  in
  List.iter
    (fun (shard, j) ->
      fold_obj j "counters" (fun (name, c) ->
          match (fnum "hits" c, fnum "total" c, fnum "min" c, fnum "max" c)
          with
          | Some h, Some t, Some mn, Some mx ->
            let merged =
              match Hashtbl.find_opt counters name with
              | None -> (h, t, mn, mx)
              | Some (h0, t0, mn0, mx0) ->
                (h0 +. h, t0 +. t, Float.min mn0 mn, Float.max mx0 mx)
            in
            Hashtbl.replace counters name merged
          | _ -> ());
      fold_obj j "gauges" (fun (name, g) ->
          match fnum "value" g with
          | Some v ->
            Hashtbl.replace gauges name
              (Option.value ~default:[] (Hashtbl.find_opt gauges name)
              @ [ (shard, v) ])
          | None -> ());
      fold_obj j "hists" (fun (name, h) ->
          match Obs.Hist.of_json h with
          | Some s ->
            let s0 =
              Option.value ~default:Obs.Hist.empty (Hashtbl.find_opt hists name)
            in
            Hashtbl.replace hists name (Obs.Hist.merge s0 s)
          | None -> ()))
    sources;
  let sorted tbl f =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map (fun (k, v) -> (k, f v))
  in
  let counters_json =
    Json.Obj
      (sorted counters (fun (h, t, mn, mx) ->
           Json.Obj
             [ ("hits", Json.Num h); ("total", Json.Num t);
               ("min", Json.Num mn); ("max", Json.Num mx) ]))
  in
  let gauges_json =
    Json.Obj
      (sorted gauges (fun per_shard ->
           let best_shard, best =
             List.fold_left
               (fun (bs, bv) (s, v) -> if v > bv then (s, v) else (bs, bv))
               (List.hd per_shard) (List.tl per_shard)
           in
           Json.Obj
             [ ("value", Json.Num best); ("shard", num best_shard);
               ( "per_shard",
                 Json.Arr
                   (List.map
                      (fun (s, v) -> Json.Arr [ num s; Json.Num v ])
                      per_shard) ) ]))
  in
  let hists_json = Json.Obj (sorted hists Obs.Hist.summary_json) in
  let shards_json =
    Json.Arr
      (List.map
         (fun (ss : Supervise.shard_state) ->
           Json.Obj
             [ ("shard", num ss.Supervise.ss_shard);
               ("alive", Json.Bool ss.Supervise.ss_alive);
               ("crashes", num ss.Supervise.ss_crashes);
               ("broken", Json.Bool ss.Supervise.ss_broken);
               ("restarts", num ss.Supervise.ss_restarts) ])
         (Supervise.shard_states pool))
  in
  ok_response id
    [ ("schema", num metrics_schema_version);
      ("counters", counters_json);
      ("gauges", gauges_json);
      ("hists", hists_json);
      (* The slow log lives in the parent: slow detection times the
         whole round trip, and only the parent holds merged trees. *)
      ("slow", Option.value ~default:Json.Null (Json.member "slow" parent));
      ("workers", num (Supervise.size pool));
      ("workers_alive", num (Supervise.alive pool));
      ("worker_restarts", num (Supervise.restarts pool));
      ("worker_lost", num (Supervise.lost pool));
      ("shards", shards_json);
      ("git_rev", Json.Str (Obs.Envmeta.git_rev ())) ]

(* One request's telemetry, gathered while its group executes and
   resolved after the whole batch: the histogram recording and slow
   detection need [Probe.spans], which is only safe to snapshot once no
   fan-out is running. *)
type req_telemetry = {
  rt_id : Json.t;                   (* client id, echoed in slow entries *)
  rt_op : string;
  rt_name : string;
  rt_dur_s : float;
  rt_root : int;                    (* local span root, or -1 *)
  rt_tree : Reqtrace.tree option;   (* pre-merged (sharded graft) *)
}

(* Requests answered since startup; the source of [__seq], the request
   id the daemon assigns at ingress. Only written from the sequential
   batch path. *)
let req_seq = ref 0

(* Strip a worker's ["__spans"] envelope off its reply line, returning
   the client-facing line and the shipped tree — only when the echoed
   sequence number proves the subtree belongs to this request. *)
let strip_spans ~(seq : int) (line : string) :
    string * Reqtrace.tree option =
  match Json.parse line with
  | Ok (Json.Obj fields) when List.mem_assoc "__spans" fields ->
    let env = List.assoc "__spans" fields in
    let rest = List.filter (fun (k, _) -> k <> "__spans") fields in
    let tree =
      match Option.bind (Json.member "seq" env) Json.to_num with
      | Some s when int_of_float s = seq ->
        Option.bind (Json.member "tree" env) Reqtrace.tree_of_json
      | _ -> None
    in
    (Json.to_compact_string (Json.Obj rest), tree)
  | Ok _ | Error _ -> (line, None)

let handle_batch ?(deadline_s : float option) ?(dispatcher = Local)
    (stop : bool ref) (lines : string list) : string list =
  let n = List.length lines in
  let responses = Array.make n "" in
  let put i j = responses.(i) <- Json.to_compact_string j in
  let tracing = Obs.Probe.enabled () && Reqtrace.slow_ms () <> None in
  let seq_base = !req_seq in
  req_seq := !req_seq + n;
  let seq_of i = seq_base + i in
  let telemetry : req_telemetry list ref = ref [] in
  let note ?tree ?(root = -1) ~id ~op ~name dur_s =
    if Obs.Probe.enabled () then
      telemetry :=
        { rt_id = id; rt_op = op; rt_name = name; rt_dur_s = dur_s;
          rt_root = root; rt_tree = tree }
        :: !telemetry
  in
  let name_of (rq : request) =
    Option.value ~default:"" (member_str "name" rq.rq_body)
  in
  let now = Unix.gettimeofday in
  (* Plain forwarding for broadcasts; traced forwarding (the tracing
     envelope rides inside the NDJSON request object) for routed
     requests, whose replies come back through [strip_spans]. *)
  let forward (rq : request) : string = Json.to_compact_string rq.rq_body in
  let forward_traced (rq : request) (seq : int) : string =
    if not tracing then forward rq
    else
      match rq.rq_body with
      | Json.Obj fields ->
        Json.to_compact_string
          (Json.Obj
             (fields
             @ [ ("__trace", Json.Bool true);
                 ("__seq", Json.Num (float_of_int seq)) ]))
      | _ -> forward rq
  in
  let unstrip slot line =
    if tracing then strip_spans ~seq:(seq_of slot) line else (line, None)
  in
  List.iter
    (fun group ->
      match group with
      | Malformed (i, resp) ->
        put i resp;
        note ~id:(Option.value ~default:Json.Null (Json.member "id" resp))
          ~op:"malformed" ~name:"" 0.0
      | _ when !stop ->
        let reject i (rq : request) =
          put i (plain_error rq.rq_id "server is shutting down");
          note ~id:rq.rq_id ~op:rq.rq_op ~name:(name_of rq) 0.0
        in
        (match group with
        | Analyzes rqs -> List.iter (fun (i, rq) -> reject i rq) rqs
        | Control (i, rq) -> reject i rq
        | Malformed _ -> ())
      | Control (i, rq) -> (
        let t0 = now () in
        match dispatcher with
        | Local ->
          let resp, root =
            Reqtrace.with_root (fun () -> handle_control stop rq)
          in
          put i resp;
          note ~root ~id:rq.rq_id ~op:rq.rq_op ~name:(name_of rq)
            (now () -. t0)
        | Sharded pool ->
          let finish () =
            note ~id:rq.rq_id ~op:rq.rq_op ~name:(name_of rq) (now () -. t0)
          in
          (match rq.rq_op with
          | "shutdown" ->
            stop := true;
            put i (ok_response rq.rq_id [ ("stopping", Json.Bool true) ]);
            finish ()
          | "resize" ->
            put i
              (plain_error rq.rq_id
                 "resize is unavailable with --workers; restart the \
                  daemon to change the worker count");
            finish ()
          | "stats" ->
            put i
              (merge_stats pool rq.rq_id
                 (Supervise.broadcast pool (forward rq)));
            finish ()
          | "metrics" ->
            put i
              (merge_metrics pool rq.rq_id
                 (Supervise.broadcast pool (forward rq)));
            finish ()
          | "invalidate" when member_str "name" rq.rq_body = None ->
            ignore (Supervise.broadcast pool (forward rq));
            put i (ok_response rq.rq_id [ ("cleared", Json.Bool true) ]);
            finish ()
          | "scores" | "invalidate" -> (
            match member_str "name" rq.rq_body with
            | None ->
              put i
                (plain_error rq.rq_id (rq.rq_op ^ " needs a \"name\" field"));
              finish ()
            | Some name ->
              let shard = Supervise.shard_of pool name in
              let graft wtree =
                if tracing then
                  Some
                    (Reqtrace.graft ~shard
                       ~roundtrip_ns:
                         (Int64.of_float ((now () -. t0) *. 1e9))
                       wtree)
                else None
              in
              (match
                 Supervise.request pool ~key:name (forward_traced rq (seq_of i))
               with
              | Supervise.Reply l ->
                let l, wtree = unstrip i l in
                responses.(i) <- l;
                note ?tree:(graft wtree) ~id:rq.rq_id ~op:rq.rq_op ~name
                  (now () -. t0)
              | Supervise.Deadline s ->
                put i (deadline_response rq.rq_id ~name s);
                note ?tree:(graft None) ~id:rq.rq_id ~op:rq.rq_op ~name
                  (now () -. t0)
              | Supervise.Lost d ->
                put i (worker_lost_response rq.rq_id ~name d);
                note ?tree:(graft None) ~id:rq.rq_id ~op:rq.rq_op ~name
                  (now () -. t0)))
          | op ->
            put i (plain_error rq.rq_id (Printf.sprintf "unknown op %S" op));
            finish ()))
      | Analyzes rqs -> (
        match dispatcher with
        | Local ->
          let outcomes =
            Parallel.map
              (fun (_, rq) ->
                let t0 = now () in
                let outcome, root =
                  Reqtrace.with_root (fun () -> run_analyze ?deadline_s rq)
                in
                (outcome, root, now () -. t0))
              rqs
          in
          List.iter2
            (fun (i, rq) (outcome, root, dur) ->
              note ~root ~id:rq.rq_id ~op:"analyze" ~name:(name_of rq) dur;
              match outcome with
              | Ok a ->
                Hashtbl.replace last_scores a.Incr.an_name a.Incr.an_scores;
                put i (analysis_response rq.rq_id a)
              | Error resp -> put i resp)
            rqs outcomes
        | Sharded pool ->
          let items =
            List.filter_map
              (fun (i, rq) ->
                match member_str "name" rq.rq_body with
                | None ->
                  put i
                    (plain_error rq.rq_id "analyze needs a \"name\" field");
                  note ~id:rq.rq_id ~op:"analyze" ~name:"" 0.0;
                  None
                | Some name ->
                  Some (i, name, forward_traced rq (seq_of i), rq))
              rqs
          in
          let by_slot = List.map (fun (i, _, _, rq) -> (i, rq)) items in
          let outcomes =
            Supervise.request_many_timed pool
              (List.map (fun (i, key, line, _) -> (i, key, line)) items)
          in
          List.iter
            (fun (slot, outcome, dur) ->
              let rq = List.assoc slot by_slot in
              let name =
                Option.value ~default:"?" (member_str "name" rq.rq_body)
              in
              let shard = Supervise.shard_of pool name in
              let graft wtree =
                if tracing then
                  Some
                    (Reqtrace.graft ~shard
                       ~roundtrip_ns:(Int64.of_float (dur *. 1e9))
                       wtree)
                else None
              in
              match outcome with
              | Supervise.Reply l ->
                let l, wtree = unstrip slot l in
                responses.(slot) <- l;
                note ?tree:(graft wtree) ~id:rq.rq_id ~op:"analyze" ~name dur
              | Supervise.Deadline s ->
                put slot (deadline_response rq.rq_id ~name s);
                note ?tree:(graft None) ~id:rq.rq_id ~op:"analyze" ~name dur
              | Supervise.Lost d ->
                put slot (worker_lost_response rq.rq_id ~name d);
                note ?tree:(graft None) ~id:rq.rq_id ~op:"analyze" ~name dur)
            outcomes))
    (group_requests lines);
  (* Resolve telemetry after the last fan-out: record every request's
     latency, then slow-log anything over threshold with its merged
     tree. One span dump serves the whole batch; dropping the spans
     afterwards is what keeps a long-running daemon's memory bounded. *)
  if Obs.Probe.enabled () then begin
    let spans = lazy (Obs.Probe.spans ()) in
    let threshold = Reqtrace.slow_ms () in
    List.iter
      (fun rt ->
        Obs.Hist.observe "serve.request.ns"
          (int_of_float (rt.rt_dur_s *. 1e9));
        let ms = rt.rt_dur_s *. 1000.0 in
        match threshold with
        | Some t when ms >= t ->
          let tree =
            match rt.rt_tree with
            | Some _ as tr -> tr
            | None when rt.rt_root >= 0 ->
              Reqtrace.tree_of_root rt.rt_root (Lazy.force spans)
            | None -> None
          in
          Reqtrace.note_slow ~id:rt.rt_id ~op:rt.rt_op ~name:rt.rt_name ~ms
            tree
        | _ -> ())
      (List.rev !telemetry);
    Obs.Probe.reset_spans ()
  end;
  Array.to_list responses

(* ------------------------------------------------------------------ *)
(* The single-client daemon loop (tests; embedded use). No signal
   handling and no process exit: returns on EOF or [shutdown]. *)

let serve (ic : in_channel) (oc : out_channel) : unit =
  let t = Transport.of_channels ic oc in
  let stop = ref false in
  let rec loop () =
    if not !stop then
      match t.Transport.read_batch () with
      | None -> ()
      | Some lines ->
        t.Transport.write_lines (handle_batch stop lines);
        (* Bound the daemon's memory: the fault log only ever holds the
           current batch's faults. Store gauges are re-published right
           after — a [metrics] call in the next batch must never see the
           cache-size gauge missing because something reset the probe
           tables. *)
        Fault.reset ();
        Incr.republish_gauges ();
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* The full daemon: [bin serve]. *)

type config = {
  c_socket : string option;   (* Unix-domain socket path; None = stdio *)
  c_store : string option;    (* durable store directory *)
  c_workers : int;            (* 0 = in-process *)
  c_deadline_s : float option;
  c_queue_limit : int;        (* pending-request admission limit *)
  c_budget_bytes : int;
  c_jobs : int;
  c_slow_ms : float option;   (* slow-request log threshold *)
  c_slow_log : string option; (* NDJSON sink for slow entries *)
}

let default_config =
  { c_socket = None; c_store = None; c_workers = 0; c_deadline_s = None;
    c_queue_limit = 256; c_budget_bytes = Incr.default_budget;
    c_jobs = Parallel.default_jobs (); c_slow_ms = None; c_slow_log = None }

(* Degradation is cumulative across the daemon's whole life even though
   the fault log resets per batch: any degraded batch turns the
   eventual exit code to 3. *)
let faults_total = ref 0

let note_batch_faults () : unit =
  let c = Fault.count () in
  if c > 0 then begin
    faults_total := !faults_total + c;
    (* The summary is per-batch (the log resets); stream it to stderr
       as it happens so the drain report is complete. *)
    prerr_string (Fault.summary ());
    flush stderr
  end;
  Fault.reset ();
  Incr.republish_gauges ()

let finalize_and_exit ~(dispatcher : dispatcher) () : 'a =
  (* Stop accepting; workers see EOF, take their final snapshot and
     exit — the blocking stop is the journal-flush barrier. *)
  (match dispatcher with
  | Sharded pool -> Supervise.stop pool
  | Local -> ());
  Incr.close_store ();
  note_batch_faults ();
  if !faults_total > 0 then
    Printf.eprintf "serve: drained with %d recorded fault(s)\n%!"
      !faults_total;
  exit (if !faults_total > 0 then Fault.degraded_exit_code else 0)

let shed_responses ~(queue_limit : int) (lines : string list) :
    string list =
  List.map
    (fun line ->
      Obs.Probe.count "serve.shed";
      Json.to_compact_string
        (overloaded_response (line_id line) ~queue_limit))
    lines

(* Channel carrier (stdin/stdout): one client, batches processed as
   they arrive. A drain signal landing while idle (blocked in read)
   finalizes directly from the handler; landing mid-batch it defers to
   the post-batch check, honouring "finish the in-flight batch". *)
let serve_channels ~(dispatcher : dispatcher) ?(deadline_s : float option)
    ~(queue_limit : int) (ic : in_channel) (oc : out_channel) : 'a =
  let t = Transport.of_channels ic oc in
  let drain = ref false in
  let processing = ref false in
  let on_signal (_ : int) =
    if !processing then drain := true
    else finalize_and_exit ~dispatcher ()
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  let stop = ref false in
  let rec loop () =
    if !stop || !drain then finalize_and_exit ~dispatcher ()
    else
      match t.Transport.read_batch () with
      | None -> finalize_and_exit ~dispatcher ()
      | Some lines ->
        let n = List.length lines in
        Obs.Probe.set_gauge "serve.queue_depth" (float_of_int n);
        let responses =
          if n > queue_limit then shed_responses ~queue_limit lines
          else begin
            processing := true;
            let r = handle_batch ?deadline_s ~dispatcher stop lines in
            processing := false;
            r
          end
        in
        t.Transport.write_lines responses;
        Obs.Probe.set_gauge "serve.queue_depth" 0.0;
        note_batch_faults ();
        loop ()
  in
  loop ()

(* Socket carrier: a select loop multiplexing the listener and every
   client connection. Completed batches queue for execution (bounded by
   [queue_limit] *requests*, not batches; past it a whole batch is shed
   with per-request [overloaded] errors); one batch executes per loop
   turn, so accept/read latency stays bounded by one batch. *)
let serve_socket ~(dispatcher : dispatcher) ?(deadline_s : float option)
    ~(queue_limit : int) (path : string) : 'a =
  let listener = Transport.listen_unix path in
  let drain = ref false in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> drain := true));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> drain := true));
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let conns : (Unix.file_descr, Transport.Conn.conn) Hashtbl.t =
    Hashtbl.create 16
  in
  let pending : (Transport.Conn.conn * string list) Queue.t =
    Queue.create ()
  in
  let queued = ref 0 in
  let stop = ref false in
  let publish_depth () =
    Obs.Probe.set_gauge "serve.queue_depth" (float_of_int !queued)
  in
  let admit conn lines =
    let k = List.length lines in
    if !queued + k > queue_limit then
      Transport.Conn.write_lines conn (shed_responses ~queue_limit lines)
    else begin
      Queue.add (conn, lines) pending;
      queued := !queued + k;
      publish_depth ()
    end
  in
  let drain_and_exit () =
    (* Admitted-but-unstarted batches get typed errors, not silence. *)
    Queue.iter
      (fun (conn, lines) ->
        Transport.Conn.write_lines conn
          (List.map
             (fun line ->
               Json.to_compact_string
                 (plain_error (line_id line) "server is shutting down"))
             lines))
      pending;
    Hashtbl.iter (fun _ c -> Transport.Conn.close c) conns;
    (try Unix.close listener with Unix.Unix_error _ -> ());
    (try Sys.remove path with Sys_error _ -> ());
    finalize_and_exit ~dispatcher ()
  in
  let rec loop () =
    if !drain || !stop then drain_and_exit ();
    let fds =
      listener :: Hashtbl.fold (fun fd _ acc -> fd :: acc) conns []
    in
    let timeout = if Queue.is_empty pending then -1.0 else 0.0 in
    (match Unix.select fds [] [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
      List.iter
        (fun fd ->
          if fd = listener then (
            match Unix.accept listener with
            | cfd, _ -> Hashtbl.replace conns cfd (Transport.Conn.create cfd)
            | exception Unix.Unix_error _ -> ())
          else
            match Hashtbl.find_opt conns fd with
            | None -> ()
            | Some conn ->
              List.iter (admit conn) (Transport.Conn.feed conn);
              if Transport.Conn.closed conn then begin
                Hashtbl.remove conns fd;
                Transport.Conn.close conn
              end)
        readable);
    if (not (Queue.is_empty pending)) && not !drain then begin
      let conn, lines = Queue.pop pending in
      queued := !queued - List.length lines;
      publish_depth ();
      let responses = handle_batch ?deadline_s ~dispatcher stop lines in
      Transport.Conn.write_lines conn responses;
      note_batch_faults ()
    end;
    loop ()
  in
  loop ()

let run (config : config) : 'a =
  (* The daemon IS the telemetry plane: probes record from the first
     request. Span memory stays bounded through the per-batch
     [reset_spans] in [handle_batch]; counters, gauges and histograms
     accumulate for the daemon's life and surface through [metrics].
     Enabled before the worker forks, so shards inherit it. *)
  Obs.Probe.set_enabled true;
  Reqtrace.set_slow_ms config.c_slow_ms;
  Reqtrace.set_slow_sink config.c_slow_log;
  Parallel.set_jobs config.c_jobs;
  Incr.set_budget config.c_budget_bytes;
  let dispatcher =
    if config.c_workers > 0 then begin
      (* Workers each attach one shard directory; the parent only
         routes, so it opens no store and must not spawn domains before
         the forks. The lazy [Parallel] pool guarantees this when [run]
         is the process entry point: the sharded paths never call
         [Parallel.map]. The constraint is unforgiving — OCaml 5 refuses
         [fork] in a process that has EVER spawned a domain, even after
         they are joined — so a hosting process that already fanned out
         cannot start a sharded server; [Supervise.start] will raise,
         loudly, rather than limp. *)
      (match config.c_store with
      | Some dir when not (Sys.file_exists dir) -> Unix.mkdir dir 0o755
      | _ -> ());
      let pool =
        Supervise.start ~workers:config.c_workers
          ?deadline_s:(Option.map (fun d -> d +. 1.0) config.c_deadline_s)
          ~init:(fun ~shard ->
            Incr.set_budget config.c_budget_bytes;
            match config.c_store with
            | None -> ()
            | Some dir ->
              ignore
                (Incr.open_store
                   (Filename.concat dir (Printf.sprintf "shard-%d" shard))))
          ~finalize:(fun ~shard:_ -> Incr.close_store ())
          ~handler:(handle_one_line ?deadline_s:config.c_deadline_s)
          ()
      in
      Sharded pool
    end
    else begin
      (match config.c_store with
      | None -> ()
      | Some dir ->
        let r = Incr.open_store dir in
        if r.Incr.rs_truncated then
          prerr_endline
            "serve: store tail truncated on load (torn or corrupt entry)";
        Printf.eprintf "serve: restored %d entr%s from %s\n%!"
          r.Incr.rs_restored
          (if r.Incr.rs_restored = 1 then "y" else "ies")
          dir);
      Local
    end
  in
  match config.c_socket with
  | Some path ->
    serve_socket ~dispatcher ?deadline_s:config.c_deadline_s
      ~queue_limit:config.c_queue_limit path
  | None ->
    serve_channels ~dispatcher ?deadline_s:config.c_deadline_s
      ~queue_limit:config.c_queue_limit stdin stdout

(* ------------------------------------------------------------------ *)
(* A scripting client for the socket carrier: forward stdin's batches
   to the daemon, print one response line per request, exit 0. Exists
   so shell tests and CI need no netcat. Requests are counted as they
   are forwarded; responses are read after stdin closes (fine for the
   small scripted batches this is for — not a streaming proxy). *)

let client ~(socket : string) : 'a =
  let fd = Transport.connect_unix socket in
  let sock_ic = Unix.in_channel_of_descr fd in
  let sock_oc = Unix.out_channel_of_descr fd in
  let expected = ref 0 in
  (try
     while true do
       let line = input_line stdin in
       output_string sock_oc line;
       output_char sock_oc '\n';
       if line <> "" then incr expected
     done
   with End_of_file -> ());
  (* Close the final batch whether or not the input did. *)
  output_char sock_oc '\n';
  flush sock_oc;
  let rec read_replies n =
    if n > 0 then
      match input_line sock_ic with
      | exception End_of_file ->
        prerr_endline "serve client: daemon closed the connection early";
        exit 1
      | line ->
        print_endline line;
        read_replies (n - 1)
  in
  read_replies !expected;
  exit 0
