(* The estimator server: a long-running daemon speaking newline-
   delimited JSON, answering from the warm incremental store.

   Framing. One request per line; a *blank line* (or EOF) closes a
   batch. Responses are written one per line, in request order, after
   the whole batch has been processed — so a client that writes N
   lines and a blank line reads exactly N lines back. The framing
   lives in [Driver.Transport].

   One loop. Every carrier is a [Transport.Conn] in one [select] loop:
   stdin/stdout (the default of [bin serve]) is a single connection
   with no listener, whose end of input drains the daemon; a
   Unix-domain socket ([--socket PATH]) adds a listener that accepts
   any number of them. Admission is per connection: a connection has
   at most one batch queued or running, and its later batches wait in
   its buffer. One batch runs per loop turn.

   One request path. Within a batch, the routed requests — [analyze],
   and [scores]/[invalidate] of one name — go through the dispatcher:
   adjacent analyzes fan out together, through [Parallel.map]
   in-process or across the supervised worker pool under [--workers],
   and both run the same per-request handler. The parent owns the
   other verbs ([shutdown], [resize], and the [stats]/[metrics]/
   store-wide [invalidate] that a sharded daemon broadcasts and
   merges); they are sequential barriers between fan-outs.

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
   the fault taxonomy: a bad source degrades exactly one response —
   carrying the fault's stage/exn detail — and never the daemon. A
   worker ships the faults it recorded back with its reply, so the
   parent's log holds every fault of the batch. The log is reset after
   every batch so a long-running daemon's memory stays bounded; clients
   that care read [stats.faults] (the count for the current batch's
   log) before it resets. A [shutdown] answers [ok] and stops after its
   batch; requests *behind* it in the same batch get an error response
   rather than silence, and so do other connections' admitted batches.

   Durability and drain. Under [--store DIR] every intra solution is
   journaled through [Incr]/[Persist] as it is computed, so a restart
   (graceful or [kill -9]) begins warm. SIGTERM/SIGINT only set the
   drain flag: the loop finishes the in-flight batch, takes a final
   snapshot (flushing the journal), reports recorded faults on stderr
   and exits — code 3 if any batch of the daemon's life degraded, 0
   otherwise. *)

module Json = Obs.Json
module Conn = Transport.Conn

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
   of) dispatch: shed, shutdown-drain. *)
let line_id (line : string) : Json.t =
  match parse_request line with Ok rq -> rq.rq_id | Error (id, _) -> id

let name_of (rq : request) : string =
  Option.value ~default:"" (member_str "name" rq.rq_body)

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

(* The [error] object is a fault in the run record's shape; a worker's
   ["__faults"] envelope carries the same objects. *)
let fault_error (id : Json.t) (f : Fault.t) : Json.t =
  Json.Obj
    [ ("id", id); ("ok", Json.Bool false);
      ("error", Run_record.fault_to_json f) ]

let plain_error ?(recovery = "request rejected; daemon keeps serving")
    (id : Json.t) (detail : string) : Json.t =
  fault_error id
    { Fault.f_stage = Fault.Experiment; f_subject = "serve";
      f_detail = detail; f_exn = ""; f_backtrace = ""; f_recovery = recovery }

(* Marker-carrying errors (see the protocol comment above). *)

let with_marker (marker : string) (j : Json.t) : Json.t =
  match j with
  | Json.Obj fields -> Json.Obj (fields @ [ (marker, Json.Bool true) ])
  | j -> j

let overloaded_response (id : Json.t) ~(queue_limit : int) : Json.t =
  with_marker "overloaded"
    (plain_error id
       ~recovery:"request shed before execution; retry after the daemon drains"
       (Printf.sprintf "pending-request queue limit %d exceeded" queue_limit))

(* Worker-lost and supervised-deadline responses are *recorded* faults:
   they count toward [stats.faults] and turn the daemon's eventual exit
   code to 3, same as any other degradation. *)
let worker_fault (id : Json.t) ~(marker : string) (f : Fault.t) : Json.t =
  Fault.record f;
  with_marker marker (fault_error id f)

let worker_lost_response (id : Json.t) ~(name : string) (detail : string) :
    Json.t =
  worker_fault id ~marker:"worker_lost"
    { Fault.f_stage = Fault.Worker; f_subject = name; f_detail = detail;
      f_exn = "worker process died"; f_backtrace = "";
      f_recovery = "worker restarted; request replayed once, then failed" }

let deadline_response (id : Json.t) ~(name : string) (seconds : float) :
    Json.t =
  worker_fault id ~marker:"deadline_exceeded"
    { Fault.f_stage = Fault.Worker; f_subject = name;
      f_detail = Printf.sprintf "request deadline %gs exceeded" seconds;
      f_exn = "worker killed on deadline"; f_backtrace = "";
      f_recovery = "worker restarted; request answered with a deadline fault" }

(* ------------------------------------------------------------------ *)
(* The metrics snapshot: the probe tables ([Trace.snapshot]) plus the
   slow-request log. Schema versioned like the run-record schema; bump
   on any shape change. This is one process's part — what a worker
   answers to [metrics]; the parent merges its own with its shards'
   ([assemble]). *)

let metrics_schema_version = 2

let metrics_payload () : (string * Json.t) list =
  let num i = Json.Num (float_of_int i) in
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
  Trace.snapshot () @ [ ("slow", slow) ]

(* One store's [stats] part: what a worker answers to [stats]. The
   parent adds its own fields ([assemble]). *)
let store_part () : (string * Json.t) list =
  let st = Incr.stats () in
  let num i = Json.Num (float_of_int i) in
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
    ("persisted", Json.Bool st.Incr.st_persisted) ]

(* ------------------------------------------------------------------ *)
(* The per-request handler: every dispatcher runs it — on pool domains
   in-process, inside the owning worker when sharded. *)

(* Last successful analysis per program name, so [scores] can answer
   without re-running anything. Bounded by the number of distinct
   names. A [scores] or [invalidate] of one name may run on a pool
   domain, hence the lock. *)
let last_scores : (string, Score.t list) Hashtbl.t = Hashtbl.create 64
let last_scores_lock = Mutex.create ()

let with_last_scores (f : (string, Score.t list) Hashtbl.t -> 'a) : 'a =
  Mutex.protect last_scores_lock (fun () -> f last_scores)

(* An analysis's scores, kept under its name. Callers apply this in
   request order once a fan-out is over: the handlers of one fan-out
   finish in any order, and of two analyzes of one name the later
   request's scores must win. *)
type remember = (string * Score.t list) option

let remember (r : remember) : unit =
  Option.iter
    (fun (name, scores) ->
      with_last_scores (fun t -> Hashtbl.replace t name scores))
    r

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

(* [analyze]. The cooperative [deadline_s] rides into [Incr.analyze];
   overrunning it raises [Incr.Deadline_exceeded], which becomes a typed
   fault response like any other per-request failure, plus the deadline
   marker. *)
let run_analyze ?(deadline_s : float option) (rq : request) :
    Json.t * remember =
  let reject msg = (plain_error rq.rq_id msg, None) in
  match member_str "name" rq.rq_body with
  | None -> reject "analyze needs a \"name\" field"
  | Some name ->
    (match member_str "source" rq.rq_body with
    | None -> reject "analyze needs a \"source\" field"
    | Some source ->
      (match parse_kinds rq.rq_body with
      | Error msg -> reject msg
      | Ok kinds ->
        (match parse_runs rq.rq_body with
        | Error msg -> reject msg
        | Ok runs ->
          (match Incr.analyze ?kinds ~runs ?deadline_s ~name source with
          | a ->
            ( analysis_response rq.rq_id a,
              Some (a.Incr.an_name, a.Incr.an_scores) )
          | exception e ->
            let f =
              Fault.absorb ~stage:Fault.Experiment ~subject:name
                ~detail:"serve analyze"
                ~recovery:"request answered with an error response" e
                (Printexc.get_raw_backtrace ())
            in
            let resp = fault_error rq.rq_id f in
            ( (match e with
              | Incr.Deadline_exceeded _ -> with_marker "deadline_exceeded" resp
              | _ -> resp),
              None )))))

(* Every verb but [analyze], answered from this process's store. *)
let verb (rq : request) : Json.t =
  match rq.rq_op with
  | "scores" ->
    (match member_str "name" rq.rq_body with
    | None -> plain_error rq.rq_id "scores needs a \"name\" field"
    | Some name ->
      (match with_last_scores (fun t -> Hashtbl.find_opt t name) with
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
      with_last_scores (fun t -> Hashtbl.remove t name);
      ok_response rq.rq_id
        [ ("name", Json.Str name);
          ("dropped", Json.Num (float_of_int dropped)) ]
    | None ->
      Incr.clear ();
      with_last_scores Hashtbl.reset;
      ok_response rq.rq_id [ ("cleared", Json.Bool true) ])
  | "stats" -> ok_response rq.rq_id (store_part ())
  | "metrics" -> ok_response rq.rq_id (metrics_payload ())
  | op -> plain_error rq.rq_id (Printf.sprintf "unknown op %S" op)

(* The handler, timed into [serve.handle.ns]; under [traced], inside a
   ["request"] root span whose id comes back (-1 otherwise), for the
   caller to resolve into a tree once no fan-out is running. *)
let answer ?(deadline_s : float option) ~(traced : bool) (rq : request) :
    Json.t * remember * int =
  let handle () =
    if rq.rq_op = "analyze" then run_analyze ?deadline_s rq else (verb rq, None)
  in
  Obs.Hist.time "serve.handle.ns" (fun () ->
      let (resp, kept), root =
        if traced then Reqtrace.with_root handle else (handle (), -1)
      in
      (resp, kept, root))

(* Where every batch ends — after each batch of the serve loop, and
   after each request in a worker, whose whole batch it is: the fault
   log resets (the responses already carry the detail) and the span
   buffers are dropped, so a long-running daemon's memory stays
   bounded. Counters, gauges and histograms accumulate for [metrics]. *)
let end_batch () : unit =
  Fault.reset ();
  if Obs.Probe.enabled () then Obs.Probe.reset_spans ()

(* The worker side of [--workers]: one request line in, one response
   line out, inside a [Supervise] child that holds its own store shard
   ([Incr.open_store DIR/shard-N]). The faults the request recorded ride
   back in a leading ["__faults"] envelope field: the worker's log
   resets with its batch, and the parent must count them. Chaos
   ([--chaos SEED] arming ["serve.worker-kill"]) kills the worker
   *process* here, by request key — the parent's supervision turns that
   into a typed response. *)
let worker_line ?(deadline_s : float option) (line : string) : string =
  let resp =
    match parse_request line with
    | Error (id, msg) -> plain_error id msg
    | Ok rq ->
      (match member_str "name" rq.rq_body with
      | Some name
        when rq.rq_op = "analyze"
             && Obs.Inject.should_fire "serve.worker-kill" ~key:name ->
        Unix.kill (Unix.getpid ()) Sys.sigkill
      | _ -> ());
      let seq =
        Option.map int_of_float
          (Option.bind (Json.member "__seq" rq.rq_body) Json.to_num)
      in
      let resp, kept, root = answer ?deadline_s ~traced:(seq <> None) rq in
      remember kept;
      (* The span subtree ships by value, tagged with the daemon-assigned
         sequence number for the parent to verify: span ids collide
         across forks. *)
      (match (seq, resp) with
      | Some seq, Json.Obj fields when root >= 0 ->
        (match Reqtrace.tree_of_root root (Obs.Probe.spans ()) with
        | Some tree ->
          Json.Obj
            (( "__spans",
               Json.Obj
                 [ ("seq", Json.Num (float_of_int seq));
                   ("tree", Reqtrace.tree_to_json tree) ] )
            :: fields)
        | None -> resp)
      | _ -> resp)
  in
  let resp =
    match (Fault.sorted (), resp) with
    | (_ :: _ as faults), Json.Obj fields ->
      Json.Obj (("__faults", Json.Arr (List.map Run_record.fault_to_json faults)) :: fields)
    | _ -> resp
  in
  end_batch ();
  Json.to_compact_string resp

(* The parent's side of the envelope, whose fields lead the reply
   object (a client-facing response always starts with its id): strip
   ["__faults"] (recorded here, so a worker's faults count toward
   [stats.faults], the stderr summary and the exit code) and
   ["__spans"] (kept only when the echoed sequence number proves the
   subtree is this request's). A line without them is returned byte
   for byte. *)
let unwrap ~(seq : int) (line : string) : string * Reqtrace.tree option =
  match
    if String.starts_with ~prefix:"{\"__" line then Json.parse line
    else Error ""
  with
  | Ok (Json.Obj fields) ->
    let env, rest =
      List.partition (fun (k, _) -> k = "__faults" || k = "__spans") fields
    in
    (match List.assoc_opt "__faults" env with
    | Some (Json.Arr fs) ->
      List.iter
        (fun j -> Result.iter Fault.record (Run_record.fault_of_json j))
        fs
    | _ -> ());
    let tree =
      match List.assoc_opt "__spans" env with
      | Some e
        when Option.bind (Json.member "seq" e) Json.to_num
             = Some (float_of_int seq) ->
        Option.bind (Json.member "tree" e) Reqtrace.tree_of_json
      | _ -> None
    in
    (Json.to_compact_string (Json.Obj rest), tree)
  | _ -> (line, None)

(* ------------------------------------------------------------------ *)
(* The dispatcher. *)

(* How routed requests get executed: in this process (fanning out
   through the domain pool) or across the supervised worker pool. *)
type dispatcher = Local | Sharded of Supervise.t

(* Run routed requests; one [(slot, outcome, seconds, root)] each,
   whichever the dispatcher. In-process the seconds are the handler's
   own, [root] is the request's span root (resolved into a tree after
   the batch), and the analyses' scores are remembered in slot order
   once the fan-out is over. Sharded, the seconds run from fan-out
   start to reply — queue wait included, which is what the client
   experienced — and [root] is -1: when [seq slot] is [Some n] the
   worker ships its span tree back in the reply. *)
let route ?(deadline_s : float option) ~(seq : int -> int option)
    (dispatcher : dispatcher) (rqs : (int * request) list) :
    (int * Supervise.outcome * float * int) list =
  match dispatcher with
  | Local ->
    Parallel.map
      (fun (slot, rq) ->
        let t0 = Unix.gettimeofday () in
        let resp, kept, root = answer ?deadline_s ~traced:true rq in
        ( (slot, Json.to_compact_string resp, Unix.gettimeofday () -. t0, root),
          kept ))
      rqs
    |> List.map (fun ((slot, line, dur, root), kept) ->
           remember kept;
           (slot, Supervise.Reply line, dur, root))
  | Sharded pool ->
    let forward slot rq =
      match (seq slot, rq.rq_body) with
      | Some s, Json.Obj fields ->
        Json.Obj (fields @ [ ("__seq", Json.Num (float_of_int s)) ])
      | _ -> rq.rq_body
    in
    Supervise.request_many pool
      (List.map
         (fun (slot, rq) ->
           (slot, name_of rq, Json.to_compact_string (forward slot rq)))
         rqs)
    |> List.map (fun (slot, outcome, dur) -> (slot, outcome, dur, -1))

(* The fields of [(shard, part)] objects grouped by name, each with
   its [(shard, value)] list in part order; names in first-seen order,
   or sorted with [~sorted:true]. *)
let by_name ?(sorted = false) (parts : (int * Json.t) list) :
    (string * (int * Json.t) list) list =
  let names =
    List.fold_left
      (fun acc (_, part) ->
        match part with
        | Json.Obj fields ->
          List.fold_left
            (fun acc (k, _) -> if List.mem k acc then acc else k :: acc)
            acc fields
        | _ -> acc)
      [] parts
    |> List.rev
  in
  List.map
    (fun k ->
      ( k,
        List.filter_map
          (fun (shard, part) ->
            Option.map (fun v -> (shard, v)) (Json.member k part))
          parts ))
    (if sorted then List.sort compare names else names)

(* The one shard merge, for [stats] and [metrics] alike, all of it
   order-independent: same-named numbers add (the store fields, each
   counter), booleans OR, histograms bucket-merge. Gauges are NOT summed:
   each shard's level was sampled at a different instant, so a merged
   gauge reports the per-shard maximum, labelled with the shard that
   holds it, plus the full per-shard list ([-1] is the parent). A client
   wanting total store bytes across shards reads [stats.bytes], which
   sums a consistent per-store field instead. Any other field keeps the
   first part's value. *)
let merge_parts (parts : (int * Json.t) list) : (string * Json.t) list =
  let num i = Json.Num (float_of_int i) in
  let value v = Option.value ~default:Float.nan (Json.to_num v) in
  let sum vs =
    Json.Num (List.fold_left (fun acc (_, v) -> acc +. value v) 0.0 vs)
  in
  let gauge per_shard =
    let per_shard = List.map (fun (s, v) -> (s, value v)) per_shard in
    let best_shard, best =
      List.fold_left
        (fun (bs, bv) (s, v) -> if v > bv then (s, v) else (bs, bv))
        (List.hd per_shard) (List.tl per_shard)
    in
    Json.Obj
      [ ("value", Json.Num best); ("shard", num best_shard);
        ( "per_shard",
          Json.Arr
            (List.map (fun (s, v) -> Json.Arr [ num s; Json.Num v ]) per_shard)
        ) ]
  in
  let hist hs =
    Obs.Hist.summary_json
      (List.fold_left Obs.Hist.merge Obs.Hist.empty
         (List.filter_map (fun (_, h) -> Obs.Hist.of_json h) hs))
  in
  let table f vs =
    Json.Obj (List.map (fun (k, v) -> (k, f v)) (by_name ~sorted:true vs))
  in
  List.map
    (fun (field, vs) ->
      ( field,
        match (field, snd (List.hd vs)) with
        | "counters", _ -> table sum vs
        | "gauges", _ -> table gauge vs
        | "hists", _ -> table hist vs
        | _, Json.Num _ -> sum vs
        | _, Json.Bool _ ->
          Json.Bool (List.mem (Json.Bool true) (List.map snd vs))
        | _, v -> v ))
    (by_name parts)

(* The worker pool's supervision fields, zero in-process. *)
let supervision (pool : Supervise.t option) : (string * Json.t) list =
  let sup f = Json.Num (float_of_int (Option.fold ~none:0 ~some:f pool)) in
  [ ("workers", sup Supervise.size); ("workers_alive", sup Supervise.alive);
    ("worker_restarts", sup Supervise.restarts);
    ("worker_lost", sup Supervise.lost) ]

(* The shards' parts, in shard order, without the response's id, ok
   and ["__"] envelope fields; a shard that missed its deadline or was
   lost contributes nothing. *)
let shard_parts (replies : (int * Supervise.outcome) list) :
    (int * Json.t) list =
  let payload (k, _) =
    not (k = "id" || k = "ok" || String.starts_with ~prefix:"__" k)
  in
  List.filter_map
    (fun (shard, o) ->
      match o with
      | Supervise.Reply l ->
        (match Json.parse l with
        | Ok (Json.Obj fields) ->
          Some (shard, Json.Obj (List.filter payload fields))
        | _ -> None)
      | Supervise.Deadline _ | Supervise.Lost _ -> None)
    replies

(* The parent's answer to [stats] and [metrics], in-process and
   sharded alike: the parts merged, then the parent's own fields. A
   [metrics] part is one process's probe tables and slow log; the
   parent's part merges with the shards'. A [stats] part is one store:
   in-process the parent's, sharded only the shards' — the parent opens
   no store, and its empty one would still add its budget. [faults] is
   the parent's count, since a worker's faults reach it through
   ["__faults"]. *)
let assemble (dispatcher : dispatcher) (rq : request) :
    (string * Json.t) list =
  let num i = Json.Num (float_of_int i) in
  let pool, shards =
    match dispatcher with
    | Local -> (None, [])
    | Sharded p ->
      ( Some p,
        shard_parts (Supervise.broadcast p (Json.to_compact_string rq.rq_body))
      )
  in
  (* Re-read per request — a long-running daemon must report the
     repository's rev as it is *now*, not at startup. *)
  let git_rev = ("git_rev", Json.Str (Obs.Envmeta.git_rev ())) in
  match (rq.rq_op, pool) with
  | "stats", None ->
    store_part ()
    @ [ ("jobs", num (Parallel.jobs ()));
        ("pool_size",
         Option.fold ~none:Json.Null ~some:num (Parallel.pool_size ()));
        ("faults", num (Fault.count ())); git_rev ]
  | "stats", Some p ->
    merge_parts shards
    @ [ ("jobs", num (Supervise.size p)); ("pool_size", Json.Null);
        ("faults", num (Fault.count ())); git_rev ]
    @ supervision pool
  | _ ->
    let shard_rows =
      List.map
        (fun (ss : Supervise.shard_state) ->
          Json.Obj
            [ ("shard", num ss.Supervise.ss_shard);
              ("alive", Json.Bool ss.Supervise.ss_alive);
              ("crashes", num ss.Supervise.ss_crashes);
              ("broken", Json.Bool ss.Supervise.ss_broken);
              ("restarts", num ss.Supervise.ss_restarts) ])
        (Option.fold ~none:[] ~some:Supervise.shard_states pool)
    in
    (("schema", num metrics_schema_version)
    :: merge_parts ((-1, Json.Obj (metrics_payload ())) :: shards))
    @ supervision pool
    @ [ ("shards", Json.Arr shard_rows); git_rev ]

(* The verbs the parent owns. [stats] and [metrics] are assembled here
   in both modes; a store-wide [invalidate] is the local handler's
   in-process and broadcast to every shard when sharded. *)
let control (dispatcher : dispatcher) (stop : bool ref) (rq : request) :
    Json.t =
  match (rq.rq_op, dispatcher) with
  | "shutdown", _ ->
    stop := true;
    ok_response rq.rq_id [ ("stopping", Json.Bool true) ]
  | "resize", Sharded _ ->
    plain_error rq.rq_id
      "resize is unavailable with --workers; restart the daemon to change \
       the worker count"
  | "resize", Local ->
    (match Option.bind (Json.member "jobs" rq.rq_body) Json.to_num with
    | None -> plain_error rq.rq_id "resize needs a numeric \"jobs\" field"
    | Some n ->
      Parallel.set_jobs (int_of_float n);
      ok_response rq.rq_id
        [ ("jobs", Json.Num (float_of_int (Parallel.jobs ()))) ])
  | ("stats" | "metrics"), _ ->
    ok_response rq.rq_id (assemble dispatcher rq)
  | "invalidate", Sharded pool ->
    ignore (Supervise.broadcast pool (Json.to_compact_string rq.rq_body));
    ok_response rq.rq_id [ ("cleared", Json.Bool true) ]
  | _, (Local | Sharded _) -> verb rq

(* ------------------------------------------------------------------ *)
(* Batch execution. *)

(* Split a batch into groups, preserving order: maximal runs of
   adjacent analyzes (one fan-out), a [scores]/[invalidate] of one name
   (routed alone, so it sees everything before it), and the parent's
   verbs (barriers). *)
type group =
  | Routed of (int * request) list  (* original indices *)
  | Control of int * request
  | Malformed of int * Json.t  (* ready-made error response *)

let group_requests (lines : string list) : group list =
  let parsed =
    List.mapi (fun i line -> (i, parse_request line)) lines
  in
  let flush_run acc run =
    match run with [] -> acc | run -> Routed (List.rev run) :: acc
  in
  let rec go acc run = function
    | [] -> List.rev (flush_run acc run)
    | (i, Error (id, msg)) :: rest ->
      go (Malformed (i, plain_error id msg) :: flush_run acc run) [] rest
    | (i, Ok rq) :: rest when rq.rq_op = "analyze" ->
      go acc ((i, rq) :: run) rest
    | (i, Ok rq) :: rest
      when (rq.rq_op = "scores" || rq.rq_op = "invalidate")
           && member_str "name" rq.rq_body <> None ->
      go (Routed [ (i, rq) ] :: flush_run acc run) [] rest
    | (i, Ok rq) :: rest ->
      go (Control (i, rq) :: flush_run acc run) [] rest
  in
  go [] [] parsed

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
  rt_tree : Reqtrace.tree option;   (* shipped back with the reply *)
}

(* Requests answered since startup; the source of the sequence numbers
   the daemon assigns at ingress. Only written from the sequential
   batch path. *)
let req_seq = ref 0

let handle_batch ?(deadline_s : float option) ?(dispatcher = Local)
    (stop : bool ref) (lines : string list) : string list =
  let n = List.length lines in
  let responses = Array.make n "" in
  let tracing = Obs.Probe.enabled () && Reqtrace.slow_ms () <> None in
  let seq_base = !req_seq in
  req_seq := !req_seq + n;
  let telemetry : req_telemetry list ref = ref [] in
  let put ?tree ?(root = -1) ?(dur = 0.0) i ~id ~op ~name line =
    responses.(i) <- line;
    if Obs.Probe.enabled () then
      telemetry :=
        { rt_id = id; rt_op = op; rt_name = name; rt_dur_s = dur;
          rt_root = root; rt_tree = tree }
        :: !telemetry
  in
  let reply ?root ?dur i (rq : request) j =
    put ?root ?dur i ~id:rq.rq_id ~op:rq.rq_op ~name:(name_of rq)
      (Json.to_compact_string j)
  in
  let reject (i, rq) = reply i rq (plain_error rq.rq_id "server is shutting down") in
  List.iter
    (function
      | Malformed (i, resp) ->
        put i ~id:(Option.value ~default:Json.Null (Json.member "id" resp))
          ~op:"malformed" ~name:"" (Json.to_compact_string resp)
      | Control (i, rq) when !stop -> reject (i, rq)
      | Routed rqs when !stop -> List.iter reject rqs
      | Control (i, rq) ->
        let t0 = Unix.gettimeofday () in
        let resp, root =
          Reqtrace.with_root (fun () -> control dispatcher stop rq)
        in
        reply ~root ~dur:(Unix.gettimeofday () -. t0) i rq resp
      | Routed rqs ->
        List.iter
          (fun (i, outcome, dur, root) ->
            let rq = List.assoc i rqs in
            let name = name_of rq in
            let line, tree =
              match outcome with
              | Supervise.Reply l -> unwrap ~seq:(seq_base + i) l
              | Supervise.Deadline s ->
                (Json.to_compact_string (deadline_response rq.rq_id ~name s), None)
              | Supervise.Lost d ->
                (Json.to_compact_string (worker_lost_response rq.rq_id ~name d), None)
            in
            (* A worker's tree hangs under a parent-side node covering
               the round trip, labelled with its shard. *)
            let tree =
              match dispatcher with
              | Sharded pool when tracing ->
                Some
                  (Reqtrace.graft ~shard:(Supervise.shard_of pool name)
                     ~roundtrip_ns:(Int64.of_float (dur *. 1e9)) tree)
              | Local | Sharded _ -> tree
            in
            put ?tree ~root ~dur i ~id:rq.rq_id ~op:rq.rq_op ~name line)
          (route ?deadline_s dispatcher rqs
             ~seq:(fun i -> if tracing then Some (seq_base + i) else None)))
    (group_requests lines);
  (* Resolve telemetry after the last fan-out: record every request's
     latency, then slow-log anything over threshold with its tree. One
     span dump serves the whole batch. *)
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
      (List.rev !telemetry)
  end;
  Array.to_list responses

(* ------------------------------------------------------------------ *)
(* The serve loop. *)

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

(* Degradation is cumulative across the daemon's whole life even though
   the fault log resets per batch: any degraded batch turns the
   eventual exit code to 3. *)
let faults_total = ref 0

(* [bin serve]'s end of a batch, before [end_batch] resets the log: its
   faults join the lifetime count and stream to stderr as they happen,
   which is what makes the drain report complete. *)
let note_faults () : unit =
  let c = Fault.count () in
  if c > 0 then begin
    faults_total := !faults_total + c;
    prerr_string (Fault.summary ());
    flush stderr
  end

let shed_responses ~(queue_limit : int) (lines : string list) :
    string list =
  List.map
    (fun line ->
      Obs.Probe.count "serve.shed";
      Json.to_compact_string
        (overloaded_response (line_id line) ~queue_limit))
    lines

(* One [select] loop over the listener, if any, and every connection.
   A connection's completed batches are admitted one at a time: at most
   one is queued or running, the rest wait in its buffer. Past
   [queue_limit] queued *requests* a whole batch is shed with
   per-request [overloaded] errors. One batch runs per turn, so accept
   and read latency stay bounded by one batch, and the loop never
   blocks while an admitted or admissible batch is waiting. After each
   batch [after_batch] runs, then [end_batch]. It returns on
   [shutdown], on [drain], or — with no listener — once every
   connection's input has ended and been answered. Connections the
   listener accepted are closed; the ones passed in belong to the
   caller. *)
let loop ?(deadline_s : float option) ~(dispatcher : dispatcher)
    ~(queue_limit : int) ~(drain : bool ref) ~(after_batch : unit -> unit)
    ?(listener : Unix.file_descr option) (conns : Conn.t list) : unit =
  let conns = ref conns in
  let pending : (Conn.t * string list) Queue.t = Queue.create () in
  let queued = ref 0 in
  let stop = ref false in
  let depth () =
    Obs.Probe.set_gauge "serve.queue_depth" (float_of_int !queued)
  in
  (* Batches run inside the loop turn that takes them, so between turns
     a connection's one admitted batch is the one it has in [pending]. *)
  let admitted c = Seq.exists (fun (c', _) -> c' == c) (Queue.to_seq pending) in
  let rec admit (c : Conn.t) =
    if not (admitted c) then
      match Conn.next_batch c with
      | None -> ()
      | Some lines when !queued + List.length lines > queue_limit ->
        Conn.write_lines c (shed_responses ~queue_limit lines);
        admit c
      | Some lines ->
        Queue.add (c, lines) pending;
        queued := !queued + List.length lines;
        depth ()
  in
  let owned = listener <> None in
  while (not (!stop || !drain)) && (owned || !conns <> []) do
    let ready =
      (not (Queue.is_empty pending)) || List.exists Conn.has_batch !conns
    in
    let fds =
      Option.to_list listener
      @ List.filter_map
          (fun c -> if c.Conn.eof then None else Some c.Conn.in_fd)
          !conns
    in
    (* Signals only set [drain]; EINTR wakes the select, and the idle
       timeout bounds a signal landing just before it. *)
    (match Unix.select fds [] [] (if ready then 0.0 else 1.0) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
      List.iter
        (fun fd ->
          match listener with
          | Some l when fd = l -> (
            match Unix.accept l with
            | cfd, _ -> conns := !conns @ [ Conn.create cfd ]
            | exception Unix.Unix_error _ -> ())
          | _ -> List.iter (fun c -> if c.Conn.in_fd = fd then Conn.feed c) !conns)
        readable);
    List.iter admit !conns;
    if not !drain then begin
      match Queue.take_opt pending with
      | None -> ()
      | Some (c, lines) ->
        queued := !queued - List.length lines;
        depth ();
        Conn.write_lines c (handle_batch ?deadline_s ~dispatcher stop lines);
        after_batch ();
        end_batch ()
    end;
    (* A connection leaves once its input has ended and its last batch
       is answered. *)
    conns :=
      List.filter
        (fun c ->
          let gone = c.Conn.eof && (not (admitted c)) && not (Conn.has_batch c) in
          if gone && owned then Conn.close c;
          not gone)
        !conns
  done;
  (* Admitted-but-unstarted batches get typed errors, not silence. *)
  Queue.iter
    (fun (c, lines) ->
      Conn.write_lines c
        (List.map
           (fun line ->
             Json.to_compact_string
               (plain_error (line_id line) "server is shutting down"))
           lines))
    pending;
  if owned then List.iter Conn.close !conns

(* The embedded daemon (tests; embedded use): the same loop over one
   channel pair, in-process, with no signal handling, no admission
   limit, no fault report and no process exit — returns at end of input
   or on [shutdown]. *)
let serve (ic : in_channel) (oc : out_channel) : unit =
  flush oc;
  loop ~dispatcher:Local ~queue_limit:max_int ~drain:(ref false)
    ~after_batch:ignore
    [ Conn.create ~out:(Unix.descr_of_out_channel oc)
        (Unix.descr_of_in_channel ic) ]

(* The full daemon: [bin serve]. *)
let run (config : config) : 'a =
  (* The daemon IS the telemetry plane: probes record from the first
     request. Span memory stays bounded through the per-batch
     [end_batch]; counters, gauges and histograms accumulate for the
     daemon's life and surface through [metrics]. Enabled before the
     worker forks, so shards inherit it. *)
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
      | Some dir when not (Sys.file_exists dir) ->
        Fault.at_path dir (fun () -> Unix.mkdir dir 0o755)
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
          ~handler:(worker_line ?deadline_s:config.c_deadline_s)
          ()
      in
      Sharded pool
    end
    else begin
      (match config.c_store with
      | None -> ()
      | Some dir ->
        let r = Fault.at_path dir (fun () -> Incr.open_store dir) in
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
  let drain = ref false in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> drain := true));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> drain := true));
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listener =
    Option.map
      (fun p -> Fault.at_path p (fun () -> Transport.listen_unix p))
      config.c_socket
  in
  loop ?deadline_s:config.c_deadline_s ~dispatcher
    ~queue_limit:config.c_queue_limit ~drain ~after_batch:note_faults
    ?listener
    (if listener = None then [ Conn.create ~out:Unix.stdout Unix.stdin ]
     else []);
  Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) listener;
  Option.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) config.c_socket;
  (* Workers see EOF, take their final snapshot and exit — the blocking
     stop is the journal-flush barrier. *)
  (match dispatcher with
  | Sharded pool -> Supervise.stop pool
  | Local -> ());
  Incr.close_store ();
  note_faults ();
  if !faults_total > 0 then
    Printf.eprintf "serve: drained with %d recorded fault(s)\n%!"
      !faults_total;
  exit (if !faults_total > 0 then Fault.degraded_exit_code else 0)

(* ------------------------------------------------------------------ *)
(* A scripting client for the socket carrier: forward stdin's batches
   to the daemon, print one response line per request, exit 0. Exists
   so shell tests and CI need no netcat. Requests are counted as they
   are forwarded; responses are read after stdin closes (fine for the
   small scripted batches this is for — not a streaming proxy). *)

let client ~(socket : string) : 'a =
  let fd = Fault.at_path socket (fun () -> Transport.connect_unix socket) in
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
