(* Protocol-level tests for the serve daemon, driven end-to-end: a
   scripted newline-delimited session goes in through a real channel
   pair, [Driver.Serve.serve] runs it to EOF, and the response lines
   are parsed back with the same [Obs.Json] reader the daemon uses.
   What is pinned down:

   - framing: one response line per request line, in request order,
     across multiple blank-line-separated batches;
   - the warm path: a repeated analyze reports a program cache hit,
     zero function misses, and bit-identical scores;
   - typed deadline errors, whether the deadline runs out between
     solves or inside a profiling run;
   - fault isolation: a program that fails to parse produces one error
     response carrying the fault taxonomy, and its batch neighbours
     are answered normally;
   - malformed request lines are answered ([id] null) without killing
     the session;
   - the control verbs: scores, invalidate, stats, resize, shutdown —
     including the rule that requests behind a shutdown in the same
     batch are rejected. *)

module Serve = Driver.Serve
module Incr = Driver.Incr
module Parallel = Driver.Parallel
module Json = Obs.Json

(* Run a scripted session: the request lines (already framed — include
   "" elements for batch separators) go through a temp file pair. The
   daemon always starts from an empty store and jobs = 1 so tests are
   order-independent. *)
(* [run_session_dirty] keeps whatever cache/probe state the test set up
   beforehand — the telemetry tests need to observe a daemon that
   starts mid-life. *)
let rec run_session_dirty (lines : string list) : Json.t list =
  let in_path = Filename.temp_file "serve_in" ".ndjson" in
  let out_path = Filename.temp_file "serve_out" ".ndjson" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove in_path;
      Sys.remove out_path;
      Incr.clear ())
    (fun () ->
      let oc = open_out in_path in
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines;
      close_out oc;
      let ic = open_in in_path in
      let out = open_out out_path in
      Fun.protect
        ~finally:(fun () ->
          close_in_noerr ic;
          close_out_noerr out)
        (fun () -> Serve.serve ic out);
      let ic = open_in out_path in
      let rec read acc =
        match input_line ic with
        | line -> read (Json.parse_exn line :: acc)
        | exception End_of_file ->
          close_in ic;
          List.rev acc
      in
      read [])

and run_session (lines : string list) : Json.t list =
  Incr.clear ();
  Incr.reset_stats ();
  Parallel.set_jobs 1;
  run_session_dirty lines

let req fields = Json.to_compact_string (Json.Obj fields)

let analyze ?(id = 0) name source =
  req
    [ ("id", Json.Num (float_of_int id)); ("op", Json.Str "analyze");
      ("name", Json.Str name); ("source", Json.Str source) ]

let str_field name j =
  match Option.bind (Json.member name j) Json.to_str with
  | Some s -> s
  | None -> Alcotest.failf "response missing string field %S" name

let num_field name j =
  match Option.bind (Json.member name j) Json.to_num with
  | Some n -> n
  | None -> Alcotest.failf "response missing numeric field %S" name

let bool_field name j =
  match Json.member name j with
  | Some (Json.Bool b) -> b
  | _ -> Alcotest.failf "response missing bool field %S" name

let ok_of j = bool_field "ok" j

let id_of j = Option.value ~default:Json.Null (Json.member "id" j)

let good_source = "int f(int x) { return x + 1; }\nint main() { return f(3); }\n"

(* --- framing + the warm path ----------------------------------------- *)

let test_warm_analyze () =
  let responses =
    run_session
      [ analyze ~id:1 "p" good_source; "";
        analyze ~id:2 "p" good_source; "";
        req [ ("id", Json.Num 3.); ("op", Json.Str "shutdown") ] ]
  in
  match responses with
  | [ cold; warm; bye ] ->
    Alcotest.(check bool) "cold ok" true (ok_of cold);
    Alcotest.(check bool) "warm ok" true (ok_of warm);
    Alcotest.(check bool) "ids echoed in order" true
      (id_of cold = Json.Num 1. && id_of warm = Json.Num 2.
      && id_of bye = Json.Num 3.);
    Alcotest.(check bool) "cold pass is not a program hit" false
      (bool_field "program_hit" cold);
    Alcotest.(check bool) "warm pass is a program hit" true
      (bool_field "program_hit" warm);
    Alcotest.(check bool) "cold pass computed something" true
      (num_field "fn_misses" cold > 0.);
    Alcotest.(check (float 0.)) "warm pass recomputed nothing" 0.
      (num_field "fn_misses" warm);
    Alcotest.(check bool) "warm scores bit-identical to cold" true
      (Json.member "scores" cold = Json.member "scores" warm);
    Alcotest.(check bool) "shutdown acknowledged" true
      (bool_field "stopping" bye)
  | rs -> Alcotest.failf "expected 3 responses, got %d" (List.length rs)

(* --- fault isolation -------------------------------------------------- *)

let test_error_isolation () =
  let responses =
    run_session
      [ analyze ~id:1 "good" good_source;
        analyze ~id:2 "bad" "int broken( { return 0; }";
        analyze ~id:3 "also_good" good_source ]
  in
  match responses with
  | [ a; b; c ] ->
    Alcotest.(check bool) "healthy neighbour before" true (ok_of a);
    Alcotest.(check bool) "broken program answered with an error" false
      (ok_of b);
    Alcotest.(check bool) "healthy neighbour after" true (ok_of c);
    let err =
      match Json.member "error" b with
      | Some e -> e
      | None -> Alcotest.fail "error response carries an error object"
    in
    Alcotest.(check string) "fault stage is the request boundary"
      "experiment" (str_field "stage" err);
    Alcotest.(check string) "fault subject is the program name" "bad"
      (str_field "subject" err);
    Alcotest.(check bool) "the parser's own exception is preserved" true
      (let exn = str_field "exn" err in
       String.length exn > 0)
  | rs -> Alcotest.failf "expected 3 responses, got %d" (List.length rs)

let test_malformed_lines () =
  let responses =
    run_session
      [ "this is not json";
        req [ ("op", Json.Str "frobnicate") ];
        req [ ("id", Json.Num 9.); ("name", Json.Str "no_op_field") ];
        analyze ~id:4 "p" good_source ]
  in
  match responses with
  | [ a; b; c; d ] ->
    Alcotest.(check bool) "unparseable line answered, id null" true
      ((not (ok_of a)) && id_of a = Json.Null);
    Alcotest.(check bool) "unknown op answered, id null" true
      ((not (ok_of b)) && id_of b = Json.Null);
    Alcotest.(check bool) "missing op answered with its id" true
      ((not (ok_of c)) && id_of c = Json.Num 9.);
    Alcotest.(check bool) "the session survives all three" true (ok_of d)
  | rs -> Alcotest.failf "expected 4 responses, got %d" (List.length rs)

(* --- control verbs ---------------------------------------------------- *)

let test_scores_invalidate_stats () =
  let responses =
    run_session
      [ analyze ~id:1 "p" good_source; "";
        req
          [ ("id", Json.Num 2.); ("op", Json.Str "scores");
            ("name", Json.Str "p") ];
        req
          [ ("id", Json.Num 3.); ("op", Json.Str "invalidate");
            ("name", Json.Str "p") ];
        req
          [ ("id", Json.Num 4.); ("op", Json.Str "scores");
            ("name", Json.Str "p") ];
        req [ ("id", Json.Num 5.); ("op", Json.Str "stats") ]; "";
        analyze ~id:6 "p" good_source ]
  in
  match responses with
  | [ a; sc; inv; sc2; st; again ] ->
    Alcotest.(check bool) "scores replays the analysis scores" true
      (ok_of sc && Json.member "scores" sc = Json.member "scores" a);
    Alcotest.(check bool) "invalidate reports dropped entries" true
      (ok_of inv && num_field "dropped" inv > 0.);
    Alcotest.(check bool) "scores after invalidate is an error" false
      (ok_of sc2);
    Alcotest.(check bool) "stats exposes the store counters" true
      (ok_of st
      && num_field "hits" st >= 0.
      && num_field "misses" st > 0.
      && num_field "budget" st > 0.
      && num_field "jobs" st = 1.);
    Alcotest.(check bool) "stats re-reads the git rev per call" true
      (String.length (str_field "git_rev" st) > 0);
    (* Invalidation is name-scoped: the compiled program is dropped but
       the content-addressed fn entries survive, so the re-analysis
       recomputes nothing. *)
    Alcotest.(check bool) "re-analysis after invalidate reparses" false
      (bool_field "program_hit" again);
    Alcotest.(check (float 0.)) "but re-solves nothing" 0.
      (num_field "fn_misses" again)
  | rs -> Alcotest.failf "expected 6 responses, got %d" (List.length rs)

let test_resize_and_parallel_batch () =
  let responses =
    run_session
      [ req
          [ ("id", Json.Num 1.); ("op", Json.Str "resize");
            ("jobs", Json.Num 3.) ]; "";
        (* Adjacent analyzes in one batch fan out through the pool. *)
        analyze ~id:2 "a" good_source;
        analyze ~id:3 "b" "int main() { return 42; }\n";
        analyze ~id:4 "c" good_source; "";
        req [ ("id", Json.Num 5.); ("op", Json.Str "stats") ]; "";
        req
          [ ("id", Json.Num 6.); ("op", Json.Str "resize");
            ("jobs", Json.Num 1.) ] ]
  in
  match responses with
  | [ r1; a; b; c; st; r2 ] ->
    Alcotest.(check (float 0.)) "resize echoes the new size" 3.
      (num_field "jobs" r1);
    Alcotest.(check bool) "all three analyzes answered in order" true
      (ok_of a && ok_of b && ok_of c
      && id_of a = Json.Num 2.
      && id_of b = Json.Num 3.
      && id_of c = Json.Num 4.);
    (* "a" and "c" have identical source under different names: the
       second one to run gets every function from the store. *)
    Alcotest.(check bool) "content sharing across names" true
      (num_field "fn_misses" a = 0. || num_field "fn_misses" c = 0.);
    Alcotest.(check (float 0.)) "stats sees the resized pool" 3.
      (num_field "jobs" st);
    Alcotest.(check (float 0.)) "resized back down" 1.
      (num_field "jobs" r2)
  | rs -> Alcotest.failf "expected 6 responses, got %d" (List.length rs)

let test_shutdown_rejects_rest_of_batch () =
  let responses =
    run_session
      [ analyze ~id:1 "p" good_source;
        req [ ("id", Json.Num 2.); ("op", Json.Str "shutdown") ];
        analyze ~id:3 "q" good_source; "";
        (* A whole further batch behind the shutdown: never read. *)
        analyze ~id:4 "r" good_source ]
  in
  match responses with
  | [ a; bye; rejected ] ->
    Alcotest.(check bool) "request ahead of shutdown served" true (ok_of a);
    Alcotest.(check bool) "shutdown acknowledged" true
      (bool_field "stopping" bye);
    Alcotest.(check bool) "request behind shutdown rejected" false
      (ok_of rejected);
    Alcotest.(check bool) "rejected with its own id" true
      (id_of rejected = Json.Num 3.)
  | rs -> Alcotest.failf "expected 3 responses, got %d" (List.length rs)

(* --- typed error payloads: deadline + overload ------------------------ *)

let test_deadline_marker () =
  Incr.clear ();
  Incr.reset_stats ();
  Fun.protect
    ~finally:(fun () ->
      Driver.Fault.reset ();
      Incr.clear ())
    (fun () ->
      (* an unmeetable per-request deadline: the analysis must come back
         as a typed fault carrying the deadline marker, not hang or die *)
      let responses =
        Serve.handle_batch ~deadline_s:1e-9 (ref false)
          [ analyze ~id:7 "slowpoke" good_source ]
      in
      match List.map Json.parse_exn responses with
      | [ r ] ->
        Alcotest.(check bool) "deadline response is an error" false
          (ok_of r);
        Alcotest.(check bool) "it keeps its request id" true
          (id_of r = Json.Num 7.);
        Alcotest.(check bool) "it carries the deadline marker" true
          (bool_field "deadline_exceeded" r);
        Alcotest.(check bool) "the fault exn names the timeout" true
          (let e =
             match Option.bind (Json.member "error" r) (Json.member "exn") with
             | Some (Json.Str s) -> s
             | _ -> Alcotest.fail "fault payload missing error.exn"
           in
           let has_sub s sub =
             let n = String.length s and m = String.length sub in
             let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
             m = 0 || go 0
           in
           has_sub e "Deadline")
      | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs))

(* The same marker when the deadline runs out in the profiling leg: a
   program that never terminates, one run, 200 ms. The interpreter stops
   on the wall clock; that stop is the request's deadline, not a partial
   profile to answer with (or to cache). *)
let test_profile_leg_deadline_marker () =
  Incr.clear ();
  Incr.reset_stats ();
  Fun.protect
    ~finally:(fun () ->
      Driver.Fault.reset ();
      Incr.clear ())
    (fun () ->
      let looping =
        "int main() { int i; i = 0; while (1) { i = i + 1; } return i; }\n"
      in
      let line =
        req
          [ ("id", Json.Num 8.); ("op", Json.Str "analyze");
            ("name", Json.Str "looper"); ("source", Json.Str looping);
            ("runs", Json.Arr [ Json.Obj [ ("input", Json.Str "") ] ]) ]
      in
      let t0 = Unix.gettimeofday () in
      let responses = Serve.handle_batch ~deadline_s:0.2 (ref false) [ line ] in
      Alcotest.(check bool) "the run was stopped near the deadline" true
        (Unix.gettimeofday () -. t0 < 30.0);
      match List.map Json.parse_exn responses with
      | [ r ] ->
        Alcotest.(check bool) "deadline response is an error" false (ok_of r);
        Alcotest.(check bool) "it keeps its request id" true
          (id_of r = Json.Num 8.);
        Alcotest.(check bool) "it carries the deadline marker" true
          (bool_field "deadline_exceeded" r)
      | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs))

let test_overload_shed_shape () =
  let responses =
    Serve.shed_responses ~queue_limit:4
      [ analyze ~id:9 "shed-me" good_source ]
  in
  match List.map Json.parse_exn responses with
  | [ r ] ->
    Alcotest.(check bool) "shed response is an error" false (ok_of r);
    Alcotest.(check bool) "it keeps its request id" true
      (id_of r = Json.Num 9.);
    Alcotest.(check bool) "it carries the overloaded marker" true
      (bool_field "overloaded" r)
  | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs)

(* --- telemetry: metrics verb, slow log, gauge re-publish -------------- *)

module Hist = Obs.Hist
module Probe = Obs.Probe
module Reqtrace = Driver.Reqtrace

(* Telemetry state is process-global; every telemetry test starts from
   a clean plane and restores it, whatever happens. *)
let with_probes (f : unit -> unit) () =
  let clean () =
    Reqtrace.set_slow_ms None;
    Reqtrace.set_slow_sink None;
    Reqtrace.reset_slow ();
    Probe.set_enabled false;
    Probe.reset ();
    Hist.reset ()
  in
  clean ();
  Probe.set_enabled true;
  Fun.protect ~finally:clean f

let member_obj name j =
  match Json.member name j with
  | Some o -> o
  | None -> Alcotest.failf "response missing object field %S" name

let test_metrics_verb () =
  let responses =
    run_session
      [ analyze ~id:1 "metrics_prog" good_source; "";
        req [ ("id", Json.Num 2.); ("op", Json.Str "metrics") ]; "";
        req [ ("id", Json.Num 3.); ("op", Json.Str "shutdown") ] ]
  in
  match responses with
  | [ _; m; _ ] ->
    Alcotest.(check bool) "metrics response is ok" true (ok_of m);
    Alcotest.(check (float 0.0)) "schema version" 2.0 (num_field "schema" m);
    let hists = member_obj "hists" m in
    let request_hist = member_obj "serve.request.ns" hists in
    Alcotest.(check (float 0.0))
      "serve.request.ns counts the one completed request" 1.0
      (num_field "count" request_hist);
    Alcotest.(check bool) "quantiles are published" true
      (Json.member "p99" request_hist <> None);
    Alcotest.(check bool) "the analyze latency histogram is there" true
      (Json.member "incr.analyze.ns" hists <> None);
    let bytes = member_obj "incr.bytes" (member_obj "gauges" m) in
    Alcotest.(check bool) "store gauge is positive" true
      (num_field "value" bytes > 0.0);
    Alcotest.(check (float 0.0)) "unsharded gauge is shard -1" (-1.0)
      (num_field "shard" bytes);
    Alcotest.(check bool) "cache counters are published" true
      (Json.member "incr.miss" (member_obj "counters" m) <> None);
    Alcotest.(check (float 0.0)) "no workers in embedded mode" 0.0
      (num_field "workers" m)
  | rs -> Alcotest.failf "expected 3 responses, got %d" (List.length rs)

let test_slow_log () =
  let sink = Filename.temp_file "serve_slow" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> Sys.remove sink)
    (fun () ->
      Reqtrace.set_slow_ms (Some 0.0);   (* every request is "slow" *)
      Reqtrace.set_slow_sink (Some sink);
      let responses =
        run_session
          [ analyze ~id:1 "slow_prog" good_source; "";
            req [ ("id", Json.Num 2.); ("op", Json.Str "shutdown") ] ]
      in
      Alcotest.(check int) "both requests answered" 2
        (List.length responses);
      Alcotest.(check bool) "the slow log caught the analyze" true
        (Reqtrace.slow_count () >= 1);
      (match Reqtrace.slow_entries () with
      | e :: _ ->
        Alcotest.(check string) "oldest entry is the analyze" "analyze"
          e.Reqtrace.se_op;
        Alcotest.(check string) "it names the program" "slow_prog"
          e.Reqtrace.se_name;
        Alcotest.(check bool) "it echoes the request id" true
          (e.Reqtrace.se_id = Json.Num 1.);
        (match e.Reqtrace.se_tree with
        | Some t ->
          Alcotest.(check string) "the span tree is rooted at request"
            "request" t.Reqtrace.t_label
        | None -> Alcotest.fail "slow entry lost its span tree")
      | [] -> Alcotest.fail "slow ring is empty");
      (* the NDJSON sink carries the same entries, one object a line *)
      let ic = open_in sink in
      let rec read acc =
        match input_line ic with
        | l -> read (Json.parse_exn l :: acc)
        | exception End_of_file ->
          close_in ic;
          List.rev acc
      in
      let lines = read [] in
      Alcotest.(check int) "sink line count matches the ring"
        (Reqtrace.slow_count ()) (List.length lines);
      let first = List.hd lines in
      Alcotest.(check string) "sink entries carry the op" "analyze"
        (str_field "op" first);
      Alcotest.(check bool) "sink entries carry the span tree" true
        (match Json.member "tree" first with
        | Some (Json.Obj _) -> true
        | _ -> false))

(* The pinned regression for stale store gauges: a probe-table reset
   mid-life (exactly what the sharded daemon's per-batch housekeeping
   used to do) dropped [incr.bytes] until the next cache write, so
   [metrics] under-reported the store. The serve loop now re-publishes
   after every batch: the first post-reset snapshot may miss the gauge,
   the next one must have it back at full value. *)
let test_gauge_republish_after_reset () =
  Incr.clear ();
  Incr.reset_stats ();
  Parallel.set_jobs 1;
  ignore (Incr.analyze ~name:"regauge" good_source);
  let before =
    match Probe.gauge "incr.bytes" with
    | Some v when v > 0.0 -> v
    | _ -> Alcotest.fail "analyze did not publish the store gauge"
  in
  Probe.reset ();
  Alcotest.(check bool) "the reset dropped the gauge" true
    (Probe.gauge "incr.bytes" = None);
  let metrics id = req [ ("id", Json.Num (float_of_int id)); ("op", Json.Str "metrics") ] in
  let responses =
    run_session_dirty
      [ metrics 1; ""; metrics 2; "";
        req [ ("id", Json.Num 3.); ("op", Json.Str "shutdown") ] ]
  in
  match responses with
  | [ m1; m2; _ ] ->
    let bytes m =
      Option.bind (Json.member "gauges" m) (Json.member "incr.bytes")
    in
    Alcotest.(check bool)
      "same-batch snapshot still misses the gauge (reset precedes it)"
      true
      (bytes m1 = None);
    (match bytes m2 with
    | Some g ->
      Alcotest.(check (float 0.0))
        "next batch sees the re-published gauge at full value" before
        (num_field "value" g)
    | None ->
      Alcotest.fail
        "gauge still missing one batch later: the per-batch re-publish \
         is gone")
  | rs -> Alcotest.failf "expected 3 responses, got %d" (List.length rs)

let suite =
  [ Alcotest.test_case "warm analyze: program hit, identical scores"
      `Quick test_warm_analyze;
    Alcotest.test_case "a broken program only fails its own request"
      `Quick test_error_isolation;
    Alcotest.test_case "malformed request lines don't kill the session"
      `Quick test_malformed_lines;
    Alcotest.test_case "scores / invalidate / stats round-trip" `Quick
      test_scores_invalidate_stats;
    Alcotest.test_case "resize between batches + parallel fan-out" `Quick
      test_resize_and_parallel_batch;
    Alcotest.test_case "shutdown rejects the rest of the batch" `Quick
      test_shutdown_rejects_rest_of_batch;
    Alcotest.test_case "an unmeetable deadline is a typed fault" `Quick
      test_deadline_marker;
    Alcotest.test_case "a deadline in the profiling leg carries the marker"
      `Quick test_profile_leg_deadline_marker;
    Alcotest.test_case "a shed request is a typed overload error" `Quick
      test_overload_shed_shape;
    Alcotest.test_case "metrics verb: one JSON snapshot of the plane"
      `Quick (with_probes test_metrics_verb);
    Alcotest.test_case "slow log: ring + NDJSON sink carry span trees"
      `Quick (with_probes test_slow_log);
    Alcotest.test_case "store gauge survives a probe reset (regression)"
      `Quick (with_probes test_gauge_republish_after_reset) ]
