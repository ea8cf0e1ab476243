(* Observability subsystem tests: span recording and nesting in
   [Obs.Probe], parent propagation across the [Parallel] pool, counter
   accumulation, and the [Driver.Trace] renderers — including JSON
   validity checked by a small hand-rolled parser (the repository has no
   JSON dependency). Tracing must also be purely observational: the
   differential suites elsewhere in this binary run with it disabled and
   their byte-identity guarantees are unaffected by this module. *)

module Probe = Obs.Probe
module Trace = Driver.Trace
module Parallel = Driver.Parallel
module Json = Obs.Json

(* Each test starts and ends with a clean, disabled recorder so the rest
   of the alcotest binary never sees probe state. *)
let with_recording (f : unit -> 'a) : 'a =
  Probe.reset ();
  Probe.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Probe.set_enabled false;
      Probe.reset ())
    f

(* --- probe layer ------------------------------------------------------ *)

let test_span_nesting () =
  with_recording (fun () ->
      Probe.with_span "outer" (fun () ->
          Probe.with_span "inner" (fun () -> ());
          Probe.with_span "inner" (fun () -> ()));
      let spans = Probe.spans () in
      Alcotest.(check int) "three spans" 3 (List.length spans);
      let outer =
        List.find (fun s -> s.Probe.label = "outer") spans
      in
      Alcotest.(check int) "outer is a root" (-1) outer.Probe.parent;
      List.iter
        (fun s ->
          if s.Probe.label = "inner" then begin
            Alcotest.(check int) "inner nests under outer" outer.Probe.id
              s.Probe.parent;
            Alcotest.(check bool) "stop after start" true
              (Int64.compare s.Probe.stop_ns s.Probe.start_ns >= 0)
          end)
        spans)

let test_span_closes_on_exception () =
  with_recording (fun () ->
      (try Probe.with_span "boom" (fun () -> failwith "x")
       with Failure _ -> ());
      match Probe.spans () with
      | [ s ] -> Alcotest.(check string) "span recorded" "boom" s.Probe.label
      | l -> Alcotest.failf "expected one span, got %d" (List.length l))

let test_disabled_records_nothing () =
  Probe.reset ();
  Probe.set_enabled false;
  Probe.with_span "ghost" (fun () -> Probe.count "ghost.counter");
  Alcotest.(check int) "no spans" 0 (List.length (Probe.spans ()));
  Alcotest.(check int) "no counters" 0 (List.length (Probe.counters ()))

(* Counts from four pool domains at once lose nothing. *)
let test_counters () =
  with_recording (fun () ->
      Parallel.set_jobs 4;
      Fun.protect
        ~finally:(fun () -> Parallel.set_jobs 1)
        (fun () ->
          ignore
            (Parallel.map
               (fun _ ->
                 for _ = 1 to 10_000 do
                   Probe.count "events"
                 done)
               [ 1; 2; 3; 4 ]);
          Alcotest.(check (option int)) "4 × 10 000 counts" (Some 40_000)
            (List.assoc_opt "events" (Probe.counters ()))))

let test_reset () =
  with_recording (fun () ->
      Probe.with_span "s" (fun () -> Probe.count "c");
      Probe.reset ();
      Alcotest.(check int) "spans cleared" 0 (List.length (Probe.spans ()));
      Alcotest.(check int) "counters cleared" 0
        (List.length (Probe.counters ())))

(* Spans opened by pool tasks attach below the span that scheduled the
   fan-out, whichever domain ran them. *)
let test_parent_across_domains () =
  with_recording (fun () ->
      Parallel.set_jobs 4;
      Fun.protect
        ~finally:(fun () -> Parallel.set_jobs 1)
        (fun () ->
          Probe.with_span "fanout" (fun () ->
              ignore
                (Parallel.map
                   (fun i -> Probe.with_span "task" (fun () -> i * i))
                   (List.init 16 Fun.id)));
          let spans = Probe.spans () in
          let fanout =
            List.find (fun s -> s.Probe.label = "fanout") spans
          in
          let tasks =
            List.filter (fun s -> s.Probe.label = "task") spans
          in
          Alcotest.(check int) "all task spans recorded" 16
            (List.length tasks);
          List.iter
            (fun s ->
              Alcotest.(check int) "task parent is the fanout span"
                fanout.Probe.id s.Probe.parent)
            tasks))

let contains (haystack : string) (needle : string) : bool =
  let h = String.length haystack and n = String.length needle in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  at 0

(* --- the shared JSON validity checker --------------------------------- *)

(* The checker itself lives in [Json_check] so the run-record tests can
   use it too; keep its self-test next to its original consumers. *)
let parse_json = Json_check.parse_json

let test_json_checker_self_test () =
  List.iter parse_json
    [ "{}"; "[]"; {|{"a": [1, -2.5e3, "x\n", true, null]}|}; "3.14" ];
  List.iter
    (fun bad ->
      match parse_json bad with
      | exception Json_check.Bad_json _ -> ()
      | () -> Alcotest.failf "accepted invalid JSON %S" bad)
    [ "{"; {|{"a" 1}|}; "[1,]"; "nul"; "1 2"; {|"unterminated|} ]

(* --- trace rendering -------------------------------------------------- *)

(* Record a realistic little workload: a solver call under a pipeline
   stage, plus gauges holding values JSON cannot represent. *)
let record_sample () =
  Probe.with_span "stage" (fun () ->
      let a = Linalg.Matrix.of_rows [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
      ignore (Linalg.Linsolve.solve a [| 5.0; 10.0 |]));
  Probe.set_gauge "weird \"name\"\n" infinity;
  Probe.set_gauge "weird \"name\"\n" nan

let test_render_tree () =
  with_recording (fun () ->
      record_sample ();
      let tree = Trace.render_tree () in
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "tree mentions %S" needle)
            true (contains tree needle))
        [ "stage"; "linsolve"; "linsolve.solve"; "linsolve.pivot" ])

let test_metrics_json_valid () =
  with_recording (fun () ->
      record_sample ();
      let json = Trace.metrics_json () in
      (match parse_json json with
      | () -> ()
      | exception Json_check.Bad_json msg ->
        Alcotest.failf "invalid metrics JSON (%s):\n%s" msg json);
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "document mentions %S" needle)
            true (contains json needle))
        [ {|"jobs"|}; {|"spans"|}; {|"counters"|}; "stage/linsolve";
          "linsolve.pivot" ])

(* One process state, two readers: the counters, gauges and histograms
   of the [--metrics-out] document are those of the in-process [metrics]
   verb (whose gauges carry their level under ["value"]). Probes are off
   while both read, so neither reading records anything. *)
let test_metrics_json_matches_verb () =
  Obs.Hist.reset ();
  with_recording (fun () ->
      record_sample ();
      Probe.count "events";
      Probe.set_enabled false;
      let doc = Json.parse_exn (Trace.metrics_json ()) in
      let verb =
        match
          Driver.Serve.handle_batch (ref false) [ {|{"id":1,"op":"metrics"}|} ]
        with
        | [ line ] -> Json.parse_exn line
        | l -> Alcotest.failf "expected one response, got %d" (List.length l)
      in
      Obs.Hist.reset ();
      let field name j =
        match Json.member name j with
        | Some (Json.Obj fields) -> fields
        | _ -> Alcotest.failf "%s is not an object" name
      in
      let same name a b =
        Alcotest.(check string) name
          (Json.to_compact_string (Json.Obj a))
          (Json.to_compact_string (Json.Obj b))
      in
      same "counters" (field "counters" doc) (field "counters" verb);
      same "gauges" (field "gauges" doc)
        (List.map
           (fun (k, g) ->
             (k, Option.value ~default:Json.Null (Json.member "value" g)))
           (field "gauges" verb));
      same "hists" (field "hists" doc) (field "hists" verb);
      Alcotest.(check bool) "the sample reached every kind" true
        (List.for_all
           (fun k -> field k doc <> [])
           [ "counters"; "gauges"; "hists" ]))

(* The documented end-to-end entry point: reporting runs even when the
   traced computation raises, and the JSON lands on disk. *)
let test_with_reporting_on_failure () =
  Probe.reset ();
  let path = Filename.temp_file "metrics" ".json" in
  (try
     Trace.with_reporting ~trace:false ~metrics_out:(Some path) (fun () ->
         failwith "boom")
   with Failure _ -> ());
  Probe.set_enabled false;
  let ic = open_in path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  Sys.remove path;
  Probe.reset ();
  (match parse_json contents with
  | () -> ()
  | exception Json_check.Bad_json msg ->
    Alcotest.failf "invalid metrics JSON after failure (%s)" msg);
  Alcotest.(check bool) "root run span present" true
    (contains contents {|"path": "run"|})

(* --- one span-tree builder --------------------------------------------- *)

module Reqtrace = Driver.Reqtrace

(* Every reader of the span dump goes through [Reqtrace]'s one builder:
   the slow log's subtree, the [--metrics-out] paths and the run
   record's timings all agree with the forest. The fan-out runs on four
   domains, so the kids of the merged "experiment.task" siblings
   interleave across domains. *)
let test_one_builder () =
  with_recording (fun () ->
      Parallel.set_jobs 4;
      Fun.protect
        ~finally:(fun () -> Parallel.set_jobs 1)
        (fun () ->
          let (), root =
            Probe.with_span "run" (fun () ->
                Reqtrace.with_root (fun () ->
                    ignore
                      (Parallel.map
                         (fun i ->
                           Probe.with_span "experiment.task" (fun () ->
                               for _ = 0 to i mod 3 do
                                 Probe.with_span "inner" (fun () ->
                                     Probe.with_span "leaf" ignore)
                               done))
                         (List.init 12 Fun.id))))
          in
          let spans = Probe.spans () in
          let forest = Reqtrace.forest spans in
          (match forest with
          | [ { Reqtrace.t_label = "run"; t_kids = [ request ]; _ } ] ->
            Alcotest.(check bool) "tree_of_root is the forest's request node"
              true
              (Reqtrace.tree_of_root root spans = Some request)
          | _ -> Alcotest.fail "expected one run root over one request");
          let rec paths prefix (ts : Reqtrace.tree list) =
            List.concat_map
              (fun (t : Reqtrace.tree) ->
                let path = prefix ^ t.t_label in
                (path, t.t_count) :: paths (path ^ "/") t.t_kids)
              ts
          in
          let doc = Json.parse_exn (Trace.metrics_json ()) in
          let rows =
            match Json.member "spans" doc with
            | Some (Json.Arr rows) ->
              List.map
                (fun row ->
                  match
                    ( Option.bind (Json.member "path" row) Json.to_str,
                      Option.bind (Json.member "count" row) Json.to_num )
                  with
                  | Some path, Some count -> (path, int_of_float count)
                  | _ -> Alcotest.fail "span row without path or count")
                rows
            | _ -> Alcotest.fail "no spans array"
          in
          Alcotest.(check (list (pair string int)))
            "metrics_json paths and counts are the forest's"
            (List.sort compare (paths "" forest)) rows;
          Alcotest.(check (list (pair string int)))
            "the inner spans merged across domains"
            [ ("run/request/experiment.task/inner", 24) ]
            (List.filter
               (fun (p, _) -> p = "run/request/experiment.task/inner")
               rows);
          let kept label =
            label = "run" || String.starts_with ~prefix:"experiment." label
          in
          let direct =
            List.filter_map
              (fun (s : Probe.span) ->
                if kept s.Probe.label then Some s.Probe.label else None)
              spans
            |> List.sort compare
            |> List.fold_left
                 (fun acc label ->
                   match acc with
                   | (l, n) :: rest when l = label -> (l, n + 1) :: rest
                   | _ -> (label, 1) :: acc)
                 []
            |> List.rev
          in
          Alcotest.(check (list (pair string int)))
            "timing_summary counts the kept labels of the dump" direct
            (List.map
               (fun (t : Driver.Run_record.timing) ->
                 (t.Driver.Run_record.t_label, t.Driver.Run_record.t_count))
               (Driver.Run_record.timing_summary ()))))

(* A pulled gauge is read at snapshot time: absent while probes are
   off, and kept across [Probe.reset]. The store pulls [incr.bytes]. *)
let test_pulled_gauge () =
  Probe.reset ();
  Probe.set_enabled false;
  Alcotest.(check bool) "absent while probes are disabled" true
    (Probe.gauge "incr.bytes" = None
    && not (List.mem_assoc "incr.bytes" (Probe.gauges ())));
  with_recording (fun () ->
      let bytes = float_of_int (Driver.Incr.stats ()).Driver.Incr.st_bytes in
      Alcotest.(check (option (float 0.0))) "read while enabled" (Some bytes)
        (Probe.gauge "incr.bytes");
      Probe.reset ();
      Alcotest.(check (option (float 0.0))) "kept across a reset" (Some bytes)
        (List.assoc_opt "incr.bytes" (Probe.gauges ())))

let suite =
  [ Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "span closes on exception" `Quick
      test_span_closes_on_exception;
    Alcotest.test_case "disabled records nothing" `Quick
      test_disabled_records_nothing;
    Alcotest.test_case "counters accumulate" `Quick test_counters;
    Alcotest.test_case "reset" `Quick test_reset;
    Alcotest.test_case "parent crosses domains" `Quick
      test_parent_across_domains;
    Alcotest.test_case "json checker self-test" `Quick
      test_json_checker_self_test;
    Alcotest.test_case "render tree" `Quick test_render_tree;
    Alcotest.test_case "metrics json is valid" `Quick test_metrics_json_valid;
    Alcotest.test_case "metrics json matches the metrics verb" `Quick
      test_metrics_json_matches_verb;
    Alcotest.test_case "reporting survives failure" `Quick
      test_with_reporting_on_failure;
    Alcotest.test_case "one span-tree builder" `Quick test_one_builder;
    Alcotest.test_case "pulled gauge" `Quick test_pulled_gauge ]
