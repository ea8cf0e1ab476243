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
      test_with_reporting_on_failure ]
