(* The result-level observability layer: typed score records, the
   persisted run record, and the baseline drift gate.

   - qcheck round-trips: arbitrary run records encode → (independent
     syntax check) → parse → decode back structurally identical, and
     floats survive Obs.Json bit-exactly;
   - the --metrics-out trace document is readable by the shared
     Obs.Json reader (not just the validity checker);
   - the empty-mean fix: an all-degraded suite renders — markers and
     records a fault instead of silently averaging to 0;
   - drift classification: exact score comparison, a mutated record is
     flagged as drift (the baseline-gate regression test), a degraded
     program is flagged as degraded rather than a score regression,
     added scores and out-of-band timings are typed findings;
   - chaos drift reports are byte-identical at jobs 1 and jobs 4. *)

module Json = Obs.Json
module Score = Driver.Score
module Run_record = Driver.Run_record
module Drift = Driver.Drift
module Experiments = Driver.Experiments
module Fault = Driver.Fault
module Context = Driver.Context
module Parallel = Driver.Parallel
module Inject = Obs.Inject

let contains (haystack : string) (needle : string) : bool =
  let h = String.length haystack and n = String.length needle in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  at 0

(* Tests here run suite experiments under injection; restore an idle
   process around each (see test_fault.ml for the same discipline). *)
let pristine () =
  Inject.disarm_all ();
  Fault.reset ();
  Fault.set_strict false;
  Context.clear ();
  Score.reset ();
  Parallel.set_jobs 1

let shielded (f : unit -> unit) () =
  pristine ();
  Fun.protect ~finally:pristine f

(* --- generators ------------------------------------------------------- *)

let gen_float : float QCheck.Gen.t =
  QCheck.Gen.(
    frequency
      [ (4, float);
        (2, float_bound_inclusive 1.0);
        ( 1,
          oneofl
            [ nan; infinity; neg_infinity; 0.0; -0.0; 1e-308; -1e-308;
              Float.max_float; Float.min_float ] ) ])

let gen_name : string QCheck.Gen.t =
  QCheck.Gen.(
    frequency
      [ (4, string_size ~gen:(char_range 'a' 'z') (int_range 1 12));
        (1, string_size ~gen:printable (int_bound 20));
        (1, string_size ~gen:char (int_bound 20)) ])

let gen_score : Score.t QCheck.Gen.t =
  QCheck.Gen.(
    gen_name >>= fun s_experiment ->
    gen_name >>= fun s_program ->
    gen_name >>= fun s_estimator ->
    oneofl Score.all_metrics >>= fun s_metric ->
    gen_float >>= fun s_param ->
    gen_float >|= fun s_value ->
    { Score.s_experiment; s_program; s_estimator; s_metric; s_param;
      s_value })

let gen_record : Run_record.t QCheck.Gen.t =
  QCheck.Gen.(
    list_size (int_bound 8) (pair gen_name gen_name) >>= fun r_meta ->
    list_size (int_bound 20) gen_score >>= fun r_scores ->
    list_size (int_bound 3) (pair gen_name gen_name) >>= fun degraded ->
    list_size (int_bound 3)
      (triple gen_name (int_bound 1000) gen_float)
    >|= fun timings ->
    { Run_record.r_meta;
      r_scores;
      (* decode maps stages through [Fault.stage_of_string]; keep the
         generated stages inside the taxonomy *)
      r_degraded = List.map (fun (p, _) -> (p, "compile")) degraded;
      r_faults = [];
      r_timings =
        List.map
          (fun (t_label, t_count, t_total_ms) ->
            { Run_record.t_label; t_count; t_total_ms })
          timings })

let arbitrary_record : Run_record.t QCheck.arbitrary =
  QCheck.make ~print:Run_record.encode gen_record

(* --- round-trips ------------------------------------------------------ *)

(* compare-based equality: nan must equal itself for this check. *)
let prop_record_round_trip =
  QCheck.Test.make ~name:"run record encode → parse → decode round-trips"
    ~count:200 arbitrary_record (fun r ->
      let doc = Run_record.encode r in
      (match Json_check.parse_json doc with
      | () -> ()
      | exception Json_check.Bad_json msg ->
        QCheck.Test.fail_reportf "encoder produced invalid JSON (%s):\n%s"
          msg doc);
      match Run_record.decode doc with
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e
      | Ok r' ->
        if compare r r' = 0 then true
        else
          QCheck.Test.fail_reportf "round trip changed the record:\n%s"
            (Run_record.encode r'))

let prop_float_round_trip =
  QCheck.Test.make ~name:"floats survive Obs.Json bit-exactly"
    ~count:500
    (QCheck.make ~print:string_of_float gen_float)
    (fun f ->
      let doc = Json.to_string (Json.Num f) in
      match Json.to_num (Json.parse_exn doc) with
      | None -> QCheck.Test.fail_reportf "no number back from %s" doc
      | Some f' ->
        compare f f' = 0
        || QCheck.Test.fail_reportf "%h round-tripped to %h" f f')

(* The trace document (--metrics-out) must be readable by the shared
   reader, not only syntactically valid. *)
let test_metrics_doc_readable () =
  Obs.Probe.reset ();
  Obs.Probe.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Probe.set_enabled false;
      Obs.Probe.reset ())
    (fun () ->
      Obs.Probe.with_span "stage" (fun () ->
          Obs.Probe.set_gauge "odd \"name\"\n" nan);
      let doc = Driver.Trace.metrics_json () in
      let j = Json.parse_exn doc in
      (match Json.member "spans" j with
      | Some (Json.Arr (_ :: _)) -> ()
      | _ -> Alcotest.fail "spans array missing or empty");
      (match Json.member "gauges" j with
      | Some (Json.Obj [ (name, v) ]) ->
        Alcotest.(check string) "gauge name decodes through escapes"
          "odd \"name\"\n" name;
        Alcotest.(check bool) "non-finite level reads back" true
          (Option.fold ~none:false ~some:Float.is_nan (Json.to_num v))
      | _ -> Alcotest.fail "expected exactly one gauge");
      match Option.bind (Json.member "jobs" j) Json.to_num with
      | Some _ -> ()
      | None -> Alcotest.fail "jobs field missing")

(* --- the empty-mean fix ----------------------------------------------- *)

let test_mean_empty_surfaces_fault () =
  Alcotest.(check bool) "mean [] is nan, not 0"
    true
    (Float.is_nan (Experiments.mean []));
  Alcotest.(check bool) "and it records a fault" true
    (List.exists
       (fun (f : Fault.t) -> f.Fault.f_subject = "mean")
       (Fault.sorted ()))

(* An all-degraded suite: averages must render as markers (never a
   plausible 0.0%) and the missing average goes on the fault record. *)
let test_all_degraded_average_marker () =
  Inject.arm "compile";
  let out =
    match Experiments.find "fig4" with
    | Some f -> f ()
    | None -> Alcotest.fail "fig4 missing"
  in
  Alcotest.(check bool) "every row is degraded" true
    (contains out "queens_mini \xe2\x80\xa0");
  Alcotest.(check bool) "average renders the marker" true
    (contains out "AVERAGE");
  Alcotest.(check bool) "no fake 0.0% average" false (contains out "0.0%");
  Alcotest.(check bool) "missing average is a recorded fault" true
    (List.exists
       (fun (f : Fault.t) ->
         f.Fault.f_subject = "fig4"
         && contains f.Fault.f_detail "no healthy programs")
       (Fault.sorted ()))

(* --- drift classification --------------------------------------------- *)

let mk_score ?(experiment = "fig4") ?(program = "p") ?(estimator = "smart")
    ?(metric = Score.Wm_intra) ?(param = 0.05) value : Score.t =
  { Score.s_experiment = experiment; s_program = program;
    s_estimator = estimator; s_metric = metric; s_param = param;
    s_value = value }

let mk_record ?(scores = []) ?(degraded = []) ?(timings = []) () :
    Run_record.t =
  { Run_record.r_meta = [ ("git_rev", "test") ];
    r_scores = scores;
    r_degraded = degraded;
    r_faults = [];
    r_timings =
      List.map
        (fun (t_label, t_total_ms) ->
          { Run_record.t_label; t_count = 1; t_total_ms })
        timings }

let test_drift_clean () =
  let scores = [ mk_score 0.5; mk_score ~program:"q" nan ] in
  let r = mk_record ~scores () in
  let report = Drift.diff ~baseline:r ~current:r () in
  Alcotest.(check bool) "identical records do not drift (nan included)"
    false (Drift.has_drift report);
  Alcotest.(check int) "every score compared" 2 report.Drift.compared

(* The baseline-gate regression test: one mutated score value must be
   reported as drift. *)
let test_drift_mutated_value () =
  let baseline = mk_record ~scores:[ mk_score 0.5; mk_score ~program:"q" 0.7 ] () in
  let mutated =
    { baseline with
      Run_record.r_scores =
        List.map
          (fun (s : Score.t) ->
            if s.Score.s_program = "q" then { s with Score.s_value = 0.7000001 }
            else s)
          baseline.Run_record.r_scores }
  in
  let report = Drift.diff ~baseline ~current:mutated () in
  Alcotest.(check bool) "mutated record drifts" true (Drift.has_drift report);
  (match report.Drift.findings with
  | [ Drift.Changed (s, v) ] ->
    Alcotest.(check string) "the right score" "q" s.Score.s_program;
    Alcotest.(check (float 1e-12)) "the new value" 0.7000001 v
  | fs -> Alcotest.failf "expected one Changed finding, got %d" (List.length fs));
  Alcotest.(check bool) "render names the score" true
    (contains (Drift.render report) "fig4/q/smart/wm_intra@0.05")

(* The solver epsilon band: solver-derived scores within the band are
   matches (counted separately), non-solver scores never get the band,
   and the default band of 0.0 keeps the gate bit-exact. *)
let test_drift_solver_band () =
  (* fig6_7 scores pass through the Markov solver; fig4/"smart" with a
     non-markov estimator does not *)
  let solver_score v = mk_score ~experiment:"fig6_7" ~estimator:"solved" v in
  let plain_score v = mk_score v in
  Alcotest.(check bool) "predicate: fig6_7 is solver-derived" true
    (Drift.solver_derived (solver_score 1.0));
  Alcotest.(check bool) "predicate: markov estimator is solver-derived" true
    (Drift.solver_derived (mk_score ~estimator:"markov_wl" 1.0));
  Alcotest.(check bool) "predicate: smart/fig4 is not" false
    (Drift.solver_derived (plain_score 1.0));
  Alcotest.(check bool) "within_band has an absolute floor at 1" true
    (Drift.within_band ~band:1e-4 1e-9 2e-9);
  Alcotest.(check bool) "within_band is relative above 1" true
    (Drift.within_band ~band:1e-4 20000.0 20001.0);
  Alcotest.(check bool) "outside the band" false
    (Drift.within_band ~band:1e-4 1.0 1.001);
  let baseline =
    mk_record ~scores:[ solver_score 0.5; plain_score 0.5 ] ()
  in
  let nudged =
    mk_record ~scores:[ solver_score 0.50002; plain_score 0.5 ] ()
  in
  (* default: exact compare — the nudge is drift *)
  let exact_report = Drift.diff ~baseline ~current:nudged () in
  Alcotest.(check bool) "band 0 keeps the gate bit-exact" true
    (Drift.has_drift exact_report);
  (* with the band: a match, counted as banded, and rendered as such *)
  let banded_report =
    Drift.diff ~solver_band:Drift.default_solver_band ~baseline
      ~current:nudged ()
  in
  Alcotest.(check bool) "banded nudge is not drift" false
    (Drift.has_drift banded_report);
  Alcotest.(check int) "banded count" 1 banded_report.Drift.banded;
  Alcotest.(check int) "both scores compared" 2 banded_report.Drift.compared;
  Alcotest.(check bool) "render reports the split" true
    (contains (Drift.render banded_report) "1 within the solver band");
  (* the same nudge on a non-solver score stays drift even with a band *)
  let plain_nudged =
    mk_record ~scores:[ solver_score 0.5; plain_score 0.50002 ] ()
  in
  Alcotest.(check bool) "band never applies to non-solver scores" true
    (Drift.has_drift
       (Drift.diff ~solver_band:Drift.default_solver_band ~baseline
          ~current:plain_nudged ()))

let test_drift_degraded_not_regression () =
  let baseline =
    mk_record ~scores:[ mk_score 0.5; mk_score ~program:"q" 0.7 ] ()
  in
  let current =
    mk_record ~scores:[ mk_score 0.5 ]
      ~degraded:[ ("q", "profile") ] ()
  in
  let report = Drift.diff ~baseline ~current () in
  (match report.Drift.findings with
  | [ Drift.Degraded_program (s, stage) ] ->
    Alcotest.(check string) "degraded program" "q" s.Score.s_program;
    Alcotest.(check string) "carries the stage" "profile" stage
  | fs ->
    Alcotest.failf "expected one Degraded_program finding, got %d"
      (List.length fs));
  Alcotest.(check bool) "flagged in the rendering" true
    (contains (Drift.render report) "degraded")

let test_drift_missing_and_added () =
  let baseline = mk_record ~scores:[ mk_score 0.5 ] () in
  let current = mk_record ~scores:[ mk_score ~program:"new" 0.9 ] () in
  let report = Drift.diff ~baseline ~current () in
  match report.Drift.findings with
  | [ Drift.Missing _; Drift.Added a ] ->
    Alcotest.(check string) "added score" "new" a.Score.s_program
  | fs -> Alcotest.failf "expected Missing+Added, got %d" (List.length fs)

let test_drift_timing_band () =
  let baseline = mk_record ~timings:[ ("run", 1000.0); ("tiny", 0.01) ] () in
  let within = mk_record ~timings:[ ("run", 3000.0); ("tiny", 4.0) ] () in
  Alcotest.(check bool) "3x and sub-floor jitter are in band" false
    (Drift.has_drift (Drift.diff ~baseline ~current:within ()));
  let out = mk_record ~timings:[ ("run", 1000.0 *. 80.0) ] () in
  match (Drift.diff ~baseline ~current:out ()).Drift.findings with
  | [ Drift.Timing_out_of_band ("run", b, c) ] ->
    Alcotest.(check (float 1e-9)) "baseline ms" 1000.0 b;
    Alcotest.(check (float 1e-9)) "current ms" 80000.0 c
  | fs -> Alcotest.failf "expected one timing finding, got %d" (List.length fs)

(* --- jobs invariance of the drift gate -------------------------------- *)

(* Run a representative slice of the suite (plain rows, score tables,
   the keep-filtered fig9) under chaos at jobs 1 and jobs 4, collect a
   run record from each, and require the *drift reports* — not just the
   scores — to be byte-identical. *)
let chaos_record (jobs : int) : Run_record.t =
  pristine ();
  Parallel.set_jobs jobs;
  Fault.arm_chaos ~seed:424242 ();
  List.iter
    (fun id ->
      match Experiments.find id with
      | Some f -> ignore (f ())
      | None -> Alcotest.failf "experiment %s missing" id)
    [ "table1"; "fig2"; "fig4"; "fig9" ];
  let r = Run_record.collect ~meta:[ ("jobs", string_of_int jobs) ] () in
  pristine ();
  r

let test_chaos_drift_jobs_invariant () =
  let r1 = chaos_record 1 in
  let r4 = chaos_record 4 in
  Alcotest.(check bool) "same scores at jobs 1 and 4" true
    (compare r1.Run_record.r_scores r4.Run_record.r_scores = 0);
  Alcotest.(check bool) "same degradations" true
    (compare r1.Run_record.r_degraded r4.Run_record.r_degraded = 0);
  (* diff both against a perturbed baseline: the rendered drift report
     must come out byte-identical *)
  let baseline =
    { r1 with
      Run_record.r_scores =
        List.map
          (fun (s : Score.t) -> { s with Score.s_value = s.Score.s_value +. 0.125 })
          r1.Run_record.r_scores;
      r_timings = [] }
  in
  let render r = Drift.render (Drift.diff ~baseline ~current:r ()) in
  let d1 = render r1 and d4 = render r4 in
  Alcotest.(check string) "drift output identical at jobs 1 and 4" d1 d4;
  Alcotest.(check bool) "and it does report drift" true
    (Drift.has_drift (Drift.diff ~baseline ~current:r1 ()))

(* ---------------------------------------------------------------------- *)

(* Regression (PR 8): [Obs.Envmeta.git_rev] has a freshness contract —
   the ref files are re-read on every call, never memoized per process.
   A long-running consumer (the serve daemon's [stats], every
   [Run_record.collect]) must see a commit made under it on the next
   call. Pinned with a synthetic repo: a detached HEAD swap and a
   branch-ref swap both show up immediately. *)
let test_git_rev_fresh_per_call () =
  let write path contents =
    let oc = open_out path in
    output_string oc contents;
    close_out oc
  in
  let root = Filename.temp_file "gitrev" "" in
  Sys.remove root;
  Sys.mkdir root 0o755;
  let git = Filename.concat root ".git" in
  Sys.mkdir git 0o755;
  let head = Filename.concat git "HEAD" in
  let cwd = Sys.getcwd () in
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir cwd;
      Array.iter
        (fun f -> try Sys.remove (Filename.concat git f) with _ -> ())
        (try Sys.readdir git with _ -> [||]);
      (try Sys.rmdir git with _ -> ());
      try Sys.rmdir root with _ -> ())
    (fun () ->
      Sys.chdir root;
      (* Detached HEAD: the file is the hash. *)
      write head "1111111111111111111111111111111111111111\n";
      Alcotest.(check string) "first read"
        "1111111111111111111111111111111111111111"
        (Obs.Envmeta.git_rev ());
      write head "2222222222222222222222222222222222222222\n";
      Alcotest.(check string) "a HEAD swap is visible on the next call"
        "2222222222222222222222222222222222222222"
        (Obs.Envmeta.git_rev ());
      (* Symbolic HEAD: the loose ref file is what must be re-read. *)
      write head "ref: refs/heads/main\n";
      Sys.mkdir (Filename.concat git "refs") 0o755;
      Sys.mkdir (Filename.concat git "refs/heads") 0o755;
      let branch = Filename.concat git "refs/heads/main" in
      write branch "3333333333333333333333333333333333333333\n";
      Alcotest.(check string) "symbolic HEAD resolves through the ref"
        "3333333333333333333333333333333333333333"
        (Obs.Envmeta.git_rev ());
      write branch "4444444444444444444444444444444444444444\n";
      Alcotest.(check string) "a commit under a live process is visible"
        "4444444444444444444444444444444444444444"
        (Obs.Envmeta.git_rev ());
      Sys.remove branch;
      Sys.rmdir (Filename.concat git "refs/heads");
      Sys.rmdir (Filename.concat git "refs"))

let suite =
  [ QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| 0x5c07e |])
      prop_record_round_trip;
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| 0xf10a7 |])
      prop_float_round_trip;
    Alcotest.test_case "metrics document readable by Obs.Json" `Quick
      test_metrics_doc_readable;
    Alcotest.test_case "mean [] surfaces a fault" `Quick
      (shielded test_mean_empty_surfaces_fault);
    Alcotest.test_case "all-degraded average renders a marker" `Slow
      (shielded test_all_degraded_average_marker);
    Alcotest.test_case "drift: identical records are clean" `Quick
      test_drift_clean;
    Alcotest.test_case "drift: mutated record is flagged" `Quick
      test_drift_mutated_value;
    Alcotest.test_case "drift: solver epsilon band" `Quick
      test_drift_solver_band;
    Alcotest.test_case "drift: degraded program is not a regression" `Quick
      test_drift_degraded_not_regression;
    Alcotest.test_case "drift: missing and added scores" `Quick
      test_drift_missing_and_added;
    Alcotest.test_case "drift: timing tolerance band" `Quick
      test_drift_timing_band;
    Alcotest.test_case "git_rev is re-read on every call" `Quick
      test_git_rev_fresh_per_call;
    Alcotest.test_case "drift report is jobs-invariant under chaos" `Slow
      (shielded test_chaos_drift_jobs_invariant) ]
