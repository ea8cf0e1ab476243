(* Tests of the benchmark's own helpers, and a smoke run of every
   workload at 1/50 scale through the real command. *)

open Bench_e2e

let feq = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Percentiles. *)

let test_percentile () =
  let a = Stats.sorted (List.init 10 (fun i -> float_of_int (10 - i))) in
  feq "p50 of 1..10 is the 5th value" 5.0 (Stats.percentile a 0.5);
  feq "p90 of 1..10 is the 9th value" 9.0 (Stats.percentile a 0.9);
  feq "p99 of 1..10 is the maximum" 10.0 (Stats.percentile a 0.99);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Stats.percentile [||] 0.5))

let test_highest_supported () =
  let check n want =
    Alcotest.(check (option (float 0.0)))
      (Printf.sprintf "n = %d" n) want (Stats.highest_supported n)
  in
  (* The highest percentile with at least ten samples beyond it. *)
  check 19 None;
  check 20 (Some 0.5);
  check 99 (Some 0.5);
  check 100 (Some 0.9);
  check 999 (Some 0.9);
  check 1000 (Some 0.99);
  check 10000 (Some 0.999)

let test_quartiles () =
  (* Reference values from Python's statistics.quantiles(xs, n=4). *)
  let q1, q2, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  feq "q1" 2.75 q1;
  feq "q2" 5.5 q2;
  feq "q3" 8.25 q3;
  let q1, q2, q3 = Stats.quartiles [ 3.0; 1.0 ] in
  feq "q1 of two" 0.5 q1;
  feq "q2 of two" 2.0 q2;
  feq "q3 of two" 3.5 q3;
  feq "spread of 1..5" 1.0 (Stats.spread [ 5.; 1.; 4.; 2.; 3. ])

(* ------------------------------------------------------------------ *)
(* Self time. *)

let span id ?(parent = -1) a b =
  { Tracer.id; name = "s"; start_ns = Int64.of_int a; stop_ns = Int64.of_int b; parent; req = -1 }

let test_self_nested () =
  let p = span 0 0 100 in
  let child = span 1 ~parent:0 10 60 in
  let grandchild = span 2 ~parent:1 20 30 in
  (* Only direct children count against a span. *)
  Alcotest.(check int64) "parent" 50L (Tracer.self_ns [ child ] p);
  Alcotest.(check int64) "child" 40L (Tracer.self_ns [ grandchild ] child);
  Alcotest.(check int64) "leaf" 10L (Tracer.self_ns [] grandchild)

let test_self_overlapping () =
  let p = span 0 0 100 in
  (* [10,30] and [20,50] overlap: covered once, 40; [90,120] is clipped
     to the parent's end, 10; [150,160] lies outside it. *)
  let kids =
    [ span 1 ~parent:0 10 30; span 2 ~parent:0 20 50; span 3 ~parent:0 90 120;
      span 4 ~parent:0 150 160 ]
  in
  Alcotest.(check int64) "overlap counted once" 50L (Tracer.self_ns kids p);
  let contained = [ span 1 ~parent:0 10 90; span 2 ~parent:0 20 30 ] in
  Alcotest.(check int64) "contained child" 20L (Tracer.self_ns contained p)

let test_with_span_parents () =
  Tracer.reset ();
  Tracer.enabled := true;
  Tracer.with_span ~req:7 "outer" (fun () -> Tracer.with_span "inner" ignore);
  Tracer.enabled := false;
  (match Tracer.spans () with
  | [ outer; inner ] ->
    Alcotest.(check string) "outer first" "outer" outer.Tracer.name;
    Alcotest.(check int) "inner's parent" outer.Tracer.id inner.Tracer.parent;
    Alcotest.(check int) "request id" 7 outer.Tracer.req;
    Alcotest.(check int) "root" (-1) outer.Tracer.parent
  | l -> Alcotest.failf "expected two spans, got %d" (List.length l));
  Tracer.reset ();
  Tracer.with_span "off" ignore;
  Alcotest.(check int) "nothing recorded when off" 0 (List.length (Tracer.spans ()))

(* ------------------------------------------------------------------ *)
(* The open-loop schedule. *)

let ms_ns x = Int64.of_float (x *. 1e6)

(* 1000 requests/s for one second: request i is due at i ms. *)
let request ?(late = 0.0) ?(service = 1.0) ?(ok = true) ?(answered = true) i =
  let due = ms_ns (float_of_int i) in
  let sent = Int64.add due (ms_ns late) in
  { Loadgen.due_ns = due; sent_ns = sent;
    done_ns = (if answered then Some (Int64.add sent (ms_ns service)) else None); ok }

let test_schedule () =
  Alcotest.(check int64) "due of the 3rd at 250/s" (ms_ns 12.0)
    (Loadgen.due_ns ~t0:0L ~rate:250.0 3);
  Alcotest.(check int) "step size" 150 (Loadgen.step_size ~rate:600.0 ~seconds:0.25)

let test_lateness () =
  let end_ns = ms_ns 1000.0 in
  let on_time = Loadgen.judge ~rate:1000.0 ~end_ns (List.init 1000 (fun i -> request i)) in
  Alcotest.(check bool) "on time is valid" true on_time.Loadgen.v_valid;
  Alcotest.(check bool) "on time passes" true on_time.Loadgen.v_pass;
  feq "latency from due" 1.0 on_time.Loadgen.v_p50_ms;
  (* Two percent of requests sent 3 ms late: the generator's p99
     lateness is 3 ms, the step is invalid, and the late requests'
     latency counts from when they were due. *)
  let late =
    Loadgen.judge ~rate:1000.0 ~end_ns
      (List.init 1000 (fun i -> if i mod 50 = 0 then request ~late:3.0 i else request i))
  in
  feq "late p99" 3.0 late.Loadgen.v_late_p99_ms;
  Alcotest.(check bool) "invalid" false late.Loadgen.v_valid;
  Alcotest.(check bool) "fails" false late.Loadgen.v_pass;
  feq "p99 latency includes the lateness" 4.0 late.Loadgen.v_p99_ms

let test_step_verdicts () =
  let end_ns = ms_ns 1000.0 in
  let judge reqs = Loadgen.judge ~rate:1000.0 ~end_ns reqs in
  (* A growing backlog: service slower than arrivals, so requests are
     still outstanding when the schedule ends. *)
  let backlog =
    judge (List.init 1000 (fun i -> request ~service:(float_of_int i *. 0.02) i))
  in
  Alcotest.(check bool) "backlog outstanding" true (backlog.Loadgen.v_outstanding_at_end > 10);
  Alcotest.(check bool) "backlog fails" false backlog.Loadgen.v_pass;
  (* Failed or unanswered requests miss the latency limit. *)
  let failing = judge (List.init 1000 (fun i -> request ~ok:(i mod 5 <> 0) i)) in
  feq "20% failed: the p90 misses any limit" infinity failing.Loadgen.v_p90_ms;
  Alcotest.(check int) "completed counts ok answers" 800 failing.Loadgen.v_completed;
  Alcotest.(check bool) "failing fails" false failing.Loadgen.v_pass;
  let lost = judge (List.init 1000 (fun i -> request ~answered:(i <> 7) i)) in
  Alcotest.(check bool) "one lost of 1000 still passes" true lost.Loadgen.v_pass;
  (* One request in [every] takes 20 ms, the rest 1 ms. *)
  let slow every =
    judge (List.init 1000 (fun i -> request ~service:(if i mod every = 0 then 20.0 else 1.0) i))
  in
  let slow_tail = slow 20 in
  Alcotest.(check bool) "5% slow: p90 within 10 ms" true slow_tail.Loadgen.v_pass;
  let slow = slow 5 in
  feq "20% slow: p90 is the slow service" 20.0 slow.Loadgen.v_p90_ms;
  Alcotest.(check bool) "p90 over 10 ms fails" false slow.Loadgen.v_pass

(* ------------------------------------------------------------------ *)
(* The ladder. *)

let knee k rate = rate <= k

let test_ladder_up () =
  let best, steps =
    Loadgen.search ~measure:(knee 1000.0) ~known:[ (250.0, true); (600.0, true) ] ()
  in
  Alcotest.(check (list (pair (float 1e-6) bool)))
    "ladder then two bisections"
    [ (750.0, true); (937.5, true); (1171.875, false);
      (Float.sqrt (937.5 *. 1171.875), false);
      (Float.sqrt (937.5 *. Float.sqrt (937.5 *. 1171.875)), true) ]
    steps;
  feq "highest pass" (Float.sqrt (937.5 *. Float.sqrt (937.5 *. 1171.875))) best

let test_ladder_bisect_known () =
  (* The 600 step failed: no ladder, bisect between 250 and 600. *)
  let best, steps =
    Loadgen.search ~measure:(knee 400.0) ~known:[ (250.0, true); (600.0, false) ] ()
  in
  let m1 = Float.sqrt (250.0 *. 600.0) in
  let m2 = Float.sqrt (m1 *. 600.0) in
  Alcotest.(check (list (pair (float 1e-6) bool)))
    "bisections only" [ (m1, true); (m2, false) ] steps;
  feq "highest pass" m1 best

let test_ladder_down () =
  let best, steps =
    Loadgen.search ~measure:(knee 100.0) ~known:[ (250.0, false); (600.0, false) ] ()
  in
  Alcotest.(check (list bool)) "walks down, then bisects"
    [ false; false; false; false; true; true; true ] (List.map snd steps);
  Alcotest.(check bool) "answer passes the knee" true (best <= 100.0 && best > 80.0);
  let best, steps =
    Loadgen.search ~measure:(fun _ -> false) ~known:[ (250.0, false) ] ~max_steps:3 ()
  in
  feq "nothing passes" 0.0 best;
  Alcotest.(check int) "bounded by max_steps" 3 (List.length steps)

(* ------------------------------------------------------------------ *)
(* Inputs and checks. *)

let test_edit_one_function () =
  List.iter
    (fun (p : Programs.program) ->
      let defs = Programs.definitions p.source in
      Alcotest.(check bool) (p.name ^ " has main") true (List.mem_assoc "main" defs);
      List.iteri
        (fun which (fn, _) ->
          let edited, name = Programs.edit p.source ~which ~n:(100 + which) in
          Alcotest.(check string) "edited function" fn name;
          let hashes src =
            let c = Core.Pipeline.compile ~name:p.name src in
            List.map
              (fun f -> (f.Cfg_ir.Cfg.fn_name, Core.Pipeline.fn_hash c f))
              c.Core.Pipeline.prog.Cfg_ir.Cfg.prog_fns
          in
          let before = hashes p.source and after = hashes edited in
          let changed = List.filter (fun (f, h) -> List.assoc f before <> h) after in
          Alcotest.(check (list string))
            (p.name ^ ": only " ^ fn ^ " changed")
            [ fn ] (List.map fst changed))
        defs)
    (Array.to_list (Programs.corpus ~seed:5 ~count:4 ()))

let test_seeded () =
  let a = Programs.corpus ~seed:3 ~count:8 () and b = Programs.corpus ~seed:3 ~count:8 () in
  Alcotest.(check bool) "same seed, same programs" true (a = b);
  let c = Programs.corpus ~seed:4 ~count:8 () in
  Alcotest.(check bool) "another seed, other programs" true
    (a.(0).Programs.source <> c.(0).Programs.source);
  let draws seed = let g = Programs.rng seed 2 in List.init 20 (fun _ -> Programs.below g 100) in
  Alcotest.(check (list int)) "same seed, same stream" (draws 9) (draws 9)

let test_invariants () =
  let ok = Checks.invariants [ ("invocations/main", 1.0); ("cost/loop/main", 3.0) ] in
  Alcotest.(check (option string)) "clean" None ok;
  Alcotest.(check (option string)) "roundoff below zero accepted" None
    (Checks.invariants [ ("invocations/main", 1.0); ("invocations/f", -3e-15) ]);
  Alcotest.(check bool) "negative rejected" true
    (Checks.invariants [ ("invocations/main", 1.0); ("invocations/f", -1e-3) ] <> None);
  Alcotest.(check bool) "nan rejected" true
    (Checks.invariants [ ("invocations/main", 1.0); ("cost/x", nan) ] <> None);
  Alcotest.(check bool) "main must be 1" true
    (Checks.invariants [ ("invocations/main", 0.5) ] <> None)

(* ------------------------------------------------------------------ *)
(* Smoke: every workload at 1/50 scale, timed and traced, through the
   command the benchmark is run with. The working directory is the
   build root, which holds BENCHMARK.json and BASELINE.json. *)

let capture args =
  let r, w = Unix.pipe ~cloexec:true () in
  let exe = "bench/e2e/main.exe" in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w Unix.stderr in
  Unix.close w;
  let out = In_channel.input_all (Unix.in_channel_of_descr r) in
  Unix.close r;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED c -> (c, out)
  | _ -> (-1, out)

let smoke workload () =
  let spec = Spec.load () in
  List.iter
    (fun (trace, metrics) ->
      let code, out =
        capture
          [ "--workload"; workload; "--seed"; "2"; "--seconds"; "0.4"; "--scale"; "0.02";
            "--trace"; (if trace then "1" else "0") ]
      in
      if code <> 0 then Alcotest.failf "%s exited %d:\n%s" workload code out;
      let lines = String.split_on_char '\n' (String.trim out) in
      let last = List.nth lines (List.length lines - 1) in
      let j = Obs.Json.parse_exn last in
      Alcotest.(check bool) "correct" true
        (Obs.Json.member "correct" j = Some (Obs.Json.Bool true));
      List.iter
        (fun (m : Spec.metric) ->
          let printed =
            List.exists (fun l -> String.starts_with ~prefix:(m.Spec.name ^ " ") l) lines
          in
          Alcotest.(check bool) (m.Spec.name ^ " printed") true printed;
          match Option.bind (Obs.Json.member "metrics" j) (Obs.Json.member m.Spec.name) with
          | Some v ->
            Alcotest.(check (option string)) (m.Spec.name ^ " unit") (Some m.Spec.unit_)
              (Option.bind (Obs.Json.member "unit" v) Obs.Json.to_str)
          | None -> Alcotest.failf "%s missing from the JSON line" m.Spec.name)
        metrics)
    [ (false, spec.Spec.end_to_end); (true, spec.Spec.per_layer) ];
  Alcotest.(check bool) "trace file" true
    (Sys.file_exists ("bench/e2e/results/trace_" ^ workload ^ ".json"))

let () =
  Sys.chdir "../..";
  let spec = Spec.load () in
  Alcotest.run "e2e"
    [ ( "stats",
        [ Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "highest supported percentile" `Quick test_highest_supported;
          Alcotest.test_case "quartiles as Python" `Quick test_quartiles ] );
      ( "tracer",
        [ Alcotest.test_case "self time, nested" `Quick test_self_nested;
          Alcotest.test_case "self time, overlapping" `Quick test_self_overlapping;
          Alcotest.test_case "span parents" `Quick test_with_span_parents ] );
      ( "loadgen",
        [ Alcotest.test_case "schedule" `Quick test_schedule;
          Alcotest.test_case "lateness" `Quick test_lateness;
          Alcotest.test_case "step verdicts" `Quick test_step_verdicts;
          Alcotest.test_case "ladder up" `Quick test_ladder_up;
          Alcotest.test_case "bisect between fixed steps" `Quick test_ladder_bisect_known;
          Alcotest.test_case "ladder down" `Quick test_ladder_down ] );
      ( "inputs",
        [ Alcotest.test_case "an edit changes one function" `Quick test_edit_one_function;
          Alcotest.test_case "seeded" `Quick test_seeded;
          Alcotest.test_case "score invariants" `Quick test_invariants ] );
      ("smoke", List.map (fun w -> Alcotest.test_case w `Quick (smoke w)) spec.Spec.workloads) ]
