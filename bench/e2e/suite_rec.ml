(* suite_record: the paper's reproduction, what a researcher waits for.

   Batch at two jobs: each pass clears the experiment context and the
   score store, warms the context (compiles and profiles the 16 suite
   programs), runs every experiment, collects the run record and diffs
   it exactly against BASELINE.json (658 scores). Profiling is nearly
   all of a pass, so a front-end or serving change should not move it;
   it is also the only path through [Driver.Context]. Set-up is each
   pass's [Context.warm], median over passes; the pass time includes
   it. *)

module Drift = Driver.Drift
module Run_record = Driver.Run_record

let jobs = 2

(* The experiments a pass runs: all of them, or, in a scaled-down smoke
   run, the strchr worked examples, which profile no suite program. *)
let worked_examples = [ "table2"; "fig3"; "fig6_7" ]

let experiments (cfg : Workload.config) =
  if cfg.Workload.scale >= 1.0 then Driver.Experiments.all
  else List.filter (fun (id, _, _) -> List.mem id worked_examples) Driver.Experiments.all

let describe : Drift.finding -> string = function
  | Drift.Changed (s, v) ->
    Printf.sprintf "%s changed: %.17g -> %.17g"
      (Driver.Score.key_to_string (Driver.Score.key s)) s.Driver.Score.s_value v
  | Drift.Missing s -> "missing " ^ Driver.Score.key_to_string (Driver.Score.key s)
  | Drift.Added s -> "added " ^ Driver.Score.key_to_string (Driver.Score.key s)
  | Drift.Degraded_program (s, stage) ->
    Printf.sprintf "%s degraded at %s" s.Driver.Score.s_program stage
  | Drift.Timing_out_of_band (label, _, _) -> "timing out of band: " ^ label

(* One pass: every experiment in turn, each in its own span when
   traced; [Experiments.run_all] does the same and joins the output.
   Returns the record and the seconds [Context.warm] took. A smoke run
   profiles no suite program, so it neither warms the context nor reads
   its degraded list, which would warm it. *)
let pass (cfg : Workload.config) : Run_record.t * float =
  let full = cfg.Workload.scale >= 1.0 in
  Driver.Context.clear ();
  Driver.Score.reset ();
  Driver.Fault.reset ();
  let t0 = Workload.now_ns () in
  if full then Tracer.with_span "context.warm" Driver.Context.warm;
  let warm_s = Workload.s_since t0 in
  List.iter
    (fun (id, _, f) -> ignore (Tracer.with_span ("experiments." ^ id) f))
    (experiments cfg);
  let degraded = if full then None else Some [] in
  ( Tracer.with_span "run_record.collect" (fun () ->
        Run_record.collect ?degraded ~meta:[] ()),
    warm_s )

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let run (cfg : Workload.config) : Workload.result =
  let t = Workload.tally () in
  Driver.Parallel.set_jobs jobs;
  let baseline =
    let b =
      match Run_record.read_file "BASELINE.json" with
      | Ok b -> b
      | Error e -> failwith ("BASELINE.json: " ^ e)
    in
    let ids = List.map (fun (id, _, _) -> id) (experiments cfg) in
    let kept (sc : Driver.Score.t) = List.mem sc.Driver.Score.s_experiment ids in
    { b with Run_record.r_scores = List.filter kept b.Run_record.r_scores }
  in
  let check (record : Run_record.t) : bool =
    let report = Drift.diff ~baseline ~current:record () in
    for _ = 1 to report.Drift.compared do
      Workload.attempt t None
    done;
    List.iter (fun f -> Workload.attempt t (Some (describe f))) report.Drift.findings;
    report.Drift.findings = []
  in
  (* The first pass in a process also grows the heap, which costs 0-20%
     more from run to run; the timed run checks it but does not time
     it. The traced run, which reports no times of its own, skips it. *)
  if not cfg.trace then ignore (check (fst (pass cfg)));
  let pass_ms = ref [] and setups = ref [] and util = ref [] in
  let spans_before = !Tracer.count in
  let t_start = Workload.now_ns () in
  let passes = ref 0 and clean_passes = ref 0 in
  while !passes = 0 || Workload.s_since t_start < cfg.seconds do
    let c0 = cpu_s () in
    let t0 = Workload.now_ns () in
    let record, warm_s = Tracer.with_span ~req:!passes "suite.pass" (fun () -> pass cfg) in
    let ms = Workload.ms_since t0 in
    pass_ms := ms :: !pass_ms;
    setups := warm_s :: !setups;
    util := ((cpu_s () -. c0) /. (ms /. 1000.0 *. float_of_int jobs)) :: !util;
    if check record then incr clean_passes;
    incr passes
  done;
  let loop_s = Workload.s_since t_start in
  let loop_spans = !Tracer.count - spans_before in
  let rss = Proc.self_peak_rss_mb () in
  let gated, tail = Workload.closed_loop !pass_ms in
  let diag =
    tail
    @ [ ("passes", float_of_int !passes);
        ("record_s", Stats.median !pass_ms /. 1000.0);
        ("baseline.scores", float_of_int (List.length baseline.Run_record.r_scores));
        ("parallel.utilization", Stats.median !util) ]
    @
    if cfg.trace then
      List.filter_map
        (fun (name, n, total_ms, _) ->
          if name = "context.warm" then
            Some ("context.warm.s", total_ms /. 1000.0 /. float_of_int n)
          else if String.starts_with ~prefix:"experiments." name then
            Some (name ^ ".ms", total_ms /. float_of_int n)
          else None)
        (Tracer.summary (Tracer.spans ()))
    else []
  in
  if not cfg.trace then
    Workload.finish t ~diag
      ~metrics:((("setup_s", Stats.median !setups) :: gated) @ [ ("peak_rss_mb", rss) ])
  else
    let sample (b : Suite.Bench_prog.t) =
      let run (r : Suite.Bench_prog.run) =
        { Core.Pipeline.argv = r.Suite.Bench_prog.r_argv; input = r.Suite.Bench_prog.r_input }
      in
      let prog = { Programs.name = b.Suite.Bench_prog.name; source = b.Suite.Bench_prog.source } in
      { Ledger.prog; runs = List.map run b.Suite.Bench_prog.runs }
    in
    let programs = List.filteri (fun i _ -> i < Workload.scaled cfg 16) Suite.Registry.all in
    let layer = Ledger.run ~rounds:10 ~profiles_on_path:true (List.map sample programs) in
    Workload.finish t ~diag
      ~metrics:
        (layer
        @ Layers.traced ~store:Layers.no_store ~sent:!passes ~completed:!clean_passes ~loop_spans
            ~loop_s)
