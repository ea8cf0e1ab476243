(* estimator — command-line driver for the static-estimator library.

   Subcommands:
     parse        parse and typecheck a C file, print the globals
     cfg          dump a function's CFG (text or dot)
     estimate     print intra-procedural block frequency estimates
     inter        print function invocation estimates
     callsites    print the global call-site ranking
     annotate     print the source with per-line frequency estimates
     run          interpret a C program (profiling; --save-profile FILE)
     score        score static estimates against a saved profile
     experiment   reproduce one of the paper's tables/figures/ablations
     record       run the full suite and write a typed run record (JSON)
     corpus       generate a seeded shaped corpus and score every estimator
     diff         compare a run record against the committed baseline
     serve        warm estimator daemon (newline-delimited JSON protocol)
     watch        live metrics dashboard over a running daemon
     suite        list the benchmark suite *)

module Pipeline = Core.Pipeline
module Cfg = Cfg_ir.Cfg
module Profile = Cinterp.Profile

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load path =
  let name = Filename.remove_extension (Filename.basename path) in
  Pipeline.compile ~name (read_file path)

(* ---- common arguments ---- *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.c"
         ~doc:"C source file (supported subset).")

let fn_arg =
  Arg.(value & opt (some string) None & info [ "f"; "function" ]
         ~docv:"NAME" ~doc:"Restrict output to one function.")

let jobs_arg =
  Arg.(value
       & opt int (Driver.Parallel.default_jobs ())
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Number of analysis domains (1 = sequential; default: the \
                 recommended domain count). Results are identical at every \
                 setting.")

let trace_arg =
  Arg.(value & flag
       & info [ "trace" ]
           ~doc:"Print a tree of pipeline stage timings and solver/cache \
                 counters to stderr when the command finishes.")

let metrics_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics-out" ] ~docv:"FILE"
           ~doc:"Write span timings and counters as JSON to $(docv) when \
                 the command finishes.")

(* Fault policy for the suite-driving commands: [--strict] fails fast
   with the original backtrace, [--chaos SEED] arms every registered
   injection point with the deterministic seeded hash. Applied as a
   setup term. *)
let fault_arg =
  let set strict chaos =
    if strict then Driver.Fault.set_strict true;
    match chaos with
    | None -> ()
    | Some seed -> Driver.Fault.arm_chaos ~seed ()
  in
  Term.(
    const set
    $ Arg.(
        value & flag
        & info [ "strict" ]
            ~doc:"Fail fast on the first fault instead of degrading: the \
                  original exception is re-raised with its backtrace and \
                  the process exits non-zero.")
    $ Arg.(
        value
        & opt (some int) None
        & info [ "chaos" ] ~docv:"SEED"
            ~doc:"Arm every fault-injection point with a deterministic \
                  hash of $(docv): the same seed fails the same stages at \
                  any $(b,--jobs) setting. The run completes degraded \
                  (exit code 3) unless $(b,--strict) is also given."))

(* Completed runs report recorded faults on stderr and exit 3, so
   scripts can tell a degraded evaluation from a healthy one. *)
let finish_with_fault_status () =
  let s = Driver.Fault.summary () in
  if s <> "" then prerr_string s;
  let code = Driver.Fault.exit_code () in
  if code <> 0 then exit code

(* Markov linear-system solver selection, applied as a setup term like
   [fault_arg]. Dense is the default: its results are bit-identical
   to the committed BASELINE.json; the sparse path agrees only to the
   iterative convergence tolerance (gate with [diff --solver-band]). *)
let solver_arg =
  let set m = Linalg.Linsolve.solver_mode := m in
  Term.(
    const set
    $ Arg.(
        value
        & opt
            (enum
               [ ("dense", Linalg.Linsolve.Dense);
                 ("sparse", Linalg.Linsolve.Sparse);
                 ("auto", Linalg.Linsolve.Auto) ])
            Linalg.Linsolve.Dense
        & info [ "solver" ] ~docv:"MODE"
            ~doc:"Markov linear-system solver: $(b,dense) (Gaussian \
                  elimination, bit-identical to the committed baseline; \
                  default), $(b,sparse) (CSR Gauss-Seidel with power-\
                  iteration and dense fallbacks), or $(b,auto) (sparse \
                  for systems of 128+ nodes)."))

let solver_mode_string () =
  Linalg.Linsolve.mode_to_string !Linalg.Linsolve.solver_mode

let mode_arg =
  Arg.(value & opt (enum [ ("loop", Pipeline.Iloop); ("smart", Pipeline.Ismart);
                           ("markov", Pipeline.Imarkov);
                           ("structural", Pipeline.Istructural) ])
         Pipeline.Ismart
       & info [ "m"; "mode" ] ~docv:"MODE"
           ~doc:"Estimator: loop, smart, markov, or structural.")

let inter_arg =
  Arg.(value
       & opt (enum [ ("call_site", Pipeline.Isimple Core.Inter_simple.Call_site);
                     ("direct", Pipeline.Isimple Core.Inter_simple.Direct);
                     ("all_rec", Pipeline.Isimple Core.Inter_simple.All_rec);
                     ("all_rec2", Pipeline.Isimple Core.Inter_simple.All_rec2);
                     ("markov", Pipeline.Imarkov_inter) ])
           Pipeline.Imarkov_inter
       & info [ "i"; "inter" ] ~docv:"KIND"
           ~doc:"Inter-procedural model: call_site, direct, all_rec, all_rec2, markov.")

let selected_fns c = function
  | None -> c.Pipeline.prog.Cfg.prog_fns
  | Some name -> (
    match Cfg.find_fn c.Pipeline.prog name with
    | Some fn -> [ fn ]
    | None -> failwith ("no such function: " ^ name))

(* ---- parse ---- *)

let cmd_parse =
  let run path =
    let c = load path in
    let tu = c.Pipeline.tc.Cfront.Typecheck.tunit in
    List.iter
      (function
        | Cfront.Ast.Gfun f ->
          Printf.printf "function %s : %s (%d params)\n" f.Cfront.Ast.f_name
            (Cfront.Ctypes.to_string f.Cfront.Ast.f_ret)
            (List.length f.Cfront.Ast.f_params)
        | Cfront.Ast.Gvar d ->
          Printf.printf "global   %s : %s\n" d.Cfront.Ast.d_name
            (Cfront.Ctypes.to_string d.Cfront.Ast.d_ty)
        | Cfront.Ast.Gfundecl d ->
          Printf.printf "proto    %s\n" d.Cfront.Ast.d_name)
      tu.Cfront.Ast.globals
  in
  Cmd.v (Cmd.info "parse" ~doc:"Parse and typecheck a C file")
    Term.(const run $ file_arg)

(* ---- cfg ---- *)

let cmd_cfg =
  let run path fn_name dot =
    let c = load path in
    List.iter
      (fun fn ->
        if dot then print_string (Cfg_ir.Dot.fn_to_dot fn)
        else begin
          Printf.printf "function %s (%d blocks, entry B%d)\n"
            fn.Cfg.fn_name (Cfg.n_blocks fn) fn.Cfg.fn_entry;
          Array.iter
            (fun (b : Cfg.block) ->
              let succs = Cfg.successors b.Cfg.b_term in
              Printf.printf "  B%d: %d instr(s) -> %s\n" b.Cfg.b_id
                (List.length b.Cfg.b_instrs)
                (if succs = [] then "return"
                 else String.concat ", "
                        (List.map (Printf.sprintf "B%d") succs)))
            fn.Cfg.fn_blocks
        end)
      (selected_fns c fn_name)
  in
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit graphviz format.")
  in
  Cmd.v (Cmd.info "cfg" ~doc:"Dump control-flow graphs")
    Term.(const run $ file_arg $ fn_arg $ dot)

(* ---- estimate ---- *)

let cmd_estimate =
  let run () path fn_name mode =
    let c = load path in
    let intra = Pipeline.intra_provider c mode in
    List.iter
      (fun fn ->
        Printf.printf "%s (%s estimator, entry = 1):\n" fn.Cfg.fn_name
          (Pipeline.intra_kind_to_string mode);
        Array.iteri
          (fun i v -> Printf.printf "  B%-3d %8.3f\n" i v)
          (intra fn.Cfg.fn_name))
      (selected_fns c fn_name)
  in
  Cmd.v
    (Cmd.info "estimate" ~doc:"Intra-procedural block frequency estimates")
    Term.(const run $ solver_arg $ file_arg $ fn_arg $ mode_arg)

(* ---- inter ---- *)

let cmd_inter =
  let run () path kind =
    let c = load path in
    let intra = Pipeline.intra_provider c Pipeline.Ismart in
    let est = Pipeline.inter_estimate c ~intra kind in
    let names = c.Pipeline.graph.Cfg_ir.Callgraph.names in
    Printf.printf "function invocation estimates (%s):\n"
      (Pipeline.inter_kind_to_string kind);
    Array.iteri
      (fun i name -> Printf.printf "  %-24s %10.3f\n" name est.(i))
      names
  in
  Cmd.v (Cmd.info "inter" ~doc:"Function invocation estimates")
    Term.(const run $ solver_arg $ file_arg $ inter_arg)

(* ---- callsites ---- *)

let cmd_callsites =
  let run () path kind =
    let c = load path in
    let intra = Pipeline.intra_provider c Pipeline.Ismart in
    let est = Pipeline.callsite_estimate c ~intra kind in
    let sites = Cfg.direct_sites c.Pipeline.prog in
    let ranked =
      List.mapi (fun i cs -> (est.(i), cs)) sites
      |> List.sort (fun (a, _) (b, _) -> compare b a)
    in
    Printf.printf "call sites by estimated frequency (%s):\n"
      (Pipeline.inter_kind_to_string kind);
    List.iter
      (fun (v, cs) ->
        Printf.printf "  %10.3f  %s\n" v (Core.Callsite_rank.describe cs))
      ranked
  in
  Cmd.v (Cmd.info "callsites" ~doc:"Global call-site ranking")
    Term.(const run $ solver_arg $ file_arg $ inter_arg)

(* ---- run ---- *)

let cmd_run =
  let run path args stdin_file show_profile save_profile =
    let c = load path in
    let input =
      match stdin_file with None -> "" | Some f -> read_file f
    in
    let o = Pipeline.run_once c { Pipeline.argv = args; input } in
    print_string o.Cinterp.Eval.stdout_text;
    Printf.eprintf "[exit %d, %.0f work units]\n" o.Cinterp.Eval.exit_code
      o.Cinterp.Eval.work;
    if show_profile then begin
      Printf.eprintf "function invocations:\n";
      List.iter
        (fun fn ->
          Printf.eprintf "  %-24s %10.0f\n" fn.Cfg.fn_name
            (Profile.invocations o.Cinterp.Eval.profile fn))
        c.Pipeline.prog.Cfg.prog_fns
    end;
    (match save_profile with
    | Some out ->
      let oc = open_out out in
      output_string oc (Profile.save o.Cinterp.Eval.profile);
      close_out oc;
      Printf.eprintf "[profile written to %s]\n" out
    | None -> ());
    exit o.Cinterp.Eval.exit_code
  in
  let args =
    Arg.(value & opt_all string [] & info [ "a"; "arg" ] ~docv:"ARG"
           ~doc:"Program argument (repeatable).")
  in
  let stdin_file =
    Arg.(value & opt (some file) None & info [ "stdin" ] ~docv:"FILE"
           ~doc:"File fed to the program as standard input.")
  in
  let show_profile =
    Arg.(value & flag & info [ "profile" ] ~doc:"Print invocation counts.")
  in
  let save_profile =
    Arg.(value & opt (some string) None & info [ "save-profile" ]
           ~docv:"FILE" ~doc:"Write the execution profile to FILE.")
  in
  Cmd.v (Cmd.info "run" ~doc:"Interpret a C program")
    Term.(const run $ file_arg $ args $ stdin_file
          $ show_profile $ save_profile)

(* ---- score: compare a static estimate against a saved profile ---- *)

let cmd_score =
  let run path profile_file mode cutoff =
    let c = load path in
    let profile = Profile.load (read_file profile_file) in
    let estimate = Pipeline.intra_provider c mode in
    let intra_wm = Pipeline.intra_score c ~estimate profile ~cutoff in
    Printf.printf "intra weight-matching (%s, %.0f%% cutoff): %.1f%%\n"
      (Pipeline.intra_kind_to_string mode)
      (cutoff *. 100.0) (100.0 *. intra_wm);
    let smart = Pipeline.intra_provider c Pipeline.Ismart in
    let inter_est = Pipeline.inter_estimate c ~intra:smart Pipeline.Imarkov_inter in
    let inter_wm =
      Core.Weight_matching.score ~estimate:inter_est
        ~actual:(Pipeline.inter_actual c profile)
        ~cutoff:0.25
    in
    Printf.printf "function invocations (markov, 25%% cutoff): %.1f%%\n"
      (100.0 *. inter_wm);
    let miss =
      Core.Missrate.rate c.Pipeline.prog profile
        (Core.Missrate.smart_predictor c.Pipeline.prog)
    in
    Printf.printf "branch misprediction rate: %.1f%%\n" (100.0 *. miss)
  in
  let profile_file =
    Arg.(required & opt (some file) None & info [ "p"; "profile" ]
           ~docv:"FILE" ~doc:"Profile written by 'run --save-profile'.")
  in
  let cutoff =
    Arg.(value & opt float 0.05 & info [ "cutoff" ] ~docv:"FRACTION"
           ~doc:"Weight-matching quantile (default 0.05).")
  in
  Cmd.v
    (Cmd.info "score"
       ~doc:"Score static estimates against a saved profile")
    Term.(const run $ file_arg $ profile_file $ mode_arg $ cutoff)

(* ---- annotate: print the source with per-line frequency estimates ---- *)

let cmd_annotate =
  let run path mode =
    let src = read_file path in
    let c = load path in
    (* line -> estimated frequency of the hottest statement starting there,
       scaled by the containing function's estimated invocation count *)
    let line_freq : (int, float) Hashtbl.t = Hashtbl.create 256 in
    let note line v =
      let old = Option.value ~default:0.0 (Hashtbl.find_opt line_freq line) in
      if v > old then Hashtbl.replace line_freq line v
    in
    let intra = Pipeline.intra_provider c Pipeline.Ismart in
    let inter = Pipeline.inter_estimate c ~intra Pipeline.Imarkov_inter in
    let inv name =
      match Cfg_ir.Callgraph.node_of_name c.Pipeline.graph name with
      | Some i -> inter.(i)
      | None -> 0.0
    in
    List.iter
      (fun fn ->
        let fi = fn.Cfg.fn_info in
        let f = fi.Cfront.Typecheck.fi_def in
        let freqs =
          match mode with
          | Pipeline.Iloop ->
            Core.Ast_estimator.stmt_freqs c.Pipeline.tc f
              Core.Ast_estimator.Loop
          | _ ->
            Core.Ast_estimator.stmt_freqs c.Pipeline.tc f
              Core.Ast_estimator.Smart
        in
        let scale = inv fn.Cfg.fn_name in
        Cfront.Ast.iter_stmt f.Cfront.Ast.f_body
          ~on_stmt:(fun s ->
            match Hashtbl.find_opt freqs s.Cfront.Ast.sid with
            | Some v -> note s.Cfront.Ast.spos.Cfront.Token.line (v *. scale)
            | None -> ())
          ~on_expr:(fun _ -> ()))
      c.Pipeline.prog.Cfg.prog_fns;
    List.iteri
      (fun i line ->
        let lineno = i + 1 in
        match Hashtbl.find_opt line_freq lineno with
        | Some v -> Printf.printf "%10.1f | %s\n" v line
        | None -> Printf.printf "           | %s\n" line)
      (String.split_on_char '\n' src)
  in
  Cmd.v
    (Cmd.info "annotate"
       ~doc:"Print the source annotated with estimated execution frequencies")
    Term.(const run $ file_arg $ mode_arg)

(* ---- experiment ---- *)

let cmd_experiment =
  let run jobs () () trace metrics_out id =
    Driver.Parallel.set_jobs jobs;
    Driver.Trace.with_reporting ~trace ~metrics_out (fun () ->
        match id with
        | None ->
          Printf.printf "available experiments:\n";
          List.iter
            (fun (i, title, _) -> Printf.printf "  %-8s %s\n" i title)
            Driver.Experiments.all
        | Some "all" -> print_string (Driver.Experiments.run_all ())
        | Some id -> (
          match Driver.Experiments.find id with
          | Some f -> print_string (f ())
          | None -> failwith ("unknown experiment " ^ id)));
    finish_with_fault_status ()
  in
  let id =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"ID"
           ~doc:"Experiment id (table1, fig2, ... or 'all').")
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Reproduce one of the paper's tables/figures")
    Term.(const run $ jobs_arg $ fault_arg $ solver_arg $ trace_arg
          $ metrics_arg $ id)

(* ---- record: run the suite, persist the typed score records ---- *)

let cmd_record =
  let run jobs () () out =
    Driver.Parallel.set_jobs jobs;
    Driver.Score.reset ();
    Driver.Trace.enable ();
    (* The record wants the scores and timings, not the rendered text. *)
    let (_ : string) =
      Driver.Trace.with_span "run" Driver.Experiments.run_all
    in
    let meta =
      [ ("jobs", string_of_int jobs);
        ("chaos_seed",
         match Obs.Inject.chaos_seed () with
         | Some s -> string_of_int s
         | None -> "none");
        ("solver", solver_mode_string ()) ]
    in
    let record = Driver.Run_record.collect ~meta () in
    Driver.Run_record.write_file out record;
    Printf.eprintf "[run record: %d scores, %d degraded -> %s]\n"
      (List.length record.Driver.Run_record.r_scores)
      (List.length record.Driver.Run_record.r_degraded)
      out;
    finish_with_fault_status ()
  in
  let out =
    Arg.(value & opt string "run_record.json" & info [ "o"; "out" ]
           ~docv:"FILE" ~doc:"Where to write the run record.")
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:"Run the full experiment suite and write a typed run record \
             (scores, environment, faults, timings) as JSON")
    Term.(const run $ jobs_arg $ fault_arg $ solver_arg $ out)

(* ---- corpus: seeded shaped-program generation + estimator sweep ---- *)

let cmd_corpus =
  let run jobs () () seed per_class size classes_opt out =
    Driver.Parallel.set_jobs jobs;
    Driver.Score.reset ();
    let classes =
      match classes_opt with
      | None -> Corpus.Shape.all_classes
      | Some s ->
        List.map
          (fun name ->
            match Corpus.Shape.class_of_string (String.trim name) with
            | Some c -> c
            | None -> failwith ("unknown workload class " ^ name))
          (String.split_on_char ',' s)
    in
    let spec =
      { Driver.Corpus_eval.c_seed = seed; c_per_class = per_class;
        c_size = size; c_classes = classes }
    in
    let r = Driver.Corpus_eval.evaluate spec in
    print_string r.Driver.Corpus_eval.o_rendered;
    (* The record meta deliberately excludes the jobs setting: records
       from the same spec are bit-identical at any --jobs value, and a
       meta difference would defeat exactly that comparison. *)
    let meta =
      [ ("corpus_seed", string_of_int seed);
        ("per_class", string_of_int per_class);
        ("size", Corpus.Shape.size_to_string size);
        ("classes",
         String.concat "," (List.map Corpus.Shape.class_to_string classes));
        ("chaos_seed",
         match Obs.Inject.chaos_seed () with
         | Some s -> string_of_int s
         | None -> "none");
        ("solver", solver_mode_string ()) ]
    in
    let record =
      Driver.Run_record.collect
        ~degraded:r.Driver.Corpus_eval.o_degraded ~meta ()
    in
    Driver.Run_record.write_file out record;
    Printf.eprintf
      "[corpus record: %d scores, %d programs, %d degraded, %d divergent \
       -> %s]\n"
      (List.length record.Driver.Run_record.r_scores)
      r.Driver.Corpus_eval.o_programs
      (List.length record.Driver.Run_record.r_degraded)
      r.Driver.Corpus_eval.o_divergent out;
    finish_with_fault_status ()
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N"
           ~doc:"Corpus seed: generation is a pure function of (seed, \
                 class, size, index).")
  in
  let per_class =
    Arg.(value & opt int Driver.Corpus_eval.default_spec.Driver.Corpus_eval.c_per_class
         & info [ "per-class" ] ~docv:"N"
             ~doc:"Generated programs per workload class.")
  in
  let size =
    Arg.(value
         & opt (enum Corpus.Shape.size_presets) Corpus.Shape.medium
         & info [ "size" ] ~docv:"PRESET"
             ~doc:"Size preset: $(b,small), $(b,medium) or $(b,large) \
                   (functions, statements, loop depth, call fanout).")
  in
  let classes =
    Arg.(value & opt (some string) None & info [ "classes" ] ~docv:"LIST"
           ~doc:"Comma-separated workload classes (default: all of \
                 loop_nest, branchy, pointer_table, recursive).")
  in
  let out =
    Arg.(value & opt string "corpus_record.json" & info [ "o"; "out" ]
           ~docv:"FILE" ~doc:"Where to write the corpus run record.")
  in
  Cmd.v
    (Cmd.info "corpus"
       ~doc:"Generate a seeded shaped-program corpus, run every estimator \
             over it, and write per-class score distributions \
             (mean/median/p10/p90) as a typed run record")
    Term.(const run $ jobs_arg $ fault_arg $ solver_arg $ seed
          $ per_class $ size $ classes $ out)

(* ---- diff: gate a run record against the committed baseline ---- *)

let cmd_diff =
  let run record_path baseline_path timing_factor solver_band html_out =
    let load_record what path =
      match Driver.Run_record.read_file path with
      | Ok r -> r
      | Error e ->
        Printf.eprintf "error reading %s: %s\n" what e;
        exit 2
    in
    let baseline = load_record "baseline" baseline_path in
    let current = load_record "run record" record_path in
    let report =
      Driver.Drift.diff ~timing_factor ~solver_band ~baseline ~current ()
    in
    print_string (Driver.Drift.render report);
    (match html_out with
    | Some path ->
      let oc = open_out_bin path in
      output_string oc (Driver.Report.html ~baseline ~current report);
      close_out oc;
      Printf.eprintf "[html report -> %s]\n" path
    | None -> ());
    if Driver.Drift.has_drift report then exit 1
  in
  let record_path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"RECORD.json"
           ~doc:"Run record written by $(b,record).")
  in
  let baseline_path =
    Arg.(value & opt string "BASELINE.json" & info [ "baseline" ]
           ~docv:"FILE" ~doc:"Baseline run record (default: the committed \
                              BASELINE.json).")
  in
  let timing_factor =
    Arg.(value & opt float Driver.Drift.default_timing_factor
         & info [ "timing-factor" ] ~docv:"F"
             ~doc:"Timings drift only when they leave the [1/F, F] \
                   multiplicative band around the baseline (scores are \
                   always compared exactly).")
  in
  let solver_band =
    Arg.(value & opt float 0.0
         & info [ "solver-band" ] ~docv:"EPS"
             ~doc:"Accept solver-derived scores (Markov estimators, the \
                   fig6/7 worked example, fig8, fig10 speedups) within a \
                   relative band of $(docv) instead of bit-for-bit — for \
                   gating records produced with $(b,--solver sparse). 0 \
                   (the default) compares everything exactly. A sensible \
                   band is 1e-4 (it must absorb weight-matching tie \
                   flips, not just convergence wobble).")
  in
  let html_out =
    Arg.(value & opt (some string) None & info [ "html" ] ~docv:"FILE"
           ~doc:"Also write a self-contained HTML drift report to $(docv).")
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Compare a run record against the committed baseline; exit 1 \
             on score drift")
    Term.(const run $ record_path $ baseline_path $ timing_factor
          $ solver_band $ html_out)

(* ---- serve: the warm estimator daemon ---- *)

let cmd_serve =
  let run jobs () () budget_mb store socket workers deadline_ms
      queue_limit connect slow_ms slow_log =
    match connect with
    | Some path -> Driver.Serve.client ~socket:path
    | None ->
      Driver.Serve.run
        { Driver.Serve.c_socket = socket;
          c_store = store;
          c_workers = workers;
          c_deadline_s =
            Option.map (fun ms -> float_of_int ms /. 1000.0) deadline_ms;
          c_queue_limit = queue_limit;
          c_budget_bytes = budget_mb * 1024 * 1024;
          c_jobs = jobs;
          c_slow_ms = slow_ms;
          c_slow_log = slow_log }
  in
  let budget_mb =
    Arg.(value & opt int 256 & info [ "budget-mb" ] ~docv:"MB"
           ~doc:"Byte budget of the incremental store; least-recently-\
                 used entries are evicted past it (evictions change \
                 timings, never results).")
  in
  let store =
    Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR"
           ~doc:"Durable store directory: intra solutions are journaled \
                 to disk as they are computed and snapshotted \
                 atomically, so a restarted daemon (graceful or \
                 $(b,kill -9)) starts warm. A torn or corrupt tail is \
                 truncated on load, never fatal. With $(b,--workers), \
                 each worker owns $(docv)/shard-N.")
  in
  let socket =
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"Listen on a Unix-domain socket at $(docv) instead of \
                 stdin/stdout; multiple clients multiplex over one warm \
                 store. SIGTERM/SIGINT drain gracefully: finish the \
                 in-flight batch, flush the journal, exit (3 if any \
                 batch degraded).")
  in
  let workers =
    Arg.(value & opt int 0 & info [ "workers" ] ~docv:"N"
           ~doc:"Fork $(docv) supervised worker processes and shard \
                 requests across them by program name. A dead worker is \
                 restarted with exponential backoff and its in-flight \
                 request replayed once; a second death answers a typed \
                 worker-lost error. 0 (default) analyzes in-process.")
  in
  let deadline_ms =
    Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"Per-request wall-clock deadline. An overrunning \
                 analyze answers a typed deadline fault; with \
                 $(b,--workers) a silent worker is additionally killed \
                 and restarted past the deadline plus a one-second \
                 grace.")
  in
  let queue_limit =
    Arg.(value & opt int 256 & info [ "queue-limit" ] ~docv:"N"
           ~doc:"Admission bound on pending requests: a batch that \
                 would push the queue past $(docv) is shed whole, every \
                 request answered with an $(b,overloaded) error instead \
                 of waiting.")
  in
  let connect =
    Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"PATH"
           ~doc:"Client mode: forward stdin's request batches to the \
                 daemon listening on $(docv), print one response line \
                 per request, exit. Replaces netcat in scripts.")
  in
  let slow_ms =
    Arg.(value & opt (some float) None & info [ "slow-ms" ] ~docv:"MS"
           ~doc:"Slow-request threshold: a request slower than $(docv) \
                 milliseconds is appended — with its merged parent+\
                 worker span tree — to the bounded in-memory slow log \
                 that $(b,metrics) reports.")
  in
  let slow_log =
    Arg.(value & opt (some string) None & info [ "slow-log" ] ~docv:"FILE"
           ~doc:"Also append each slow-request entry to $(docv) as one \
                 NDJSON line (requires $(b,--slow-ms)).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the warm estimator server: newline-delimited JSON \
             requests on stdin or a Unix socket (analyze, scores, \
             invalidate, stats, metrics, resize, shutdown; a blank line \
             flushes a batch), one JSON response per line. Analyses are \
             served incrementally from the per-function content-addressed \
             store — durably under $(b,--store) — and adjacent analyze \
             requests in a batch run in parallel, in-process or across \
             a supervised $(b,--workers) pool; a failing request \
             degrades its own response, never the daemon.")
    Term.(const run $ jobs_arg $ solver_arg $ fault_arg
          $ budget_mb $ store $ socket $ workers $ deadline_ms
          $ queue_limit $ connect $ slow_ms $ slow_log)

(* ---- watch: live dashboard over a daemon's metrics verb ---- *)

let cmd_watch =
  let run socket interval_ms polls no_clear =
    Driver.Watch.run ~socket ~interval_ms ~polls ~clear:(not no_clear) ()
  in
  let socket =
    Arg.(required & opt (some string) None & info [ "connect" ] ~docv:"PATH"
           ~doc:"Unix-domain socket of the daemon to watch (its \
                 $(b,--socket) path).")
  in
  let interval_ms =
    Arg.(value & opt int 1000 & info [ "interval-ms" ] ~docv:"MS"
           ~doc:"Polling interval.")
  in
  let polls =
    Arg.(value & opt int 0 & info [ "polls" ] ~docv:"N"
           ~doc:"Stop after $(docv) polls (0 = run until the daemon \
                 goes away). Scripts use a small count; interactive use \
                 leaves the default.")
  in
  let no_clear =
    Arg.(value & flag & info [ "no-clear" ]
           ~doc:"Do not clear the terminal between polls; append each \
                 dashboard instead (script/CI friendly).")
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:"Poll a running estimator daemon's $(b,metrics) verb and \
             render a refreshing text dashboard: rolling throughput, \
             latency quantiles (p50/p90/p99/p999), cache hit rate, \
             queue depth, slow-request count and per-shard \
             restart/breaker state.")
    Term.(const run $ socket $ interval_ms $ polls $ no_clear)

(* ---- suite ---- *)

let cmd_suite =
  let run () =
    List.iter
      (fun (p : Suite.Bench_prog.t) ->
        Printf.printf "%-16s %4d loc  %d inputs  %s\n" p.Suite.Bench_prog.name
          (Suite.Bench_prog.loc p)
          (Suite.Bench_prog.n_runs p)
          p.Suite.Bench_prog.description)
      Suite.Registry.all
  in
  Cmd.v (Cmd.info "suite" ~doc:"List the benchmark suite")
    Term.(const run $ const ())

(* With no subcommand, [--trace] / [--metrics-out] run the full
   experiment suite under instrumentation (the one-flag observability
   entry point), and [--chaos SEED] runs it under fault injection;
   bare invocation still shows the usage page. *)
let default_term =
  let run jobs () () trace metrics_out =
    if trace || metrics_out <> None || Obs.Inject.chaos_seed () <> None
    then begin
      Driver.Parallel.set_jobs jobs;
      Driver.Trace.with_reporting ~trace ~metrics_out (fun () ->
          print_string (Driver.Experiments.run_all ()));
      finish_with_fault_status ();
      `Ok ()
    end
    else `Help (`Pager, None)
  in
  Term.(ret (const run $ jobs_arg $ fault_arg $ solver_arg $ trace_arg
             $ metrics_arg))

let main =
  Cmd.group ~default:default_term
    (Cmd.info "estimator" ~version:"1.0"
       ~doc:"Static execution-frequency estimators (PLDI 1994 reproduction)")
    [ cmd_parse; cmd_cfg; cmd_estimate; cmd_inter; cmd_callsites; cmd_run;
      cmd_score; cmd_annotate; cmd_experiment; cmd_record; cmd_corpus;
      cmd_diff; cmd_serve; cmd_watch; cmd_suite ]

let () = exit (Cmd.eval main)
