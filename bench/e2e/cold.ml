(* cold_corpus: a compiler asking for estimates of code it has not seen.

   Closed loop, one caller, in this process: [Driver.Incr.analyze] on
   fresh generated programs, no profiling runs. Each pass is 1000
   programs (the four generator classes in equal shares, medium and
   large alternating) from seed S + pass, and the store is cleared
   before each pass, so nothing but functions shared within a pass is
   ever a cache hit. Generating a pass and clearing the store happen
   off the clock.

   Set-up is what a compiler pays to start the estimator before its
   first estimate: from spawning a fresh [bin serve] process on
   standard input and output until it has answered one analysis of the
   stream's first program (process and library start-up, then one cold
   analysis). Timed [setups] times, median; the traced run, which does
   not report it, skips it. *)

let setups = 15

let run (cfg : Workload.config) : Workload.result =
  let per_pass = Workload.scaled cfg ~min:4 1000 in
  let t = Workload.tally () in
  let setup_s =
    if cfg.trace then []
    else begin
      let first = Programs.nth ~seed:cfg.seed 0 in
      let digest = fst (Checks.references [| first |]).(0) in
      let log = Filename.concat cfg.workdir "estimator.log" in
      let line = Proc.analyze_line ~id:0 first in
      let times = ref [] in
      let p, _ =
        Workload.repeat_setup ~k:setups times
          ~start:(fun () -> Proc.start_piped ~log line)
          ~after:(fun (_, answer) -> Workload.attempt t (Checks.unchanged ~digest answer))
          ~stop:(fun (p, _) -> Workload.clean_exit t (Proc.finish_piped p))
      in
      Workload.clean_exit t (Proc.finish_piped p);
      !times
    end
  in
  let lat = ref [] in
  let spans_before = !Tracer.count in
  let t_start = Workload.now_ns () in
  let last_pass = ref [||] in
  let pass = ref 0 in
  let k = ref 0 in
  Driver.Incr.reset_stats ();
  while !pass = 0 || Workload.s_since t_start < cfg.seconds do
    let progs = Programs.corpus ~seed:(cfg.seed + !pass) ~count:per_pass () in
    Driver.Incr.clear ();
    last_pass := progs;
    Array.iter
      (fun (p : Programs.program) ->
        if !pass = 0 || Workload.s_since t_start < cfg.seconds then begin
          let t0 = Workload.now_ns () in
          let outcome =
            match
              Tracer.with_span ~req:!k "incr.analyze" (fun () ->
                  Driver.Incr.analyze ~name:p.name p.source)
            with
            | a ->
              lat := Workload.ms_since t0 :: !lat;
              Checks.invariants (Checks.analysis_scores a)
            | exception e -> Some (p.name ^ ": " ^ Printexc.to_string e)
          in
          Workload.attempt t outcome;
          incr k
        end)
      progs;
    incr pass
  done;
  let loop_s = Workload.s_since t_start in
  let loop_spans = !Tracer.count - spans_before in
  let st = Driver.Incr.stats () in
  let rss = Proc.self_peak_rss_mb () in
  let gated, tail =
    Workload.closed_loop ~chunk:(Workload.scaled cfg ~min:4 250) (List.rev !lat)
  in
  let diag = tail @ [ ("passes", float_of_int !pass) ] in
  if not cfg.trace then
    Workload.finish t ~diag
      ~metrics:((("setup_s", Stats.median setup_s) :: gated) @ [ ("peak_rss_mb", rss) ])
  else
    let layer =
      Ledger.run ~profiles_on_path:false
        (Ledger.corpus_sample !last_pass (Workload.scaled cfg ~min:4 200))
    in
    Workload.finish t ~diag
      ~metrics:
        (layer
        @ Layers.traced ~store:(Layers.of_incr st) ~sent:t.t_attempted
            ~completed:(t.t_attempted - t.t_failed) ~loop_spans ~loop_s)
