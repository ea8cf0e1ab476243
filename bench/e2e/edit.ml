(* edit_stream: an IDE or build daemon re-analyzing after each save.

   Closed loop, one client, over a Unix socket to a durable daemon
   ([--store DIR --budget-mb 12 --workers 0]). The corpus is 400
   medium and large programs. A first daemon life answers each once and
   drains on SIGTERM, leaving the store on disk. Set-up is then the
   restart cost: from spawning the daemon on that store until all 400
   programs have been answered once (timed three times, median; once in
   the traced run, which does not report it). The stream follows on the
   last restart: 80% of requests insert [int __edit_N = N;] into one
   seeded function of one seeded program, which keeps its edited
   version; 20% re-send one seeded program's current version unchanged.
   The 12 MB budget is about half the warm working set, so journal
   appends, snapshots and LRU evictions run beside the hits, and a
   re-send may find its entries evicted: it must return the same
   scores, hit or not. *)

let edit_percent = 80

type state = {
  mutable prog : Programs.program;
  mutable hashes : (string * string) list;
  mutable digest : string;
}

let run (cfg : Workload.config) : Workload.result =
  let t = Workload.tally () in
  let progs = Programs.corpus ~seed:cfg.seed ~count:(Workload.scaled cfg ~min:4 400) () in
  let states =
    Array.map2
      (fun prog (digest, hashes) -> { prog; hashes; digest })
      progs (Checks.references progs)
  in
  let socket = Filename.concat cfg.workdir "edit.sock" in
  let log = Filename.concat cfg.workdir "edit.log" in
  let store = Filename.concat cfg.workdir "store" in
  (* A daemon on the store, once it has answered every program once. *)
  let start () =
    let d =
      Proc.spawn ~socket ~log
        [ "--store"; store; "--budget-mb"; "12"; "--workers"; "0" ]
    in
    let c = Proc.connect socket in
    (d, c, Array.mapi (fun i s -> Proc.request c (Proc.analyze_line ~id:i s.prog)) states)
  in
  let check (_, _, answers) =
    Array.iteri
      (fun i line -> Workload.attempt t (Checks.unchanged ~digest:states.(i).digest line))
      answers
  in
  let stop (d, c, _) =
    Proc.close c;
    Workload.clean_exit t (Proc.stop d)
  in
  (* The first life fills the store and drains; the timed set-up is the
     restart, and the last restart stays up for the stream. *)
  let first = start () in
  check first;
  stop first;
  let setups = ref [] in
  let d, c, _ =
    Workload.repeat_setup ~k:(if cfg.trace then 1 else 3) setups ~start ~after:check ~stop
  in
  let stats0 = Proc.request c (Proc.control_line "stats") in
  let metrics0 = Proc.request c (Proc.control_line "metrics") in
  let rng = Programs.rng cfg.seed 2 in
  let lat = ref [] in
  let edits = ref 0 and extra_misses = ref 0 and resend_hits = ref 0 in
  let stream_failed = ref 0 in
  let spans_before = !Tracer.count in
  let t_start = Workload.now_ns () in
  let k = ref 0 in
  while !k = 0 || Workload.s_since t_start < cfg.seconds do
    let id = Array.length states + !k in
    let is_edit = Programs.below rng 100 < edit_percent in
    let s = states.(Programs.below rng (Array.length states)) in
    let edited =
      if is_edit then
        let source, fn = Programs.edit s.prog.source ~which:(Programs.below rng 1000) ~n:id in
        Some ({ s.prog with source }, fn)
      else None
    in
    let line = Proc.analyze_line ~id (match edited with Some (p, _) -> p | None -> s.prog) in
    let t0 = Workload.now_ns () in
    let resp =
      Tracer.with_span ~req:id
        (if is_edit then "edit.request" else "resend.request")
        (fun () -> Proc.request c line)
    in
    lat := Workload.ms_since t0 :: !lat;
    let outcome =
      Tracer.with_span ~req:id "client.check" (fun () ->
          match Checks.parse_response resp with
          | Error e -> Some e
          | Ok r when not r.Checks.r_ok -> Some ("error response: " ^ r.Checks.r_error)
          | Ok r -> (
            match edited with
            | Some (p, fn) ->
              incr edits;
              extra_misses := !extra_misses + r.Checks.r_fn_misses - Checks.n_kinds;
              let v = Checks.edit_response ~before:s.hashes ~edited:fn r in
              s.prog <- p;
              s.hashes <- r.Checks.r_fn_hashes;
              s.digest <- r.Checks.r_digest;
              v
            | None ->
              if r.Checks.r_program_hit then incr resend_hits;
              Checks.resend_scores ~expected:s.digest r))
    in
    Workload.attempt t outcome;
    if outcome <> None then incr stream_failed;
    incr k
  done;
  let loop_s = Workload.s_since t_start in
  let loop_spans = !Tracer.count - spans_before in
  let stats1 = Proc.request c (Proc.control_line "stats") in
  let metrics1 = Proc.request c (Proc.control_line "metrics") in
  let rss = Proc.tree_peak_rss_mb d.Proc.pid in
  Proc.close c;
  Workload.clean_exit t (Proc.stop d);
  let gated, tail =
    Workload.closed_loop ~chunk:(Workload.scaled cfg ~min:4 200) (List.rev !lat)
  in
  let request = Layers.hist_delta ~before:metrics0 ~after:metrics1 "serve.request.ns" in
  let request_p50 = Layers.hist_ms request 0.5 in
  let diag =
    tail
    @ [ ("stream.requests", float_of_int !k); ("stream.edits", float_of_int !edits);
        ("edit.extra_fn_misses", float_of_int !extra_misses);
        ("resend.program_hits", float_of_int !resend_hits);
        ("serve.request.p50_ms", request_p50);
        ("serve.request.p90_ms", Layers.hist_ms request 0.9);
        ("serve.wire.p50_ms", Stats.percentile (Stats.sorted !lat) 0.5 -. request_p50) ]
  in
  if not cfg.trace then
    Workload.finish t ~diag
      ~metrics:((("setup_s", Stats.median !setups) :: gated) @ [ ("peak_rss_mb", rss) ])
  else
    let store = Layers.delta ~before:(Layers.of_stats_line stats0) (Layers.of_stats_line stats1) in
    let layer =
      Ledger.run ~profiles_on_path:false
        (Ledger.corpus_sample progs (Workload.scaled cfg ~min:4 100))
    in
    Workload.finish t ~diag
      ~metrics:
        (layer
        @ Layers.traced ~store ~sent:!k ~completed:(!k - !stream_failed) ~loop_spans ~loop_s)
