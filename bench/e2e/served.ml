(* served_open_loop: independent clients sharing one daemon.

   Open loop from one thread over two connections to a daemon with two
   worker shards ([--workers 2]), warmed with 400 medium programs sent
   as one batch (set-up: spawn to all answered, timed three times,
   median; once in the traced run, which does not report it). Requests
   are evenly spaced at each step's rate; 90% re-send a seeded warm
   program (a program hit in its shard) and 10% are fresh seeded
   programs (cold).

   Sixteen rounds, together 70% of the run, each of three equal phases:
   250 requests/s, 600 requests/s, and a saturation phase that keeps a
   window of repeats outstanding on each connection, whose answers per
   second are the daemon's warm-path capacity. Interleaving puts a slow
   spell of the machine on a few phases of each kind, and the gated
   numbers are medians over rounds: latency at 600 requests/s, capacity
   as throughput, and peak memory after the rounds. Then the rate
   ladder of [Loadgen.search] from the highest passing fixed rate, 6% of
   the run per step, four steps at most. The highest passing rate moves
   by a whole ladder step between runs, so it is printed, not gated.
   The daemon's queue limit is lifted: overload shows as latency, never
   as shed requests. *)

let fixed_rates = [ 250.0; 600.0 ]
let rounds = 16
let fresh_percent = 10
let window = 8
let max_rate_cap = 5000.0

type kind = Repeat of int | Fresh

type step = { verdict : Loadgen.verdict; records : Loadgen.request list }

type exchange = {
  sent : int64 array;
  answered : int64 option array;
  answers : string array;
  n_sent : int;
}

(* Send [lines] over [conns] (request i on connection i mod 2) as
   [policy] releases them, from one thread: [policy i now outstanding]
   is [`Send], [`Wait seconds] or [`Stop]. Returns once every released
   request is answered, or at [give_up_ns]. Sending never blocks, so a
   busy daemon cannot stall the schedule. *)
let exchange (conns : Proc.conn array) (lines : string array) ~(give_up_ns : int64)
    ~(policy : int -> int64 -> int -> [ `Send | `Wait of float | `Stop ]) : exchange =
  let n = Array.length lines in
  let sent = Array.make n 0L and answered = Array.make n None in
  let answers = Array.make n "" in
  let inflight = Array.map (fun _ -> Queue.create ()) conns in
  let next = ref 0 and n_answered = ref 0 and stopped = ref false in
  let fds = Array.to_list (Array.map (fun c -> c.Proc.fd) conns) in
  while
    (((not !stopped) && !next < n) || !n_answered < !next)
    && Int64.compare (Workload.now_ns ()) give_up_ns < 0
  do
    let timeout = ref 0.05 in
    let rec release () =
      if (not !stopped) && !next < n then
        let now = Workload.now_ns () in
        match policy !next now (!next - !n_answered) with
        | `Send ->
          let ci = !next mod Array.length conns in
          Proc.enqueue conns.(ci) lines.(!next);
          Queue.add !next inflight.(ci);
          sent.(!next) <- now;
          incr next;
          release ()
        | `Wait s -> timeout := Float.min s 0.05
        | `Stop -> stopped := true
    in
    release ();
    Array.iter Proc.flush_some conns;
    let writers =
      List.filter_map
        (fun c -> if Buffer.length c.Proc.outbuf > 0 then Some c.Proc.fd else None)
        (Array.to_list conns)
    in
    match Unix.select fds writers [] !timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
      Array.iteri
        (fun ci c ->
          if List.mem c.Proc.fd readable then begin
            if not (Proc.read_some c) then raise Proc.Closed;
            let at = Workload.now_ns () in
            while not (Queue.is_empty c.Proc.lines) do
              let i = Queue.take inflight.(ci) in
              answers.(i) <- Queue.take c.Proc.lines;
              answered.(i) <- Some at;
              incr n_answered
            done
          end)
        conns
  done;
  { sent; answered; answers; n_sent = !next }

let seconds_until (t : int64) (now : int64) : float = Int64.to_float (Int64.sub t now) /. 1e9

let run (cfg : Workload.config) : Workload.result =
  let t = Workload.tally () in
  let warm =
    Programs.corpus ~size:Corpus.Shape.medium ~seed:cfg.seed
      ~count:(Workload.scaled cfg ~min:4 400) ()
  in
  let reference = Array.map fst (Checks.references warm) in
  let socket = Filename.concat cfg.workdir "served.sock" in
  let log = Filename.concat cfg.workdir "served.log" in
  let warm_lines = Array.to_list (Array.mapi (fun i p -> Proc.analyze_line ~id:i p) warm) in
  (* A daemon, once it has answered the warm batch. *)
  let start () =
    let d = Proc.spawn ~socket ~log [ "--workers"; "2"; "--queue-limit"; "1000000" ] in
    let ctl = Proc.connect socket in
    Proc.write_all ctl.Proc.fd (String.concat "\n" warm_lines ^ "\n\n");
    (d, ctl, List.map (fun _ -> Proc.next_line ctl) warm_lines)
  in
  let check_warm (_, _, answers) =
    List.iteri
      (fun i line -> Workload.attempt t (Checks.unchanged ~digest:reference.(i) line))
      answers
  in
  let stop (d, ctl, _) =
    Proc.close ctl;
    Workload.clean_exit t (Proc.stop d)
  in
  let setups = ref [] in
  let d, ctl, _ =
    Workload.repeat_setup ~k:(if cfg.trace then 1 else 3) setups ~start ~after:check_warm ~stop
  in
  let conns = [| Proc.connect socket; Proc.connect socket |] in
  Array.iter (fun c -> Unix.set_nonblock c.Proc.fd) conns;
  let control op = Proc.request ctl (Proc.control_line op) in
  let next_id = ref (List.length warm_lines) in
  let sent_total = ref 0 and completed_total = ref 0 in
  let spans_before = !Tracer.count in
  let t_start = Workload.now_ns () in
  (* A request source: its own random stream and fresh-program seed, so
     how many requests one phase sends never changes what another
     sends. *)
  let source ~stream ~fresh_percent =
    let g = Programs.rng cfg.seed stream and fresh = ref 0 in
    fun () ->
      let id = !next_id in
      incr next_id;
      if Programs.below g 100 < fresh_percent then begin
        let p =
          Programs.nth ~size:Corpus.Shape.medium ~seed:(cfg.seed + (1_000_003 * stream)) !fresh
        in
        incr fresh;
        (id, Proc.analyze_line ~id p, Fresh)
      end
      else
        let i = Programs.below g (Array.length warm) in
        (id, Proc.analyze_line ~id warm.(i), Repeat i)
  in
  let fixed = source ~stream:3 ~fresh_percent in
  let repeats = source ~stream:4 ~fresh_percent:0 in
  let ladder_requests = source ~stream:5 ~fresh_percent in
  (* Every answer is checked once its exchange is over, off the clock. *)
  let check (x : exchange) i (_, _, kind) : string option =
    if x.answered.(i) = None then Some "no answer within 60 s of the step's end"
    else
      match Checks.parse_response x.answers.(i) with
      | Error e -> Some e
      | Ok r when not r.Checks.r_ok -> Some ("error response: " ^ r.Checks.r_error)
      | Ok r -> (
        match kind with
        | Repeat w -> Checks.resend_response ~expected:reference.(w) r
        | Fresh -> Checks.invariants r.Checks.r_scores)
  in
  let trace_requests ~name ~t0 ~due reqs (x : exchange) =
    if !Tracer.enabled then begin
      let step = Tracer.add name t0 (Workload.now_ns ()) in
      for i = 0 to x.n_sent - 1 do
        match x.answered.(i) with
        | Some a ->
          let id, _, _ = reqs.(i) in
          let r = Tracer.add ~parent:step ~req:id "request" (due i) a in
          ignore (Tracer.add ~parent:r ~req:id "rtt" x.sent.(i) a)
        | None -> ()
      done
    end
  in
  let lines reqs = Array.map (fun (_, l, _) -> l) reqs in
  (* One open-loop step at [rate] for [seconds]. *)
  let run_step ~next ~(rate : float) ~(seconds : float) : step =
    let reqs = Array.init (Loadgen.step_size ~rate ~seconds) (fun _ -> next ()) in
    let t0 = Int64.add (Workload.now_ns ()) 2_000_000L in
    let due i = Loadgen.due_ns ~t0 ~rate i in
    let end_ns = Int64.add t0 (Int64.of_float (seconds *. 1e9)) in
    let x =
      exchange conns (lines reqs) ~give_up_ns:(Int64.add end_ns 60_000_000_000L)
        ~policy:(fun i now _ ->
          if Int64.compare (due i) now <= 0 then `Send else `Wait (seconds_until (due i) now))
    in
    trace_requests ~name:(Printf.sprintf "step.%grps" rate) ~t0 ~due reqs x;
    let records =
      List.init x.n_sent (fun i ->
          let outcome = check x i reqs.(i) in
          Workload.attempt t outcome;
          { Loadgen.due_ns = due i; sent_ns = x.sent.(i); done_ns = x.answered.(i);
            ok = outcome = None })
    in
    let verdict = Loadgen.judge ~rate ~end_ns records in
    sent_total := !sent_total + verdict.Loadgen.v_sent;
    completed_total := !completed_total + verdict.Loadgen.v_completed;
    { verdict; records }
  in
  (* One saturation phase: [window] repeats kept outstanding on each
     connection for [seconds]; the answers landing inside it, per
     second. *)
  let saturate ~(seconds : float) : float =
    let reqs = Array.init (int_of_float (max_rate_cap *. seconds) + 1) (fun _ -> repeats ()) in
    let t0 = Workload.now_ns () in
    let end_ns = Int64.add t0 (Int64.of_float (seconds *. 1e9)) in
    let x =
      exchange conns (lines reqs) ~give_up_ns:(Int64.add end_ns 60_000_000_000L)
        ~policy:(fun _ now outstanding ->
          if Int64.compare now end_ns >= 0 then `Stop
          else if outstanding < 2 * window then `Send
          else `Wait (seconds_until end_ns now))
    in
    trace_requests ~name:"step.saturation" ~t0 ~due:(fun i -> x.sent.(i)) reqs x;
    let inside = ref 0 in
    for i = 0 to x.n_sent - 1 do
      let outcome = check x i reqs.(i) in
      Workload.attempt t outcome;
      match x.answered.(i) with
      | Some a when outcome = None && Int64.compare a end_ns < 0 -> incr inside
      | _ -> ()
    done;
    sent_total := !sent_total + x.n_sent;
    completed_total := !completed_total + !inside;
    float_of_int !inside /. seconds
  in
  let stats0 = control "stats" in
  (* Rounds of (250/s, 600/s, saturation) phases, interleaved so that a
     slow spell of the machine lands on a few phases of each kind; the
     gated numbers are medians over the rounds. The daemon's histograms
     are read around each 600/s phase. *)
  let phase_s = 0.7 *. cfg.seconds /. float_of_int (3 * rounds) in
  let low = ref [] and high = ref [] and capacity = ref [] in
  let request = ref Obs.Hist.empty and handle = ref Obs.Hist.empty in
  for _ = 1 to rounds do
    low := run_step ~next:fixed ~rate:(List.nth fixed_rates 0) ~seconds:phase_s :: !low;
    let before = control "metrics" in
    high := run_step ~next:fixed ~rate:(List.nth fixed_rates 1) ~seconds:phase_s :: !high;
    let after = control "metrics" in
    let window name acc = Obs.Hist.merge acc (Layers.hist_delta ~before ~after name) in
    request := window "serve.request.ns" !request;
    handle := window "serve.handle.ns" !handle;
    capacity := saturate ~seconds:phase_s :: !capacity
  done;
  let rss = Proc.tree_peak_rss_mb d.Proc.pid in
  let passed steps = List.filter (fun s -> s.verdict.Loadgen.v_pass) steps in
  let ladder = ref [] in
  let max_rate, _ =
    Loadgen.search
      ~known:
        (List.map2
           (fun r steps -> (r, 2 * List.length (passed steps) >= List.length steps))
           fixed_rates [ !low; !high ])
      ~measure:(fun rate ->
        let s = run_step ~next:ladder_requests ~rate ~seconds:(0.06 *. cfg.seconds) in
        ladder := s.verdict :: !ladder;
        s.verdict.Loadgen.v_pass)
      ~max_steps:4 ()
  in
  let loop_s = Workload.s_since t_start in
  let loop_spans = !Tracer.count - spans_before in
  let stats1 = control "stats" in
  Array.iter Proc.close conns;
  Proc.close ctl;
  Workload.clean_exit t (Proc.stop d);
  let median_of f steps = Stats.median (List.map (fun s -> f s.verdict) steps) in
  (* Pooled over every phase at one rate, for the printed diagnostics. *)
  let pooled steps f =
    Stats.sorted (List.concat_map (fun s -> List.filter_map f s.records) steps)
  in
  let latency (r : Loadgen.request) =
    match r.Loadgen.done_ns with
    | Some a when r.Loadgen.ok -> Some (Loadgen.ms (Int64.sub a r.Loadgen.due_ns))
    | _ -> Some infinity
  in
  let rtt (r : Loadgen.request) =
    Option.map (fun a -> Loadgen.ms (Int64.sub a r.Loadgen.sent_ns)) r.Loadgen.done_ns
  in
  let at rate steps =
    let l = pooled steps latency in
    let r = Printf.sprintf "%grps" rate in
    [ ("p50_ms_at_" ^ r, Stats.percentile l 0.5); ("p90_ms_at_" ^ r, Stats.percentile l 0.9);
      ("p99_ms_at_" ^ r, Stats.percentile l 0.99);
      ("loadgen." ^ r ^ ".late_p99_ms", median_of (fun v -> v.Loadgen.v_late_p99_ms) steps);
      ("loadgen." ^ r ^ ".sent", float_of_int (Array.length l));
      ("loadgen." ^ r ^ ".steps_passed", float_of_int (List.length (passed steps))) ]
  in
  let ladder_step (v : Loadgen.verdict) =
    let r = Printf.sprintf "ladder.%grps." (Float.round v.Loadgen.v_rate) in
    [ (r ^ "late_p99_ms", v.v_late_p99_ms); (r ^ "p90_ms", v.v_p90_ms);
      (r ^ "pass", if v.v_pass then 1.0 else 0.0) ]
  in
  let rtt_600 = pooled !high rtt in
  let request_p50 = Layers.hist_ms !request 0.5 and handle_p50 = Layers.hist_ms !handle 0.5 in
  let diag =
    at 250.0 !low @ at 600.0 !high
    @ [ ("max_rate_rps", max_rate); ("capacity_rps", Stats.median !capacity);
        ("serve.rtt.p50_ms", Stats.percentile rtt_600 0.5);
        ("serve.rtt.p90_ms", Stats.percentile rtt_600 0.9);
        ("serve.request.p50_ms", request_p50);
        ("serve.request.p90_ms", Layers.hist_ms !request 0.9);
        ("serve.handle.p50_ms", handle_p50);
        ("serve.handle.p90_ms", Layers.hist_ms !handle 0.9);
        ("serve.wire.p50_ms", Stats.percentile rtt_600 0.5 -. request_p50);
        ("supervise.hop.p50_ms", request_p50 -. handle_p50) ]
    @ List.concat_map ladder_step (List.rev !ladder)
  in
  if not cfg.trace then
    Workload.finish t ~diag
      ~metrics:
        [ ("setup_s", Stats.median !setups);
          ("latency_p50_ms", median_of (fun v -> v.Loadgen.v_p50_ms) !high);
          ("latency_p90_ms", median_of (fun v -> v.Loadgen.v_p90_ms) !high);
          ("throughput_per_s", Stats.median !capacity); ("peak_rss_mb", rss) ]
  else
    let store = Layers.delta ~before:(Layers.of_stats_line stats0) (Layers.of_stats_line stats1) in
    let layer =
      Ledger.run ~profiles_on_path:false
        (Ledger.corpus_sample warm (Workload.scaled cfg ~min:4 100))
    in
    Workload.finish t ~diag
      ~metrics:
        (layer
        @ Layers.traced ~store ~sent:!sent_total ~completed:!completed_total ~loop_spans ~loop_s)
