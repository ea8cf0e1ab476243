(* Open-loop arithmetic: the arrival schedule, per-step verdicts and the
   rate ladder. Pure functions over timestamps, so the rules are unit
   tested without a daemon; the socket loop lives in [Served].

   Arrivals are evenly spaced at the step's rate. Each request's latency
   runs from when it was *due*, not from when it was sent, so a stalled
   generator or a stalled daemon charges its wait to every request
   queued behind the stall. How late the generator itself ran is
   reported separately; a step whose generator ran more than
   [max_late_ms] late at p99 measured the generator, not the daemon,
   and is invalid. *)

type request = {
  due_ns : int64;
  sent_ns : int64;
  done_ns : int64 option;  (* None: never answered *)
  ok : bool;               (* answered ok and passed every check *)
}

(* Due time of the [i]th request of a step starting at [t0]. *)
let due_ns ~(t0 : int64) ~(rate : float) (i : int) : int64 =
  Int64.add t0 (Int64.of_float (float_of_int i *. 1e9 /. rate))

(* Requests a step of [seconds] at [rate] sends. *)
let step_size ~(rate : float) ~(seconds : float) : int =
  max 1 (int_of_float (Float.round (rate *. seconds)))

let latency_limit_ms = 10.0
let max_late_ms = 1.0
let min_ok_frac = 0.99

type verdict = {
  v_rate : float;
  v_sent : int;
  v_completed : int;           (* answered ok *)
  v_p50_ms : float;
  v_p90_ms : float;
  v_p99_ms : float;
  v_late_p99_ms : float;
  v_outstanding_at_end : int;  (* due, not yet answered, when the schedule ended *)
  v_valid : bool;
  v_pass : bool;
}

let ms (ns : int64) : float = Int64.to_float ns /. 1e6

let judge ~(rate : float) ~(end_ns : int64) (reqs : request list) : verdict =
  let sent = List.length reqs in
  let completed = List.length (List.filter (fun r -> r.ok) reqs) in
  (* A failed or unanswered request misses every latency limit. *)
  let lat =
    Stats.sorted
      (List.map
         (fun r ->
           match r.done_ns with
           | Some d when r.ok -> ms (Int64.sub d r.due_ns)
           | _ -> infinity)
         reqs)
  in
  let late =
    Stats.sorted
      (List.map (fun r -> Float.max 0.0 (ms (Int64.sub r.sent_ns r.due_ns))) reqs)
  in
  let outstanding =
    List.length
      (List.filter
         (fun r ->
           Int64.compare r.due_ns end_ns <= 0
           && match r.done_ns with
              | None -> true
              | Some d -> Int64.compare d end_ns > 0)
         reqs)
  in
  let p q = Stats.percentile lat q in
  let late_p99 = Stats.percentile late 0.99 in
  let valid = late_p99 <= max_late_ms in
  let ok_frac =
    if sent = 0 then 0.0 else float_of_int completed /. float_of_int sent
  in
  { v_rate = rate; v_sent = sent; v_completed = completed;
    v_p50_ms = p 0.5; v_p90_ms = p 0.9; v_p99_ms = p 0.99;
    v_late_p99_ms = late_p99; v_outstanding_at_end = outstanding;
    v_valid = valid;
    v_pass =
      valid
      && p 0.9 <= latency_limit_ms
      && ok_frac >= min_ok_frac
      && float_of_int outstanding <= rate *. latency_limit_ms /. 1000.0 }

(* The highest passing rate. [known] holds rates already measured (the
   fixed steps) with their verdicts. From the highest passing rate the
   ladder multiplies by [factor] until a step fails, then [bisections]
   geometric midpoints narrow the gap between the last pass and the
   first fail. With no passing rate at all the ladder walks down from
   the lowest known rate instead. [max_steps] bounds the number of
   [measure] calls. Returns the answer (0 when nothing passed) and every
   (rate, pass) measured, in order. *)
let search ~(measure : float -> bool) ~(known : (float * bool) list)
    ?(factor = 1.25) ?(bisections = 2) ?(max_steps = 10) () :
    float * (float * bool) list =
  let steps = ref [] in
  let budget = ref max_steps in
  let run r =
    decr budget;
    let ok = measure r in
    steps := (r, ok) :: !steps;
    ok
  in
  let highest_pass l =
    List.fold_left (fun acc (r, ok) -> if ok then Float.max acc r else acc) 0.0 l
  in
  let lowest_fail_above lo l =
    List.fold_left
      (fun acc (r, ok) -> if (not ok) && r > lo then Float.min acc r else acc)
      infinity l
  in
  let lo = ref (highest_pass known) in
  let hi = ref (lowest_fail_above !lo known) in
  if !lo = 0.0 then begin
    (* Nothing passed: walk down until something does. *)
    let r = ref (List.fold_left (fun a (r, _) -> Float.min a r) infinity known) in
    while !lo = 0.0 && !budget > 0 && Float.is_finite !r do
      r := !r /. factor;
      if run !r then lo := !r else hi := !r
    done
  end;
  while !lo > 0.0 && (not (Float.is_finite !hi)) && !budget > 0 do
    let r = !lo *. factor in
    if run r then lo := r else hi := r
  done;
  let b = ref bisections in
  while !lo > 0.0 && Float.is_finite !hi && !b > 0 && !budget > 0 do
    decr b;
    let r = Float.sqrt (!lo *. !hi) in
    if run r then lo := r else hi := r
  done;
  (!lo, List.rev !steps)
