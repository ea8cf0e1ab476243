(* What every workload receives and returns. *)

type config = {
  seed : int;
  seconds : float;     (* how long the measured loop runs *)
  trace : bool;        (* the traced run: spans plus the per-layer ledger *)
  scale : float;       (* 1.0; the smoke test shrinks every size by it *)
  workdir : string;    (* scratch for sockets, stores and daemon logs *)
}

(* Scale a count, keeping at least [min]. *)
let scaled (cfg : config) ?(min = 1) (n : int) : int =
  max min (int_of_float (Float.round (float_of_int n *. cfg.scale)))

type result = {
  attempted : int;
  failed : int;                      (* errors plus check violations *)
  notes : string list;               (* the first few violations *)
  metrics : (string * float) list;   (* end-to-end, or per-layer when traced *)
  diag : (string * float) list;      (* printed and traced, not gated *)
}

(* Failure accounting: every operation is attempted once; a failed one
   keeps its reason. *)
type tally = {
  mutable t_attempted : int;
  mutable t_failed : int;
  mutable t_notes : string list;
}

let tally () = { t_attempted = 0; t_failed = 0; t_notes = [] }

let attempt (t : tally) (outcome : string option) : unit =
  t.t_attempted <- t.t_attempted + 1;
  match outcome with
  | None -> ()
  | Some why ->
    t.t_failed <- t.t_failed + 1;
    if List.length t.t_notes < 10 then t.t_notes <- t.t_notes @ [ why ]

let clean_exit (t : tally) (code : int) : unit =
  attempt t (if code = 0 then None else Some (Printf.sprintf "daemon exited with code %d" code))

let now_ns = Obs.Probe.now_ns
let ms_since (t0 : int64) : float = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e6
let s_since (t0 : int64) : float = ms_since t0 /. 1000.0

(* Set up [k] times, timing each [start] into [setups] (seconds), then
   running [after] on it off the clock; all but the last are torn down
   with [stop], and the last is returned. *)
let repeat_setup ~(k : int) (setups : float list ref) ~(start : unit -> 'a) ~(after : 'a -> unit)
    ~(stop : 'a -> unit) : 'a =
  let rec go k =
    let t0 = now_ns () in
    let x = start () in
    setups := s_since t0 :: !setups;
    after x;
    if k <= 1 then x
    else begin
      stop x;
      go (k - 1)
    end
  in
  go k

(* The latency block of a closed loop, from per-request latencies in
   arrival order: p50, p90 and completions per second of latency.

   The machines this runs on slow down in bursts of a few seconds, so
   with [chunk] each number is the median, over consecutive chunks of
   that many requests, of the chunk's own value: a burst moves the
   chunks it covers, not the result. Without [chunk] they are taken
   over the whole sample. The highest percentile the whole sample
   supports is printed beside them. *)
let closed_loop ?chunk (ms : float list) : (string * float) list * (string * float) list =
  let all = Array.of_list ms in
  let n = Array.length all in
  let size = match chunk with Some c when c < n -> c | _ -> max 1 n in
  let chunks =
    List.init (max 1 (n / size)) (fun k -> Array.to_list (Array.sub all (k * size) (min size n)))
  in
  let over f = Stats.median (List.map f chunks) in
  let p q c = Stats.percentile (Stats.sorted c) q in
  let gated =
    [ ("latency_p50_ms", over (p 0.5)); ("latency_p90_ms", over (p 0.9));
      ("throughput_per_s",
       over (fun c -> float_of_int (List.length c) /. (List.fold_left ( +. ) 0.0 c /. 1000.0))) ]
  in
  let sorted = Stats.sorted ms in
  let tail =
    match Stats.highest_supported n with
    | Some q when q > 0.9 ->
      [ ("latency_" ^ Stats.quantile_name q ^ "_ms", Stats.percentile sorted q) ]
    | _ -> []
  in
  ( gated,
    [ ("latency_samples", float_of_int n); ("latency_chunks", float_of_int (List.length chunks)) ]
    @ tail )

let finish (t : tally) ~(metrics : (string * float) list) ~(diag : (string * float) list) : result =
  { attempted = max 1 t.t_attempted; failed = t.t_failed; notes = t.t_notes; metrics;
    diag =
      diag
      @ [ ("checks.roundoff_negatives", float_of_int !Checks.roundoff_negatives);
          ("failed_frac",
           if t.t_attempted = 0 then 1.0
           else float_of_int t.t_failed /. float_of_int t.t_attempted) ] }
