(* [bin watch --connect PATH]: a polling client for the daemon's
   [metrics] verb, rendering a refreshing text dashboard — rolling
   throughput, latency quantiles, cache hit rate, queue depth, slow
   count and per-shard supervision state.

   The rendering is a pure function of (previous snapshot, current
   snapshot, elapsed seconds) so tests drive it on canned JSON; the
   polling loop owns the socket, the clock and the escape codes. *)

module Json = Obs.Json

let fnum path j =
  let rec walk j = function
    | [] -> Json.to_num j
    | k :: rest -> Option.bind (Json.member k j) (fun j -> walk j rest)
  in
  walk j path

let fmt_ms (ns : float) : string =
  let ms = ns /. 1e6 in
  if ms >= 100.0 then Printf.sprintf "%.0fms" ms
  else if ms >= 1.0 then Printf.sprintf "%.1fms" ms
  else Printf.sprintf "%.2fms" ms

let fmt_bytes (b : float) : string =
  if b >= 1048576.0 then Printf.sprintf "%.1fMB" (b /. 1048576.0)
  else if b >= 1024.0 then Printf.sprintf "%.1fKB" (b /. 1024.0)
  else Printf.sprintf "%.0fB" b

(* [prev] is the previous poll's (elapsed-seconds-ago, snapshot);
   throughput needs two points. *)
let render ?(prev : (float * Json.t) option) (j : Json.t) : string =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let opt path = fnum path j in
  let get path = Option.value ~default:0.0 (opt path) in
  let rev =
    Option.value ~default:"?"
      (Option.bind (Json.member "git_rev" j) Json.to_str)
  in
  let requests = get [ "hists"; "serve.request.ns"; "count" ] in
  let rate =
    match prev with
    | Some (dt, p) when dt > 0.0 ->
      let before =
        Option.value ~default:0.0
          (fnum [ "hists"; "serve.request.ns"; "count" ] p)
      in
      Printf.sprintf "%.1f req/s" ((requests -. before) /. dt)
    | _ -> "- req/s"
  in
  line "estimator daemon  rev %s  schema %.0f" rev (get [ "schema" ]);
  line "requests  %.0f total   %s" requests rate;
  (match Json.member "serve.request.ns" (Option.value ~default:Json.Null (Json.member "hists" j)) with
  | None -> line "latency   (no serve.request.ns histogram yet)"
  | Some h ->
    let q k = Option.value ~default:0.0 (Option.bind (Json.member k h) Json.to_num) in
    line "latency   p50 %s  p90 %s  p99 %s  p999 %s  max %s"
      (fmt_ms (q "p50")) (fmt_ms (q "p90")) (fmt_ms (q "p99"))
      (fmt_ms (q "p999")) (fmt_ms (q "max")));
  let hits = get [ "counters"; "incr.hit" ] in
  let misses = get [ "counters"; "incr.miss" ] in
  let lookups = hits +. misses in
  let hit_rate =
    if lookups > 0.0 then Printf.sprintf "%.1f%%" (100.0 *. hits /. lookups)
    else "-"
  in
  let bytes =
    match opt [ "gauges"; "incr.bytes"; "value" ] with
    | Some v -> fmt_bytes v
    | None -> "-"
  in
  line "cache     hit rate %s (%.0f/%.0f)   store %s" hit_rate hits lookups
    bytes;
  let depth =
    match opt [ "gauges"; "serve.queue_depth"; "value" ] with
    | Some v -> Printf.sprintf "%.0f" v
    | None -> "-"
  in
  let slow_count = get [ "slow"; "count" ] in
  let threshold =
    match opt [ "slow"; "threshold_ms" ] with
    | Some t -> Printf.sprintf " (>%.0fms)" t
    | None -> ""
  in
  line "queue     depth %s   slow %.0f%s" depth slow_count threshold;
  let workers = get [ "workers" ] in
  if workers > 0.0 then begin
    line "workers   %.0f/%.0f alive   restarts %.0f   lost %.0f"
      (get [ "workers_alive" ]) workers
      (get [ "worker_restarts" ])
      (get [ "worker_lost" ]);
    match Json.member "shards" j with
    | Some (Json.Arr shards) ->
      List.iter
        (fun s ->
          let g k = Option.value ~default:0.0 (Option.bind (Json.member k s) Json.to_num) in
          let flag k =
            match Json.member k s with Some (Json.Bool b) -> b | _ -> false
          in
          line "  shard %.0f  %s  crashes %.0f  restarts %.0f%s" (g "shard")
            (if flag "alive" then "alive" else "down")
            (g "crashes") (g "restarts")
            (if flag "broken" then "  BREAKER OPEN" else ""))
        shards
    | _ -> ()
  end;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* The polling loop. [polls = 0] runs until the daemon goes away.
   Exit 0 after the requested polls; exit 1 if the daemon cannot be
   reached or stops answering. *)

let run ~(socket : string) ~(interval_ms : int) ~(polls : int)
    ~(clear : bool) () : 'a =
  let fd =
    try Transport.connect_unix socket
    with Unix.Unix_error (e, _, _) ->
      Printf.eprintf "watch: cannot connect to %s: %s\n%!" socket
        (Unix.error_message e);
      exit 1
  in
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let prev : (float * Json.t) option ref = ref None in
  let rec loop (remaining : int) =
    if remaining = 0 then exit 0;
    output_string oc "{\"id\":\"watch\",\"op\":\"metrics\"}\n\n";
    flush oc;
    let t_sent = Unix.gettimeofday () in
    (match input_line ic with
    | exception End_of_file ->
      prerr_endline "watch: daemon closed the connection";
      exit (if !prev = None then 1 else 0)
    | line ->
      (match Json.parse line with
      | Error msg ->
        Printf.eprintf "watch: bad metrics snapshot: %s\n%!" msg;
        exit 1
      | Ok j ->
        let dashboard =
          render
            ?prev:
              (Option.map (fun (t, p) -> (t_sent -. t, p)) !prev)
            j
        in
        if clear then print_string "\027[2J\027[H";
        print_string dashboard;
        flush Stdlib.stdout;
        prev := Some (t_sent, j)));
    if remaining <> 1 then
      Unix.sleepf (float_of_int interval_ms /. 1000.0);
    loop (remaining - 1)
  in
  loop (if polls <= 0 then -1 else polls)
