(* The supervised sharded worker pool behind [serve --workers N].

   The parent forks N workers at startup; each worker holds one shard
   of the incremental store and speaks the serve framing
   ([Transport.Conn]) over its socketpair: the parent writes one request
   line as a batch of its own, and the worker answers with exactly one
   response line, framed the same way. Requests are routed by a
   stable hash of their key (the program name), so every program's
   cache entries, [scores] history and [invalidate] requests land on
   the same worker for the life of the pool.

   Supervision. A worker death is detected at the two points it can
   manifest — the write of a request (EPIPE) or the read of its reply
   (EOF) — and handled by reaping the corpse, sleeping an exponential
   backoff with deterministic jitter, forking a replacement, and
   replaying the in-flight request exactly once. A request whose replay
   also dies comes back as [Lost]: the caller turns that into a typed
   worker-lost fault response, and the pool keeps serving other keys on
   the fresh worker. Deterministic chaos ([--chaos SEED] arming the
   ["serve.worker-kill"] point) kills by key, so the replay of a
   chaos-killed request dies again and surfaces as exactly one [Lost]
   per doomed key at any worker count — reproducibly.

   Crash-loop circuit breaker: [max_consecutive_crashes] deaths with no
   intervening successful reply mark the shard broken; its requests
   fail fast as [Lost] without burning fork/backoff cycles. A reply
   resets the count. Parent-initiated deadline kills (SIGKILL after
   [deadline_s] of silence) do not count toward the breaker — a slow
   request is not a crash loop.

   Fork safety. [Unix.fork] must not duplicate a running domain pool,
   so [start] must be called before anything triggers [Parallel]'s lazy
   pool creation. The sharded serve path never fans out in-process,
   which guarantees this by construction. *)

module Conn = Transport.Conn

type worker = {
  w_shard : int;
  mutable w_pid : int;
  mutable w_conn : Conn.t;         (* parent end of the socketpair *)
  mutable w_alive : bool;
  mutable w_crashes : int;         (* consecutive, reset on a reply *)
  mutable w_broken : bool;         (* circuit breaker tripped *)
  mutable w_restarts : int;        (* lifetime respawns of this shard *)
}

type t = {
  p_workers : worker array;
  p_init : shard:int -> unit;
  p_finalize : shard:int -> unit;
  p_handler : string -> string;
  p_deadline_s : float option;     (* hard per-request deadline *)
  p_max_crashes : int;
  mutable p_restarts : int;
  mutable p_lost : int;
}

type outcome =
  | Reply of string        (* the worker's response line *)
  | Deadline of float      (* killed after this many seconds of silence *)
  | Lost of string         (* died twice (or breaker open): detail text *)

let size (t : t) = Array.length t.p_workers
let restarts (t : t) = t.p_restarts
let lost (t : t) = t.p_lost

let alive (t : t) =
  Array.fold_left (fun n w -> if w.w_alive then n + 1 else n) 0 t.p_workers

let pids (t : t) =
  Array.to_list (Array.map (fun w -> w.w_pid) t.p_workers)

(* Per-shard health, for the [metrics] verb: restart and breaker state
   the summed pool counters cannot attribute to a shard. *)
type shard_state = {
  ss_shard : int;
  ss_alive : bool;
  ss_crashes : int;     (* consecutive, toward the breaker *)
  ss_broken : bool;
  ss_restarts : int;
}

let shard_states (t : t) : shard_state list =
  Array.to_list
    (Array.map
       (fun w ->
         { ss_shard = w.w_shard; ss_alive = w.w_alive;
           ss_crashes = w.w_crashes; ss_broken = w.w_broken;
           ss_restarts = w.w_restarts })
       t.p_workers)

(* Stable request routing: depends only on the key string, never on
   pool state, so a restarted daemon shards identically. *)
let shard_of (t : t) (key : string) : int =
  Hashtbl.hash key mod Array.length t.p_workers

(* ------------------------------------------------------------------ *)
(* Worker side. *)

let worker_main (t : t) ~(shard : int) (fd : Unix.file_descr) : 'a =
  (* The parent coordinates shutdown by closing our pipe; terminal
     signals delivered to the whole process group must not beat the
     final snapshot out of us. *)
  Sys.set_signal Sys.sigterm Sys.Signal_ignore;
  Sys.set_signal Sys.sigint Sys.Signal_ignore;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try t.p_init ~shard
   with e ->
     prerr_endline
       (Printf.sprintf "serve: worker %d init failed: %s" shard
          (Printexc.to_string e));
     flush stderr;
     (* [_exit], here and below: a forked child must never flush the
        channel buffers it inherited from the parent (duplicated
        output) nor run the parent's at_exit hooks. *)
     Unix._exit 1);
  let conn = Conn.create fd in
  let rec loop () =
    match Conn.next_batch conn with
    | Some lines ->
      Conn.write_lines conn (List.map t.p_handler lines @ [ "" ]);
      loop ()
    | None when conn.Conn.eof -> ()
    | None ->
      Conn.feed conn;
      loop ()
  in
  (try loop () with _ -> ());
  (try t.p_finalize ~shard with _ -> ());
  Unix._exit 0

(* ------------------------------------------------------------------ *)
(* Parent side: lifecycle. *)

let spawn (t : t) (w : worker) : unit =
  let parent_fd, child_fd =
    Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  match Unix.fork () with
  | 0 ->
    Unix.close parent_fd;
    (* Drop inherited parent-ends of sibling pipes: a copy held here
       would keep a sibling's pipe open after the parent closes it,
       and the sibling would never see EOF at drain. *)
    Array.iter
      (fun (o : worker) ->
        if o.w_shard <> w.w_shard && o.w_alive then
          try Unix.close o.w_conn.Conn.in_fd with Unix.Unix_error _ -> ())
      t.p_workers;
    worker_main t ~shard:w.w_shard child_fd
  | pid ->
    Unix.close child_fd;
    w.w_pid <- pid;
    w.w_conn <- Conn.create parent_fd;
    w.w_alive <- true

let reap (w : worker) : unit =
  try ignore (Unix.waitpid [] w.w_pid) with Unix.Unix_error _ -> ()

(* Exponential backoff with deterministic jitter: the delay depends
   only on (shard, crash count), so chaos runs reproduce. *)
let backoff_delay (w : worker) : float =
  let n = max 1 w.w_crashes in
  let base = 0.02 *. (2.0 ** float_of_int (min 5 (n - 1))) in
  let jitter =
    float_of_int (Hashtbl.hash (w.w_shard, n) mod 1000) /. 4000.0
  in
  Float.min 1.0 (base *. (1.0 +. jitter))

(* A worker died (crash) or was killed for a deadline ([crash:false]).
   Reap it and either trip the breaker or restart after backoff. *)
let handle_death (t : t) (w : worker) ~(crash : bool) : unit =
  w.w_alive <- false;
  Conn.close w.w_conn;
  reap w;
  if crash then begin
    w.w_crashes <- w.w_crashes + 1;
    Obs.Probe.count "serve.worker_death"
  end;
  if crash && w.w_crashes >= t.p_max_crashes then w.w_broken <- true
  else begin
    if crash then Unix.sleepf (backoff_delay w);
    t.p_restarts <- t.p_restarts + 1;
    w.w_restarts <- w.w_restarts + 1;
    Obs.Probe.count "serve.worker_restart";
    spawn t w
  end

let start ~(workers : int) ?(deadline_s : float option)
    ?(max_consecutive_crashes = 5) ~(init : shard:int -> unit)
    ~(finalize : shard:int -> unit) ~(handler : string -> string) () : t =
  if workers < 1 then invalid_arg "Supervise.start: workers < 1";
  (* EPIPE on a dead worker's pipe must surface as an error code, not a
     process-killing signal. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let t =
    { p_workers =
        Array.init workers (fun shard ->
            { w_shard = shard; w_pid = 0; w_conn = Conn.create Unix.stdin;
              w_alive = false; w_crashes = 0; w_broken = false;
              w_restarts = 0 });
      p_init = init;
      p_finalize = finalize;
      p_handler = handler;
      p_deadline_s = deadline_s;
      p_max_crashes = max_consecutive_crashes;
      p_restarts = 0;
      p_lost = 0 }
  in
  Array.iter (fun w -> spawn t w) t.p_workers;
  t

(* Close every pipe (workers see EOF, finalize their shard and exit)
   and wait for them — the blocking wait IS the journal flush barrier
   of a graceful drain. *)
let stop (t : t) : unit =
  Array.iter
    (fun w ->
      if w.w_alive then begin
        Conn.close w.w_conn;
        reap w;
        w.w_alive <- false
      end)
    t.p_workers

(* ------------------------------------------------------------------ *)
(* Parent side: requests. *)

type pending = {
  pd_slot : int;
  pd_key : string;
  pd_line : string;
  mutable pd_replayed : bool;
}

let circuit_msg (w : worker) : string =
  Printf.sprintf
    "shard %d circuit breaker open after %d consecutive crashes" w.w_shard
    w.w_crashes

(* Run a set of requests, each pinned to a shard, multiplexing across
   workers: every shard serves its queue in lockstep (one in-flight
   request) while the parent selects over all in-flight pipes, so
   distinct shards make progress concurrently. Returns one outcome per
   slot, in completion order, with the slot's wall-clock seconds from
   fan-out start to completion — queue wait included, which is what the
   client experienced. *)
let run (t : t) (items : (int * int * string * string) list) :
    (int * outcome * float) list =
  let t0 = Unix.gettimeofday () in
  let n = Array.length t.p_workers in
  let queues = Array.make n [] in
  List.iter
    (fun (slot, shard, key, line) ->
      queues.(shard) <-
        { pd_slot = slot; pd_key = key; pd_line = line; pd_replayed = false }
        :: queues.(shard))
    items;
  let queues = Array.map (fun q -> ref (List.rev q)) queues in
  let in_flight : (pending * float) option array = Array.make n None in
  let results = ref [] in
  let outstanding = ref (List.length items) in
  let finish (pd : pending) (o : outcome) : unit =
    results := (pd.pd_slot, o, Unix.gettimeofday () -. t0) :: !results;
    decr outstanding
  in
  let deadline_abs () =
    match t.p_deadline_s with
    | None -> infinity
    | Some d -> Unix.gettimeofday () +. d
  in
  let lost (pd : pending) (detail : string) : unit =
    t.p_lost <- t.p_lost + 1;
    Obs.Probe.count "serve.worker_lost";
    finish pd (Lost detail)
  in
  (* Death of shard [i] while [pd] was (being) sent: restart and replay
     once; a second death is a loss. *)
  let death (i : int) (pd : pending) : unit =
    let w = t.p_workers.(i) in
    in_flight.(i) <- None;
    handle_death t w ~crash:true;
    if w.w_broken then lost pd (circuit_msg w)
    else if pd.pd_replayed then
      lost pd
        (Printf.sprintf "shard %d worker died twice on key %S" i pd.pd_key)
    else begin
      pd.pd_replayed <- true;
      queues.(i) := pd :: !(queues.(i))
    end
  in
  let dispatch () =
    Array.iteri
      (fun i w ->
        if in_flight.(i) = None then
          match !(queues.(i)) with
          | [] -> ()
          | pd :: rest ->
            queues.(i) := rest;
            if w.w_broken then lost pd (circuit_msg w)
            else begin
              if not w.w_alive then spawn t w;
              Conn.write_lines w.w_conn [ pd.pd_line; "" ];
              if w.w_conn.Conn.closed then death i pd
              else in_flight.(i) <- Some (pd, deadline_abs ())
            end)
      t.p_workers
  in
  while !outstanding > 0 do
    dispatch ();
    let fds =
      Array.to_list
        (Array.map (fun w -> w.w_conn.Conn.in_fd) t.p_workers)
      |> List.filteri (fun i _ -> in_flight.(i) <> None)
    in
    if fds <> [] then begin
      let timeout =
        Array.fold_left
          (fun acc slot ->
            match slot with
            | Some (_, dl) -> Float.min acc dl
            | None -> acc)
          infinity in_flight
      in
      let timeout =
        if timeout = infinity then -1.0
        else Float.max 0.0 (timeout -. Unix.gettimeofday ())
      in
      let readable =
        match Unix.select fds [] [] timeout with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      List.iter
        (fun fd ->
          match
            Array.to_list t.p_workers
            |> List.find_opt (fun w -> w.w_alive && w.w_conn.Conn.in_fd = fd)
          with
          | None -> ()
          | Some w ->
            let i = w.w_shard in
            (match in_flight.(i) with
            | None -> ()
            | Some (pd, _) ->
              Conn.feed w.w_conn;
              if w.w_conn.Conn.eof then death i pd
              else
                match Conn.next_batch w.w_conn with
                | Some (line :: _) ->
                  w.w_crashes <- 0;
                  in_flight.(i) <- None;
                  finish pd (Reply line)
                | Some [] | None -> ()))
        readable;
      (* Deadline sweep: anything silent past its mark is killed and
         restarted; no replay — the request itself is the suspect. *)
      let now = Unix.gettimeofday () in
      Array.iteri
        (fun i slot ->
          match slot with
          | Some (pd, dl) when now >= dl ->
            let w = t.p_workers.(i) in
            (try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ());
            in_flight.(i) <- None;
            handle_death t w ~crash:false;
            Obs.Probe.count "serve.deadline_kill";
            finish pd
              (Deadline (Option.value ~default:0.0 t.p_deadline_s))
          | _ -> ())
        in_flight
    end
  done;
  !results

let request_many (t : t) (reqs : (int * string * string) list) :
    (int * outcome * float) list =
  run t
    (List.map (fun (slot, key, line) -> (slot, shard_of t key, key, line)) reqs)

let request (t : t) ~(key : string) (line : string) : outcome =
  match request_many t [ (0, key, line) ] with
  | [ (_, o, _) ] -> o
  | _ -> assert false

(* One request to every shard (control ops with no routing key: stats
   aggregation, store-wide invalidate). *)
let broadcast (t : t) (line : string) : (int * outcome) list =
  run t (List.init (Array.length t.p_workers) (fun i -> (i, i, "*", line)))
  |> List.map (fun (shard, o, _) -> (shard, o))
  |> List.sort compare
