(* Processes the benchmark starts — estimator daemons — and the client
   side of their socket protocol.

   A daemon is the repository's own [bin/main.exe serve], taken from the
   build tree this executable was built in. Every daemon is registered
   when spawned and reaped when stopped; an [at_exit] hook kills and
   reaps whatever is still alive, so no exit path leaves a process
   behind. *)

let live : (int, unit) Hashtbl.t = Hashtbl.create 4

(* ------------------------------------------------------------------ *)
(* Memory: the kernel's high-water mark of resident memory. *)

let read_file (path : string) : string option =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> try Some (In_channel.input_all ic) with Sys_error _ -> None)

(* VmHWM of a process, in MB; 0 when unreadable. *)
let hwm_mb (pid : string) : float =
  match read_file (Printf.sprintf "/proc/%s/status" pid) with
  | None -> 0.0
  | Some s ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] ->
          (match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> float_of_string kb /. 1024.0
          | [] -> acc)
        | _ -> acc)
      0.0
      (String.split_on_char '\n' s)

let self_peak_rss_mb () : float = hwm_mb "self"

(* Children of [pid], from the parent field of /proc/<child>/stat. *)
let children (pid : int) : int list =
  match Sys.readdir "/proc" with
  | exception Sys_error _ -> []
  | entries ->
    Array.to_list entries
    |> List.filter_map (fun e ->
           match int_of_string_opt e with
           | None -> None
           | Some child ->
             Option.bind (read_file (Printf.sprintf "/proc/%d/stat" child))
               (fun stat ->
                 (* "pid (comm) state ppid ..."; comm may hold spaces. *)
                 match String.rindex_opt stat ')' with
                 | None -> None
                 | Some i ->
                   (match
                      String.split_on_char ' '
                        (String.sub stat (i + 2) (String.length stat - i - 2))
                    with
                   | _state :: ppid :: _ when int_of_string_opt ppid = Some pid ->
                     Some child
                   | _ -> None)))

(* Peak resident memory of a process and its children (the daemon's
   worker shards), summed. *)
let tree_peak_rss_mb (pid : int) : float =
  List.fold_left
    (fun acc p -> acc +. hwm_mb (string_of_int p))
    0.0
    (pid :: children pid)

(* ------------------------------------------------------------------ *)
(* Daemons. *)

type daemon = { pid : int; socket : string; log : string }

let alive (pid : int) : bool =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false

(* Wait up to [timeout_s] for [pid] to exit; the exit code, or None. *)
let wait_exit ~(timeout_s : float) (pid : int) : int option =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.005;
      go ()
    | 0, _ -> None
    | _, Unix.WEXITED c -> Some c
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> Some (128 + abs s)
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Some 0
  in
  go ()

let gone (pid : int) : bool =
  match Unix.kill pid 0 with
  | () -> false
  | exception Unix.Unix_error _ -> true

(* Kill a daemon and its workers outright and reap the daemon. Workers
   are the daemon's children: once it is gone they are reaped by init,
   so only their disappearance is awaited. *)
let kill (pid : int) : unit =
  let kids = children pid in
  List.iter (fun k -> try Unix.kill k Sys.sigkill with Unix.Unix_error _ -> ()) kids;
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (wait_exit ~timeout_s:10.0 pid);
  Hashtbl.remove live pid;
  let deadline = Unix.gettimeofday () +. 5.0 in
  while
    List.exists (fun k -> not (gone k)) kids && Unix.gettimeofday () < deadline
  do
    Unix.sleepf 0.005
  done

let () = at_exit (fun () -> Hashtbl.iter (fun pid () -> kill pid) (Hashtbl.copy live))

exception Daemon_failed of string

let log_tail (d : daemon) : string =
  match read_file d.log with
  | None -> ""
  | Some s ->
    let n = String.length s in
    String.sub s (max 0 (n - 2000)) (min n 2000)

(* [bin/main.exe] of the build tree holding this executable
   ([<build>/default/bench/e2e/main.exe]). *)
let estimator_exe () : string =
  let root = Filename.(dirname (dirname (dirname Sys.executable_name))) in
  let exe = Filename.concat root (Filename.concat "bin" "main.exe") in
  if Sys.file_exists exe then exe
  else raise (Daemon_failed (exe ^ " is not built (dune build bin/main.exe)"))

let open_log (log : string) : Unix.file_descr =
  Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644

(* Spawn a daemon listening on [socket] (a path relative to the working
   directory keeps it under the socket-path length limit) and wait until
   it accepts connections. [args] are further [bin serve] flags. *)
let spawn ~(socket : string) ~(log : string) (args : string list) : daemon =
  let exe = estimator_exe () in
  let argv = Array.of_list (exe :: "serve" :: "--socket" :: socket :: args) in
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  let logfd = open_log log in
  let pid = Unix.create_process exe argv stdin_r logfd logfd in
  Unix.close stdin_r;
  Unix.close stdin_w;
  Unix.close logfd;
  Hashtbl.replace live pid ();
  let d = { pid; socket; log } in
  let deadline = Unix.gettimeofday () +. 60.0 in
  while not (Sys.file_exists socket) do
    if not (alive pid) then begin
      Hashtbl.remove live pid;
      raise (Daemon_failed ("daemon exited during start-up\n" ^ log_tail d))
    end;
    if Unix.gettimeofday () > deadline then begin
      kill pid;
      raise (Daemon_failed "daemon did not open its socket within 60 s")
    end;
    Unix.sleepf 0.002
  done;
  d

(* Graceful drain: SIGTERM, then wait for the exit code (the daemon
   flushes its store first). Killed after 60 s. *)
let stop (d : daemon) : int =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  match wait_exit ~timeout_s:60.0 d.pid with
  | Some c ->
    Hashtbl.remove live d.pid;
    c
  | None ->
    kill d.pid;
    raise (Daemon_failed "daemon did not drain within 60 s")

(* ------------------------------------------------------------------ *)
(* Client connections: one request per batch (the line, then a blank
   line), one response line back per request, in order. *)

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;          (* bytes read, not yet split into lines *)
  lines : string Queue.t;    (* complete response lines *)
  outbuf : Buffer.t;         (* bytes queued, not yet written *)
  chunk : Bytes.t;
}

let of_fd (fd : Unix.file_descr) : conn =
  { fd; inbuf = Buffer.create 65536; lines = Queue.create ();
    outbuf = Buffer.create 65536; chunk = Bytes.create 65536 }

let connect (socket : string) : conn =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  of_fd fd

let close (c : conn) : unit = try Unix.close c.fd with Unix.Unix_error _ -> ()

let frame (line : string) : string = line ^ "\n\n"

let analyze_line ~(id : int) (p : Programs.program) : string =
  Obs.Json.(
    to_compact_string
      (Obj
         [ ("id", Num (float_of_int id)); ("op", Str "analyze");
           ("name", Str p.Programs.name); ("source", Str p.Programs.source) ]))

let control_line (op : string) : string =
  Obs.Json.(to_compact_string (Obj [ ("id", Str op); ("op", Str op) ]))

(* Read what is available (blocking once); false on EOF. *)
let read_some (c : conn) : bool =
  match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
  | 0 -> false
  | n ->
    Buffer.add_subbytes c.inbuf c.chunk 0 n;
    (* Split only when the new bytes complete a line. *)
    let rec has_newline i = i < n && (Bytes.get c.chunk i = '\n' || has_newline (i + 1)) in
    if has_newline 0 then begin
      let rec push = function
        | [ rest ] ->
          Buffer.clear c.inbuf;
          Buffer.add_string c.inbuf rest
        | line :: rest ->
          if line <> "" then Queue.add line c.lines;
          push rest
        | [] -> ()
      in
      push (String.split_on_char '\n' (Buffer.contents c.inbuf))
    end;
    true
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
    true

exception Closed

(* Blocking round trip of one request line. *)
let rec next_line (c : conn) : string =
  match Queue.take_opt c.lines with
  | Some l -> l
  | None -> if read_some c then next_line c else raise Closed

let write_all (fd : Unix.file_descr) (s : string) : unit =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let request (c : conn) (line : string) : string =
  write_all c.fd (frame line);
  next_line c

(* ------------------------------------------------------------------ *)
(* An estimator on standard input and output ([bin serve] without a
   socket), started fresh for one request, as a compiler driver would
   start one. *)

type piped = { p_pid : int; p_in : Unix.file_descr; p_out : conn }

(* Start one and send it [line]; returns once it has answered. *)
let start_piped ~(log : string) (line : string) : piped * string =
  let exe = estimator_exe () in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let logfd = open_log log in
  let pid = Unix.create_process exe [| exe; "serve" |] in_r out_w logfd in
  Unix.close in_r;
  Unix.close out_w;
  Unix.close logfd;
  Hashtbl.replace live pid ();
  let p = { p_pid = pid; p_in = in_w; p_out = of_fd out_r } in
  write_all in_w (frame line);
  (p, next_line p.p_out)

(* Close its input, which ends it, and reap it: its exit code. *)
let finish_piped (p : piped) : int =
  (try Unix.close p.p_in with Unix.Unix_error _ -> ());
  close p.p_out;
  match wait_exit ~timeout_s:60.0 p.p_pid with
  | Some c ->
    Hashtbl.remove live p.p_pid;
    c
  | None ->
    kill p.p_pid;
    raise (Daemon_failed "estimator did not exit within 60 s of its input closing")

(* Non-blocking sending for the open loop: queue, then write what the
   socket takes. *)
let enqueue (c : conn) (line : string) : unit = Buffer.add_string c.outbuf (frame line)

let flush_some (c : conn) : unit =
  let n = Buffer.length c.outbuf in
  if n > 0 then
    match Unix.single_write_substring c.fd (Buffer.contents c.outbuf) 0 n with
    | w ->
      let rest = Buffer.sub c.outbuf w (n - w) in
      Buffer.clear c.outbuf;
      Buffer.add_string c.outbuf rest
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
