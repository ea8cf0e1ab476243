(* Transport for the NDJSON serve protocol.

   Framing: requests are lines, a blank line (or end of stream) closes
   a batch, and responses come back one line per request after the
   batch. This module owns that framing, once, for every carrier: a
   [Conn] reads one file descriptor and writes another — the same
   socket for a Unix-domain client, fds 0 and 1 for the stdio daemon,
   a file pair for a test harness, a socketpair between [Supervise]
   and a worker (one request per batch). Bytes arrive whenever
   [select] says the input is readable; [feed] turns them into
   completed batches, which wait in the connection (as do partial
   lines and the open batch) until the server takes them with
   [next_batch]. *)

module Conn = struct
  type t = {
    in_fd : Unix.file_descr;
    out_fd : Unix.file_descr;
    raw : Buffer.t;                   (* bytes read, not yet split *)
    mutable acc : string list;        (* the open batch, reversed *)
    batches : string list Queue.t;    (* completed, not yet taken *)
    mutable eof : bool;               (* the input has ended *)
    mutable closed : bool;            (* the output is gone *)
  }

  let create ?(out : Unix.file_descr option) (fd : Unix.file_descr) : t =
    { in_fd = fd; out_fd = Option.value ~default:fd out;
      raw = Buffer.create 4096; acc = []; batches = Queue.create ();
      eof = false; closed = false }

  let push_line (c : t) (line : string) : unit =
    if line <> "" then c.acc <- line :: c.acc
    else if c.acc <> [] then begin
      Queue.add (List.rev c.acc) c.batches;
      c.acc <- []
    end

  (* Reads land here first; every [feed] runs on the main domain. *)
  let chunk = Bytes.create 65536

  (* One read. A read of zero bytes is the end of input: an
     unterminated last line and the open batch close there, as they
     would on a blank line. Each completed line is allocated once; a
     partial tail waits in [raw]. *)
  let feed (c : t) : unit =
    match Unix.read c.in_fd chunk 0 (Bytes.length chunk) with
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ()
    | n when n > 0 ->
      let rec go start i =
        if i = n then Buffer.add_subbytes c.raw chunk start (n - start)
        else if Bytes.get chunk i <> '\n' then go start (i + 1)
        else begin
          Buffer.add_subbytes c.raw chunk start (i - start);
          push_line c (Buffer.contents c.raw);
          Buffer.clear c.raw;
          go (i + 1) (i + 1)
        end
      in
      go 0 0
    | _ | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      c.eof <- true;
      push_line c (Buffer.contents c.raw);
      Buffer.clear c.raw;
      push_line c ""

  let next_batch (c : t) : string list option = Queue.take_opt c.batches

  let has_batch (c : t) : bool = not (Queue.is_empty c.batches)

  (* Blocking full write; a client that vanished mid-write is treated
     as closed and the remaining responses are dropped (they have no
     reader). *)
  let write_lines (c : t) (lines : string list) : unit =
    if not c.closed then begin
      let s = String.concat "\n" (lines @ [ "" ]) in
      let len = String.length s in
      let rec go off =
        if off < len then
          match Unix.write_substring c.out_fd s off (len - off) with
          | n -> go (off + n)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
          | exception
              Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _)
            ->
            c.closed <- true
      in
      if lines <> [] then go 0
    end

  (* For socket connections, whose one fd is both ends. *)
  let close (c : t) : unit =
    c.closed <- true;
    try Unix.close c.in_fd with Unix.Unix_error _ -> ()
end

(* ------------------------------------------------------------------ *)
(* Unix-domain listeners. *)

let listen_unix (path : string) : Unix.file_descr =
  (* Bind under a temp name and rename into place only once [listen]
     has run: clients poll for the path's existence, and a connect
     landing between bind and listen would be refused. The rename makes
     "the file exists" imply "the daemon accepts". *)
  let tmp = path ^ ".tmp" in
  if Sys.file_exists tmp then Sys.remove tmp;
  if Sys.file_exists path then Sys.remove path;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX tmp);
  Unix.listen fd 16;
  Unix.rename tmp path;
  fd

let connect_unix (path : string) : Unix.file_descr =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd
