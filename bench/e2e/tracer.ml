(* The benchmark's own span recorder.

   Spans are recorded only around the benchmark's calls into the
   repository's public functions (an [Incr.analyze], a request sent to
   the daemon, one stage of the ledger replay); nothing inside the
   library is instrumented. A span carries its name, start and end on
   the monotonic clock, the span that caused it and a request id shared
   by every span of one request. Spans stay in memory until the run
   ends; [to_json] writes them out.

   Recording is off in the timed run: [with_span] is then one branch. *)

type span = {
  id : int;
  name : string;
  start_ns : int64;
  stop_ns : int64;
  parent : int;  (* -1 for a root *)
  req : int;     (* -1 when the span belongs to no single request *)
}

let enabled = ref false
let recorded : span list ref = ref []
let count = ref 0
let stack : int list ref = ref []

let now_ns = Obs.Probe.now_ns

let reset () =
  recorded := [];
  count := 0;
  stack := []

let current () = match !stack with id :: _ -> id | [] -> -1

(* Record a finished span with explicit bounds — for requests in flight
   concurrently, whose lifetimes do not nest. Returns its id. *)
let add ?(parent = current ()) ?(req = -1) (name : string) (start_ns : int64)
    (stop_ns : int64) : int =
  let id = !count in
  incr count;
  recorded := { id; name; start_ns; stop_ns; parent; req } :: !recorded;
  id

(* Run [f] inside a span when recording; spans opened by [f] nest below
   it. The id is reserved on entry so children can name their parent
   before the span closes. *)
let with_span ?(req = -1) (name : string) (f : unit -> 'a) : 'a =
  if not !enabled then f ()
  else begin
    let id = !count in
    incr count;
    let parent = current () in
    stack := id :: !stack;
    let start_ns = now_ns () in
    let finish () =
      let stop_ns = now_ns () in
      stack := List.tl !stack;
      recorded := { id; name; start_ns; stop_ns; parent; req } :: !recorded
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let spans () : span list =
  List.sort (fun a b -> compare a.id b.id) !recorded

let duration_ns (s : span) : int64 = Int64.sub s.stop_ns s.start_ns

(* Self time: the span's duration minus the part of its interval that
   its children cover. Children may overlap one another (two requests
   in flight at once), so their intervals are clipped to the parent and
   merged before subtracting; overlapping time is counted once. *)
let self_ns (children : span list) (s : span) : int64 =
  let clipped =
    List.filter_map
      (fun c ->
        let a = max c.start_ns s.start_ns and b = min c.stop_ns s.stop_ns in
        if Int64.compare a b < 0 then Some (a, b) else None)
      children
    |> List.sort compare
  in
  let covered, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) when Int64.compare a cb <= 0 -> (acc, Some (ca, max cb b))
        | Some (ca, cb) -> (Int64.add acc (Int64.sub cb ca), Some (a, b)))
      (0L, None) clipped
  in
  let covered =
    match last with
    | Some (a, b) -> Int64.add covered (Int64.sub b a)
    | None -> covered
  in
  Int64.sub (duration_ns s) covered

(* Per span name: how many spans, their total duration and their total
   self time, in milliseconds, sorted by name. *)
let summary (all : span list) : (string * int * float * float) list =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent s)
    all;
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let n, total, self =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt tbl s.name)
      in
      let ms x = Int64.to_float x /. 1e6 in
      Hashtbl.replace tbl s.name
        ( n + 1,
          total +. ms (duration_ns s),
          self +. ms (self_ns (Hashtbl.find_all children s.id) s) ))
    all;
  Hashtbl.fold (fun name (n, t, s) acc -> (name, n, t, s) :: acc) tbl []
  |> List.sort compare

let span_to_json (s : span) : Obs.Json.t =
  let num x = Obs.Json.Num x in
  Obs.Json.Obj
    [ ("id", num (float_of_int s.id));
      ("name", Obs.Json.Str s.name);
      ("start_ns", num (Int64.to_float s.start_ns));
      ("end_ns", num (Int64.to_float s.stop_ns));
      ("parent", num (float_of_int s.parent));
      ("req", num (float_of_int s.req)) ]

(* The measured cost of recording one span, in nanoseconds: the
   per-span share of a tight loop of empty spans. Multiplied by the
   span count of a traced run it gives the tracing overhead. *)
let span_cost_ns () : float =
  let saved_enabled = !enabled and saved = !recorded and saved_count = !count in
  enabled := true;
  let n = 20_000 in
  let t0 = now_ns () in
  for _ = 1 to n do
    with_span "calibrate" ignore
  done;
  let dt = Int64.to_float (Int64.sub (now_ns ()) t0) in
  enabled := saved_enabled;
  recorded := saved;
  count := saved_count;
  dt /. float_of_int n
