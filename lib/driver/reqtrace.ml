(* Request-scoped tracing for the serve daemon.

   [Trace] renders whole-run span trees for one-shot batch commands;
   this module does the per-request slice a long-running daemon needs:
   open a root span around one request, extract just that request's
   subtree from the probe buffers, and — because span ids are
   per-process counters that collide across the [Supervise] fork
   boundary — ship the subtree as a *tree of labels and durations*, not
   raw ids. A worker embeds its tree in the response envelope; the
   parent grafts it under its own request span, so one merged tree
   holds spans from both processes.

   Requests slower than the configured threshold land in a bounded
   ring buffer (newest [slow_capacity] entries, readable through the
   [metrics] verb) and, when a sink file is configured, are appended
   to it as one NDJSON line each. *)

module Json = Obs.Json
module Probe = Obs.Probe

(* ------------------------------------------------------------------ *)
(* Span trees. *)

type tree = {
  t_label : string;
  t_count : int;       (* same-label siblings merged; how many *)
  t_ns : int64;        (* summed duration *)
  t_kids : tree list;
}

(* The one span-tree builder, for [--trace], the metrics document, the
   run record's timings and the slow log. [children] maps a span id to
   its kids; siblings with the same label merge into one node (label
   order is first-seen span id), and a merged node's kids are re-sorted
   by span id, so the tree depends only on execution structure, never
   on which domain finished first. *)
let children_of (spans : Probe.span list) : (int, Probe.span list) Hashtbl.t =
  let children = Hashtbl.create 256 in
  List.iter
    (fun (s : Probe.span) ->
      Hashtbl.replace children s.Probe.parent
        (s :: Option.value ~default:[] (Hashtbl.find_opt children s.Probe.parent)))
    (List.rev spans);
  children

let rec merge children (sibs : Probe.span list) : tree list =
  let groups : (string, Probe.span list) Hashtbl.t = Hashtbl.create 8 in
  let order =
    List.fold_left
      (fun order (s : Probe.span) ->
        let group = Hashtbl.find_opt groups s.Probe.label in
        Hashtbl.replace groups s.Probe.label
          (s :: Option.value ~default:[] group);
        if group = None then s.Probe.label :: order else order)
      [] sibs
  in
  List.rev_map
    (fun label ->
      let members = Hashtbl.find groups label in
      let kids =
        List.concat_map
          (fun (s : Probe.span) ->
            Option.value ~default:[] (Hashtbl.find_opt children s.Probe.id))
          members
      in
      { t_label = label;
        t_count = List.length members;
        t_ns =
          List.fold_left
            (fun acc (s : Probe.span) ->
              Int64.add acc (Int64.sub s.Probe.stop_ns s.Probe.start_ns))
            0L members;
        t_kids =
          merge children
            (List.sort (fun a b -> compare a.Probe.id b.Probe.id) kids) })
    order

(* One root for every span whose parent is not in the dump: a root span,
   or one whose parent never closed (or crossed a domain without
   [Probe.with_parent]). [spans] is id-sorted, as [Probe.spans] is. *)
let forest (spans : Probe.span list) : tree list =
  let ids = Hashtbl.create 256 in
  List.iter (fun (s : Probe.span) -> Hashtbl.replace ids s.Probe.id ()) spans;
  merge (children_of spans)
    (List.filter (fun (s : Probe.span) -> not (Hashtbl.mem ids s.Probe.parent))
       spans)

(* The subtree rooted at span [root] within a full span dump. O(spans)
   per call — callers extract after the batch, once per request root,
   sharing one [Probe.spans ()] dump. *)
let tree_of_root (root : int) (spans : Probe.span list) : tree option =
  List.find_opt (fun (s : Probe.span) -> s.Probe.id = root) spans
  |> Option.map (fun s -> List.hd (merge (children_of spans) [ s ]))

(* [with_root f] runs [f] under a fresh "request" span and returns the
   span's id alongside the result, so the caller can extract the
   subtree later (after the parallel region — [Probe.spans] snapshots
   are only safe between fan-outs). [-1] when probes are off. *)
let with_root (f : unit -> 'a) : 'a * int =
  if not (Probe.enabled ()) then (f (), -1)
  else begin
    let root = ref (-1) in
    let v =
      Probe.with_span "request" (fun () ->
          root := Probe.current_span ();
          f ())
    in
    (v, !root)
  end

let ms_of_ns (ns : int64) : float = Int64.to_float ns /. 1e6

(* Every node of a forest, depth first, each with its slash-joined
   label path. *)
let rec walk ?(prefix = "") (f : string -> tree -> unit) (ts : tree list) =
  List.iter
    (fun t ->
      let path = if prefix = "" then t.t_label else prefix ^ "/" ^ t.t_label in
      f path t;
      walk ~prefix:path f t.t_kids)
    ts

let rec tree_to_json (t : tree) : Json.t =
  Json.Obj
    [ ("label", Json.Str t.t_label);
      ("count", Json.Num (float_of_int t.t_count));
      ("ms", Json.Num (ms_of_ns t.t_ns));
      ("kids", Json.Arr (List.map tree_to_json t.t_kids)) ]

let rec tree_of_json (j : Json.t) : tree option =
  match
    ( Option.bind (Json.member "label" j) Json.to_str,
      Option.bind (Json.member "count" j) Json.to_num,
      Option.bind (Json.member "ms" j) Json.to_num,
      Json.member "kids" j )
  with
  | Some label, Some count, Some ms, Some (Json.Arr kids) ->
    let kids = List.filter_map tree_of_json kids in
    Some
      { t_label = label;
        t_count = int_of_float count;
        t_ns = Int64.of_float (ms *. 1e6);
        t_kids = kids }
  | _ -> None

(* Graft a worker's shipped tree under a parent-side node covering the
   round trip: the result shows the dispatch envelope ("request", timed
   by the parent) with the worker's own subtree labelled by its shard. *)
let graft ~(shard : int) ~(roundtrip_ns : int64) (worker : tree option) : tree
    =
  let kids =
    match worker with
    | None -> []
    | Some w -> [ { w with t_label = Printf.sprintf "worker:%d" shard } ]
  in
  { t_label = "request"; t_count = 1; t_ns = roundtrip_ns; t_kids = kids }

(* ------------------------------------------------------------------ *)
(* Slow-request log. *)

type slow_entry = {
  se_seq : int;            (* daemon-assigned request sequence number *)
  se_id : Json.t;          (* the client's request id, echoed *)
  se_op : string;
  se_name : string;        (* program name, or "" *)
  se_ms : float;
  se_tree : tree option;
}

let slow_capacity = 64

(* Threshold and sink are daemon-lifetime configuration; the ring and
   its cursor are the bounded in-memory log. One lock for all of it —
   slow requests are rare by definition. *)
let slow_lock = Mutex.create ()
let slow_ms_ref : float option ref = ref None
let slow_ring : slow_entry option array = Array.make slow_capacity None
let slow_seq = ref 0      (* total slow entries ever logged *)
let sink : out_channel option ref = ref None

let set_slow_ms (ms : float option) : unit =
  Mutex.lock slow_lock;
  slow_ms_ref := ms;
  Mutex.unlock slow_lock

let slow_ms () : float option =
  Mutex.lock slow_lock;
  let v = !slow_ms_ref in
  Mutex.unlock slow_lock;
  v

let set_slow_sink (path : string option) : unit =
  Mutex.lock slow_lock;
  (match !sink with Some oc -> close_out_noerr oc | None -> ());
  sink :=
    (match path with
    | None -> None
    | Some p -> Some (open_out_gen [ Open_append; Open_creat ] 0o644 p));
  Mutex.unlock slow_lock

let slow_entry_to_json (e : slow_entry) : Json.t =
  Json.Obj
    [ ("seq", Json.Num (float_of_int e.se_seq));
      ("id", e.se_id);
      ("op", Json.Str e.se_op);
      ("name", Json.Str e.se_name);
      ("ms", Json.Num e.se_ms);
      ("tree",
       match e.se_tree with None -> Json.Null | Some t -> tree_to_json t) ]

let note_slow ~(id : Json.t) ~(op : string) ~(name : string) ~(ms : float)
    (tree : tree option) : unit =
  Mutex.lock slow_lock;
  let e =
    { se_seq = !slow_seq; se_id = id; se_op = op; se_name = name;
      se_ms = ms; se_tree = tree }
  in
  slow_ring.(!slow_seq mod slow_capacity) <- Some e;
  incr slow_seq;
  (match !sink with
  | None -> ()
  | Some oc ->
    output_string oc (Json.to_compact_string (slow_entry_to_json e));
    output_char oc '\n';
    flush oc);
  Mutex.unlock slow_lock;
  Probe.count "serve.slow"

let slow_count () : int =
  Mutex.lock slow_lock;
  let n = !slow_seq in
  Mutex.unlock slow_lock;
  n

(* Logged entries, oldest first (at most [slow_capacity] retained). *)
let slow_entries () : slow_entry list =
  Mutex.lock slow_lock;
  let n = !slow_seq in
  let first = max 0 (n - slow_capacity) in
  let entries =
    List.filter_map
      (fun i -> slow_ring.(i mod slow_capacity))
      (List.init (n - first) (fun k -> first + k))
  in
  Mutex.unlock slow_lock;
  entries

(* Tests: forget everything, close the sink. *)
let reset_slow () : unit =
  Mutex.lock slow_lock;
  Array.fill slow_ring 0 slow_capacity None;
  slow_seq := 0;
  slow_ms_ref := None;
  (match !sink with Some oc -> close_out_noerr oc | None -> ());
  sink := None;
  Mutex.unlock slow_lock
