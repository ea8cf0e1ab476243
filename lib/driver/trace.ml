(* Aggregation and reporting over the Obs.Probe recording layer. *)

module Probe = Obs.Probe
module Json = Obs.Json

let enable () = Probe.set_enabled true
let enabled = Probe.enabled
let with_span = Probe.with_span

(* ------------------------------------------------------------------ *)
(* Deterministic aggregation: the flat id-sorted span stream becomes a
   tree of (label, count, total) nodes. Children are attached to their
   recorded parent; spans whose parent never closed (or crossed a domain
   without [with_parent]) surface as roots. Sibling spans with the same
   label merge; label order within a level is first-seen id order, which
   depends only on execution structure. *)

type node = {
  label : string;
  mutable n_count : int;
  mutable n_total_ns : int64;
  mutable kids : Probe.span list; (* reversed; re-sorted on aggregation *)
}

let duration (s : Probe.span) = Int64.sub s.Probe.stop_ns s.Probe.start_ns

let rec aggregate (spans : Probe.span list)
    (children : (int, Probe.span list) Hashtbl.t) : node list =
  (* [spans] arrives id-sorted; keep first-seen label order. *)
  let order : string list ref = ref [] in
  let by_label : (string, node) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (s : Probe.span) ->
      let node =
        match Hashtbl.find_opt by_label s.Probe.label with
        | Some n -> n
        | None ->
          let n =
            { label = s.Probe.label; n_count = 0; n_total_ns = 0L; kids = [] }
          in
          Hashtbl.replace by_label s.Probe.label n;
          order := s.Probe.label :: !order;
          n
      in
      node.n_count <- node.n_count + 1;
      node.n_total_ns <- Int64.add node.n_total_ns (duration s);
      node.kids <-
        Option.value ~default:[] (Hashtbl.find_opt children s.Probe.id)
        @ node.kids)
    spans;
  List.rev_map (fun label -> Hashtbl.find by_label label) !order

and resolve_kids children (n : node) : node list =
  aggregate
    (List.sort (fun a b -> compare a.Probe.id b.Probe.id) n.kids)
    children

(* The spans/children tables shared by both renderers. *)
let span_tables () =
  let spans = Probe.spans () in
  let ids = Hashtbl.create 256 in
  List.iter (fun (s : Probe.span) -> Hashtbl.replace ids s.Probe.id ()) spans;
  let children : (int, Probe.span list) Hashtbl.t = Hashtbl.create 256 in
  let roots =
    List.filter
      (fun (s : Probe.span) ->
        if s.Probe.parent >= 0 && Hashtbl.mem ids s.Probe.parent then begin
          Hashtbl.replace children s.Probe.parent
            (s
            :: Option.value ~default:[]
                 (Hashtbl.find_opt children s.Probe.parent));
          false
        end
        else true)
      spans
  in
  (roots, children)

let ms_of_ns ns = Int64.to_float ns /. 1e6

let render_tree () : string =
  let roots, children = span_tables () in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "trace: pipeline spans (count × total wall time)\n";
  let rec render indent nodes =
    List.iter
      (fun n ->
        Buffer.add_string buf
          (Printf.sprintf "%s%-*s %6d× %10.3f ms\n" indent
             (max 1 (40 - String.length indent))
             n.label n.n_count
             (ms_of_ns n.n_total_ns));
        render (indent ^ "  ") (resolve_kids children n))
      nodes
  in
  render "  " (aggregate roots children);
  let counters = Probe.counters () in
  if counters <> [] then begin
    Buffer.add_string buf "trace: counters\n";
    List.iter
      (fun (name, n) ->
        Buffer.add_string buf (Printf.sprintf "  %-40s %10d\n" name n))
      counters
  end;
  let gauges = Probe.gauges () in
  if gauges <> [] then begin
    Buffer.add_string buf "trace: gauges (last value)\n";
    List.iter
      (fun (name, v) ->
        Buffer.add_string buf (Printf.sprintf "  %-40s %10.6g\n" name v))
      gauges
  end;
  (* Degradations taken during the run; absent entirely when healthy,
     so healthy trace output is unchanged. *)
  let faults = Fault.summary () in
  if faults <> "" then begin
    Buffer.add_string buf "trace: faults\n";
    Buffer.add_string buf faults
  end;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON export. *)

let snapshot () : (string * Json.t) list =
  let obj f l = Json.Obj (List.map (fun (name, v) -> (name, f v)) l) in
  [ ("counters", obj (fun n -> Json.Num (float_of_int n)) (Probe.counters ()));
    ("gauges", obj (fun v -> Json.Num v) (Probe.gauges ()));
    ("hists", obj Obs.Hist.summary_json (Obs.Hist.all ())) ]

let metrics_json () : string =
  let roots, children = span_tables () in
  (* flatten the aggregate tree into slash-joined paths *)
  let rows : (string * int * float) list ref = ref [] in
  let rec walk prefix nodes =
    List.iter
      (fun n ->
        let path = if prefix = "" then n.label else prefix ^ "/" ^ n.label in
        rows := (path, n.n_count, ms_of_ns n.n_total_ns) :: !rows;
        walk path (resolve_kids children n))
      nodes
  in
  walk "" (aggregate roots children);
  let span_json (path, count, total_ms) =
    Json.Obj
      [ ("path", Json.Str path); ("count", Json.Num (float_of_int count));
        ("total_ms", Json.Num total_ms) ]
  in
  Json.to_string
    (Json.Obj
       ([ ("jobs", Json.Num (float_of_int (Parallel.jobs ())));
          ("spans", Json.Arr (List.map span_json (List.sort compare !rows))) ]
       @ snapshot ()
       (* Every degradation the run recorded, in the deterministic
          [Fault.sorted] order — the chaos CI job archives this document
          as its fault-summary artifact. *)
       @ [ ("faults",
            Json.Arr (List.map Run_record.fault_to_json (Fault.sorted ()))) ]))

(* ------------------------------------------------------------------ *)

let with_reporting ~(trace : bool) ~(metrics_out : string option) f =
  let wanted = trace || metrics_out <> None in
  if wanted then enable ();
  let report () =
    if wanted then begin
      if trace then prerr_string (render_tree ());
      match metrics_out with
      | Some path ->
        let oc = open_out path in
        output_string oc (metrics_json ());
        close_out oc;
        Printf.eprintf "[metrics written to %s]\n%!" path
      | None -> ()
    end
  in
  Fun.protect ~finally:report (fun () -> with_span "run" f)
