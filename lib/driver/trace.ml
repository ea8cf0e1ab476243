(* Reporting over the Obs.Probe recording layer; the span tree is
   [Reqtrace.forest]. *)

module Probe = Obs.Probe
module Json = Obs.Json

let render_tree () : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "trace: pipeline spans (count × total wall time)\n";
  let rec render indent trees =
    List.iter
      (fun (t : Reqtrace.tree) ->
        Buffer.add_string buf
          (Printf.sprintf "%s%-*s %6d× %10.3f ms\n" indent
             (max 1 (40 - String.length indent))
             t.t_label t.t_count (Reqtrace.ms_of_ns t.t_ns));
        render (indent ^ "  ") t.t_kids)
      trees
  in
  render "  " (Reqtrace.forest (Probe.spans ()));
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
  let rows = ref [] in
  Reqtrace.walk
    (fun path (t : Reqtrace.tree) ->
      rows := (path, t.t_count, Reqtrace.ms_of_ns t.t_ns) :: !rows)
    (Reqtrace.forest (Probe.spans ()));
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
  if wanted then Probe.set_enabled true;
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
  Fun.protect ~finally:report (fun () -> Probe.with_span "run" f)
