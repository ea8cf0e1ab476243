(* The persisted run record: everything one evaluation run produced, in
   one JSON document — environment metadata, every typed [Score] record,
   which programs degraded (and at which stage), the fault log, and a
   top-level timing summary. [bin record] writes one; [bin diff]
   compares one against the committed BASELINE.json.

   The schema (version 1):

   { "schema": 1, "kind": "run-record",
     "meta":     { "git_rev": "...", "ocaml_version": "...", ... },
     "scores":   [ { "experiment", "program", "estimator",
                     "metric", "param", "value" } ... ],
     "degraded": [ { "program", "stage" } ... ],
     "faults":   [ { "stage", "subject", "detail", "exn",
                     "recovery" } ... ],
     "timings":  [ { "label", "count", "total_ms" } ... ] }

   Scores are sorted by [Score.key]; degraded/faults/timings are in
   their deterministic source orders — the document is byte-stable for
   a given run (modulo meta and timings). Backtraces never go in the
   record: they are machine- and build-specific noise for a document
   meant to be diffed. *)

module Json = Obs.Json

type timing = { t_label : string; t_count : int; t_total_ms : float }

type t = {
  r_meta : (string * string) list;
  r_scores : Score.t list;           (* sorted by [Score.key] *)
  r_degraded : (string * string) list;  (* program, stage *)
  r_faults : Fault.t list;           (* backtraces cleared *)
  r_timings : timing list;
}

let schema_version = 1

(* ------------------------------------------------------------------ *)
(* Collection *)

(* Per-label totals over the span forest, keeping only the run-level
   labels (the root, context warming, one per experiment): the record
   wants a coarse timing summary, not the solver's micro-spans. *)
let timing_summary () : timing list =
  let keep label =
    label = "run" || label = "context.warm"
    || String.starts_with ~prefix:"experiment." label
  in
  let tbl : (string, int * int64) Hashtbl.t = Hashtbl.create 32 in
  Reqtrace.walk
    (fun _ (t : Reqtrace.tree) ->
      if keep t.t_label then begin
        let n, ns =
          Option.value ~default:(0, 0L) (Hashtbl.find_opt tbl t.t_label)
        in
        Hashtbl.replace tbl t.t_label (n + t.t_count, Int64.add ns t.t_ns)
      end)
    (Reqtrace.forest (Obs.Probe.spans ()));
  Hashtbl.fold
    (fun label (n, ns) acc ->
      { t_label = label; t_count = n; t_total_ms = Reqtrace.ms_of_ns ns }
      :: acc)
    tbl []
  |> List.sort (fun a b -> compare a.t_label b.t_label)

let strip_backtrace (f : Fault.t) : Fault.t = { f with Fault.f_backtrace = "" }

(* Snapshot the process-wide observability state into a record. Call
   after the run: the score store, the context fault cells and the
   probe buffers must already hold the run's results. [meta] fields are
   appended to the standard environment block.

   [degraded] overrides the degraded-program list for runs that do not
   go through [Context] (the corpus driver keeps its own); the default
   reads the suite context — note that touches [Context.degraded],
   which warms (compiles + profiles) the whole 16-program suite if the
   caller has not already. *)
let collect ?(degraded : (string * string) list option)
    ~(meta : (string * string) list) () : t =
  { r_meta = Obs.Envmeta.common () @ meta;
    r_scores = Score.all ();
    r_degraded =
      (match degraded with
      | Some d -> d
      | None ->
        List.map
          (fun (name, (f : Fault.t)) ->
            (name, Fault.stage_to_string f.Fault.f_stage))
          (Context.degraded ()));
    r_faults = List.map strip_backtrace (Fault.sorted ());
    r_timings = timing_summary () }

(* ------------------------------------------------------------------ *)
(* Encoding *)

let score_to_json (s : Score.t) : Json.t =
  Json.Obj
    [ ("experiment", Json.Str s.Score.s_experiment);
      ("program", Json.Str s.Score.s_program);
      ("estimator", Json.Str s.Score.s_estimator);
      ("metric", Json.Str (Score.metric_to_string s.Score.s_metric));
      ("param", Json.Num s.Score.s_param);
      ("value", Json.Num s.Score.s_value) ]

let fault_to_json (f : Fault.t) : Json.t =
  Json.Obj
    [ ("stage", Json.Str (Fault.stage_to_string f.Fault.f_stage));
      ("subject", Json.Str f.Fault.f_subject);
      ("detail", Json.Str f.Fault.f_detail);
      ("exn", Json.Str f.Fault.f_exn);
      ("recovery", Json.Str f.Fault.f_recovery) ]

let to_json (r : t) : Json.t =
  Json.Obj
    [ ("schema", Json.Num (float_of_int schema_version));
      ("kind", Json.Str "run-record");
      ("meta", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) r.r_meta));
      ("scores", Json.Arr (List.map score_to_json r.r_scores));
      ("degraded",
       Json.Arr
         (List.map
            (fun (program, stage) ->
              Json.Obj
                [ ("program", Json.Str program); ("stage", Json.Str stage) ])
            r.r_degraded));
      ("faults", Json.Arr (List.map fault_to_json r.r_faults));
      ("timings",
       Json.Arr
         (List.map
            (fun tm ->
              Json.Obj
                [ ("label", Json.Str tm.t_label);
                  ("count", Json.Num (float_of_int tm.t_count));
                  ("total_ms", Json.Num tm.t_total_ms) ])
            r.r_timings)) ]

let encode (r : t) : string = Json.to_string (to_json r)

(* ------------------------------------------------------------------ *)
(* Decoding *)

let ( let* ) = Result.bind

let field (name : string) (j : Json.t) : (Json.t, string) result =
  match Json.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let str_field (name : string) (j : Json.t) : (string, string) result =
  let* v = field name j in
  match Json.to_str v with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "field %S is not a string" name)

let num_field (name : string) (j : Json.t) : (float, string) result =
  let* v = field name j in
  match Json.to_num v with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "field %S is not a number" name)

let list_field (name : string) (j : Json.t) : (Json.t list, string) result =
  let* v = field name j in
  match Json.to_list v with
  | Some l -> Ok l
  | None -> Error (Printf.sprintf "field %S is not an array" name)

let rec map_result (f : 'a -> ('b, string) result) :
    'a list -> ('b list, string) result = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = map_result f rest in
    Ok (y :: ys)

let score_of_json (j : Json.t) : (Score.t, string) result =
  let* s_experiment = str_field "experiment" j in
  let* s_program = str_field "program" j in
  let* s_estimator = str_field "estimator" j in
  let* metric_s = str_field "metric" j in
  let* s_param = num_field "param" j in
  let* s_value = num_field "value" j in
  match Score.metric_of_string metric_s with
  | None -> Error (Printf.sprintf "unknown metric %S" metric_s)
  | Some s_metric ->
    Ok { Score.s_experiment; s_program; s_estimator; s_metric; s_param;
         s_value }

let fault_of_json (j : Json.t) : (Fault.t, string) result =
  let* stage_s = str_field "stage" j in
  let* f_subject = str_field "subject" j in
  let* f_detail = str_field "detail" j in
  let* f_exn = str_field "exn" j in
  let* f_recovery = str_field "recovery" j in
  match Fault.stage_of_string stage_s with
  | None -> Error (Printf.sprintf "unknown fault stage %S" stage_s)
  | Some f_stage ->
    Ok { Fault.f_stage; f_subject; f_detail; f_exn; f_backtrace = "";
         f_recovery }

let timing_of_json (j : Json.t) : (timing, string) result =
  let* t_label = str_field "label" j in
  let* count = num_field "count" j in
  let* t_total_ms = num_field "total_ms" j in
  Ok { t_label; t_count = int_of_float count; t_total_ms }

let of_json (j : Json.t) : (t, string) result =
  let* schema = num_field "schema" j in
  let* kind = str_field "kind" j in
  if kind <> "run-record" then
    Error (Printf.sprintf "not a run record (kind %S)" kind)
  else if int_of_float schema <> schema_version then
    Error (Printf.sprintf "unsupported schema version %g" schema)
  else
    let* meta_j = field "meta" j in
    let* r_meta =
      match meta_j with
      | Json.Obj fields ->
        map_result
          (fun (k, v) ->
            match Json.to_str v with
            | Some s -> Ok (k, s)
            | None -> Error (Printf.sprintf "meta field %S is not a string" k))
          fields
      | _ -> Error "field \"meta\" is not an object"
    in
    let* scores_j = list_field "scores" j in
    let* r_scores = map_result score_of_json scores_j in
    let* degraded_j = list_field "degraded" j in
    let* r_degraded =
      map_result
        (fun d ->
          let* program = str_field "program" d in
          let* stage = str_field "stage" d in
          Ok (program, stage))
        degraded_j
    in
    let* faults_j = list_field "faults" j in
    let* r_faults = map_result fault_of_json faults_j in
    let* timings_j = list_field "timings" j in
    let* r_timings = map_result timing_of_json timings_j in
    Ok { r_meta; r_scores; r_degraded; r_faults; r_timings }

let decode (s : string) : (t, string) result =
  let* j = Json.parse s in
  of_json j

let read_file (path : string) : (t, string) result =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
    let contents = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Result.map_error
      (fun e -> Printf.sprintf "%s: %s" path e)
      (decode contents)
