(* The end-to-end benchmark.

     main.exe --workload W --seed S [--seconds T] [--trace 0|1]
       Run one workload. The last line of standard output is one JSON
       object: {"correct", "attempted", "failed", "metrics"}, where the
       metrics are BENCHMARK.json's end-to-end metrics, or its per-layer
       metrics with --trace 1 (which also writes
       bench/e2e/results/trace_W.json). Exit 1 on any failed check.

     main.exe [--seed S] [--seconds T] [--repeat N]
       Run every workload, each in its own process, timed and traced;
       print every end-to-end metric by name and unit. With --repeat N,
       N rounds in alternating workload order, seed S + round - 1; per
       metric the median and quartiles, and a flag where the spread
       exceeds the metric's bound.

   Run from the repository root: BENCHMARK.json and BASELINE.json are
   read from the working directory, and all output goes under
   bench/e2e/results. The estimator processes the workloads start are
   bin/main.exe of the same build tree, which must be built too.
   [--scale F] shrinks every workload (the smoke test uses 0.02). *)

open Bench_e2e
module Json = Obs.Json

let workloads : (string * (Workload.config -> Workload.result)) list =
  [ ("cold_corpus", Cold.run); ("edit_stream", Edit.run); ("suite_record", Suite_rec.run);
    ("served_open_loop", Served.run) ]

let results_dir = "bench/e2e/results"

type args = {
  workload : string option;
  seed : int;
  seconds : float option;
  trace : bool;
  scale : float;
  repeat : int;
}

let usage () =
  prerr_endline
    "usage: main.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
     [--repeat N] [--scale F]";
  exit 2

let parse (argv : string list) : args =
  let rec go a = function
    | [] -> a
    | "--workload" :: w :: rest -> go { a with workload = Some w } rest
    | "--seed" :: n :: rest -> go { a with seed = int_of_string n } rest
    | "--seconds" :: s :: rest -> go { a with seconds = Some (float_of_string s) } rest
    | "--trace" :: ("0" | "1" as v) :: rest -> go { a with trace = v = "1" } rest
    | "--scale" :: f :: rest -> go { a with scale = float_of_string f } rest
    | "--repeat" :: n :: rest -> go { a with repeat = int_of_string n } rest
    | _ -> usage ()
  in
  let defaults =
    { workload = None; seed = 1; seconds = None; trace = false; scale = 1.0; repeat = 1 }
  in
  match go defaults argv with
  | a when a.repeat < 1 || a.scale <= 0.0 -> usage ()
  | a -> a
  | exception Failure _ -> usage ()

let rec mkdir_p (dir : string) : unit =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let rec remove (path : string) : unit =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> remove (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let num (v : float) : Json.t = Json.Num (if Float.is_finite v then v else 1e300)

(* ------------------------------------------------------------------ *)
(* One workload. *)

let run_workload (spec : Spec.t) (a : args) (name : string) : unit =
  let f =
    match List.assoc_opt name workloads with
    | Some f when List.mem name spec.Spec.workloads -> f
    | _ -> failwith ("unknown workload " ^ name)
  in
  let workdir = Filename.concat results_dir (Printf.sprintf "work-%d" (Unix.getpid ())) in
  mkdir_p workdir;
  Tracer.enabled := a.trace;
  let cfg =
    { Workload.seed = a.seed;
      seconds = Option.value ~default:(float_of_int spec.Spec.run_seconds) a.seconds;
      trace = a.trace; scale = a.scale; workdir }
  in
  let r = Fun.protect ~finally:(fun () -> remove workdir) (fun () -> f cfg) in
  let listed = if a.trace then spec.Spec.per_layer else spec.Spec.end_to_end in
  let value (m : Spec.metric) =
    match List.assoc_opt m.Spec.name r.Workload.metrics with
    | Some v -> v
    | None -> failwith (Printf.sprintf "%s does not report %s" name m.Spec.name)
  in
  List.iter
    (fun (m : Spec.metric) -> Printf.printf "%-32s %14.6g %s\n" m.Spec.name (value m) m.Spec.unit_)
    listed;
  List.iter (fun (k, v) -> Printf.printf "  %-30s %14.6g\n" k v) r.Workload.diag;
  List.iter (fun n -> Printf.printf "FAILED: %s\n" n) r.Workload.notes;
  if a.trace then begin
    let path = Filename.concat results_dir ("trace_" ^ name ^ ".json") in
    let obj kvs = Json.Obj (List.map (fun (k, v) -> (k, num v)) kvs) in
    let spans = Tracer.spans () in
    let doc =
      Json.Obj
        [ ("workload", Json.Str name); ("seed", num (float_of_int a.seed));
          ("seconds", num cfg.Workload.seconds);
          ("metrics", obj r.Workload.metrics); ("diagnostics", obj r.Workload.diag);
          ( "summary",
            Json.Arr
              (List.map
                 (fun (n, c, total, self) ->
                   Json.Obj
                     [ ("name", Json.Str n); ("count", num (float_of_int c));
                       ("total_ms", num total); ("self_ms", num self) ])
                 (Tracer.summary spans)) );
          ("spans", Json.Arr (List.map Tracer.span_to_json spans)) ]
    in
    Out_channel.with_open_bin path (fun oc -> output_string oc (Json.to_compact_string doc));
    Printf.printf "trace written to %s\n" path
  end;
  let line =
    Json.Obj
      [ ("correct", Json.Bool (r.Workload.failed = 0));
        ("attempted", num (float_of_int r.Workload.attempted));
        ("failed", num (float_of_int r.Workload.failed));
        ( "metrics",
          Json.Obj
            (List.map
               (fun (m : Spec.metric) ->
                 ( m.Spec.name,
                   Json.Obj [ ("value", num (value m)); ("unit", Json.Str m.Spec.unit_) ] ))
               listed) ) ]
  in
  print_endline (Json.to_compact_string line);
  exit (if r.Workload.failed = 0 then 0 else 1)

(* ------------------------------------------------------------------ *)
(* Every workload, each in its own process. *)

(* Run this executable with [args]; its exit code and standard output.
   Standard error passes through. *)
let capture (args : string list) : int * string =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let out = In_channel.input_all (Unix.in_channel_of_descr r) in
  Unix.close r;
  let code =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> 128 + abs s
  in
  (code, out)

let last_line (s : string) : string =
  match List.rev (List.filter (( <> ) "") (String.split_on_char '\n' s)) with
  | l :: _ -> l
  | [] -> ""

(* The value of metric [name] in a result line. *)
let metric_value (result : Json.t) (name : string) : float option =
  Option.bind (Json.member "metrics" result) (fun ms ->
      Option.bind (Json.member name ms) (fun m -> Option.bind (Json.member "value" m) Json.to_num))

let run_all (spec : Spec.t) (a : args) : unit =
  let seconds = Option.value ~default:(float_of_int spec.Spec.run_seconds) a.seconds in
  let ok = ref true in
  let values : (string * string, float list) Hashtbl.t = Hashtbl.create 64 in
  let run_one ~seed w trace =
    let code, out =
      capture
        [ "--workload"; w; "--seed"; string_of_int seed;
          "--seconds"; Printf.sprintf "%g" seconds;
          "--trace"; (if trace then "1" else "0");
          "--scale"; Printf.sprintf "%g" a.scale ]
    in
    Printf.printf "== %s, seed %d, %s: exit %d\n%s%!" w seed
      (if trace then "traced" else "timed")
      code out;
    match Json.parse (last_line out) with
    | Ok j when code = 0 && Json.member "correct" j = Some (Json.Bool true) ->
      if not trace then
        List.iter
          (fun (m : Spec.metric) ->
            Option.iter
              (fun v ->
                let key = (w, m.Spec.name) in
                Hashtbl.replace values key
                  (v :: Option.value ~default:[] (Hashtbl.find_opt values key)))
              (metric_value j m.Spec.name))
          spec.Spec.end_to_end
    | _ -> ok := false
  in
  for round = 1 to a.repeat do
    let order = if round mod 2 = 1 then spec.Spec.workloads else List.rev spec.Spec.workloads in
    List.iter
      (fun w -> List.iter (run_one ~seed:(a.seed + round - 1) w) [ false; true ])
      order
  done;
  Printf.printf "\n%-18s %-18s %12s %12s %12s %8s %6s\n" "workload" "metric" "median" "q1" "q3"
    "spread" "bound";
  List.iter
    (fun w ->
      List.iter
        (fun (m : Spec.metric) ->
          match Hashtbl.find_opt values (w, m.Spec.name) with
          | None -> Printf.printf "%-18s %-18s %12s\n" w m.Spec.name "missing"
          | Some [ v ] -> Printf.printf "%-18s %-18s %12.6g %s\n" w m.Spec.name v m.Spec.unit_
          | Some vs ->
            let q1, _, q3 = Stats.quartiles vs in
            let spread = Stats.spread vs in
            let bound = Option.value ~default:0.0 m.Spec.bound in
            let flag = if spread > bound then "  SPREAD>BOUND" else "" in
            Printf.printf "%-18s %-18s %12.6g %12.6g %12.6g %8.4f %6.2f %s%s\n" w m.Spec.name
              (Stats.median vs) q1 q3 spread bound m.Spec.unit_ flag)
        spec.Spec.end_to_end)
    spec.Spec.workloads;
  exit (if !ok then 0 else 1)

let () =
  match Array.to_list Sys.argv with
  | _ :: rest -> (
    (* Interrupted, still stop the daemons: [exit] runs [Proc]'s
       clean-up, a fatal signal would not. *)
    List.iter
      (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
      [ Sys.sigint; Sys.sigterm ];
    let a = parse rest in
    match Spec.load () with
    | exception (Sys_error e | Failure e) ->
      prerr_endline ("e2e: " ^ e);
      exit 2
    | spec -> (
      try
        match a.workload with
        | Some w -> run_workload spec a w
        | None -> run_all spec a
      with Failure e | Proc.Daemon_failed e ->
        prerr_endline ("e2e: " ^ e);
        exit 2))
  | [] -> usage ()
