(* The driver's fault-tolerance layer: a typed taxonomy over the raw
   [Obs.Faultlog] record store, the capture combinator every degradable
   stage runs under, the process-wide strict/degrade policy, and the
   deterministic summary renderings the CLI and the metrics document
   emit.

   Layering: the *recording* half ([Obs.Faultlog]) and the *injection*
   half ([Obs.Inject]) live at the dependency-free bottom of the tree so
   the Markov solvers and the interpreters can use them; this module is
   the driver-facing policy on top. *)

(* ------------------------------------------------------------------ *)
(* Taxonomy. *)

type stage =
  | Compile      (* front end: preprocess/parse/typecheck/CFG *)
  | Profile      (* interpreting one (program, input) pair *)
  | Solve        (* a Markov linear-system solve *)
  | Estimate     (* building an estimator table *)
  | Experiment   (* rendering one table/figure *)
  | Worker       (* a Parallel pool task died outside any inner capture *)
  | Persist      (* the durable store: journal append, snapshot, restore *)

let stage_to_string = function
  | Compile -> "compile"
  | Profile -> "profile"
  | Solve -> "solve"
  | Estimate -> "estimate"
  | Experiment -> "experiment"
  | Worker -> "worker"
  | Persist -> "persist"

let stage_of_string = function
  | "compile" -> Some Compile
  | "profile" -> Some Profile
  | "solve" -> Some Solve
  | "estimate" -> Some Estimate
  | "experiment" -> Some Experiment
  | "worker" -> Some Worker
  | "persist" -> Some Persist
  | _ -> None

type t = {
  f_stage : stage;
  f_subject : string;   (* program / function / experiment id *)
  f_detail : string;    (* free-form context, e.g. "run 2" *)
  f_exn : string;       (* printed exception; "" for non-exception faults *)
  f_backtrace : string; (* backtrace text; "" when not captured *)
  f_recovery : string;  (* what the system did instead of crashing *)
}

exception Degraded of t

let () =
  Printexc.register_printer (function
    | Degraded f ->
      Some
        (Printf.sprintf "Driver.Fault.Degraded(%s, %s: %s)"
           (stage_to_string f.f_stage) f.f_subject f.f_exn)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Policy: degrade (default) or fail fast ([--strict]). *)

let strict_flag = Atomic.make false
let set_strict b = Atomic.set strict_flag b
let strict () = Atomic.get strict_flag

(* ------------------------------------------------------------------ *)
(* The injection registry: every named point the pipeline exposes, in
   pipeline order. [--chaos SEED] arms them all at once; tests arm one
   at a time. *)

let injection_points =
  [ "compile";       (* Context: the per-program compile stage *)
    "profile";       (* Context: one (program, run) interpretation *)
    "profile.fuel";  (* Context: shrink the run's fuel budget *)
    "solve.intra";   (* Markov_intra: every linear solve reports singular *)
    "solve.inter";   (* Markov_inter: every global/damped solve fails *)
    "estimate";      (* Pipeline: building an estimator table *)
    "worker";        (* Parallel: a pool task dies at its boundary *)
    "persist.append";   (* Persist: one journal append fails *)
    "persist.snapshot"; (* Persist: a snapshot write fails mid-flight *)
    "serve.worker-kill" (* Supervise: a serve worker process dies (SIGKILL) *)
  ]

let register_points () = List.iter Obs.Inject.register injection_points
let () = register_points ()

let arm_chaos ~seed ?rate () =
  register_points ();
  Obs.Inject.arm_chaos ~seed ?rate ()

(* ------------------------------------------------------------------ *)
(* Recording: typed records pass through the [Obs.Faultlog] store, so
   faults recorded below the driver (solver fallbacks, budget
   exhaustion) and faults captured here share one counter. *)

let record (f : t) : unit =
  Obs.Faultlog.record ~subject:f.f_subject ~detail:f.f_detail
    ~exn_text:f.f_exn ~backtrace:f.f_backtrace
    ~stage:(stage_to_string f.f_stage) f.f_recovery

let of_log (l : Obs.Faultlog.t) : t =
  { f_stage =
      Option.value ~default:Worker (stage_of_string l.Obs.Faultlog.stage);
    f_subject = l.Obs.Faultlog.subject;
    f_detail = l.Obs.Faultlog.detail;
    f_exn = l.Obs.Faultlog.exn_text;
    f_backtrace = l.Obs.Faultlog.backtrace;
    f_recovery = l.Obs.Faultlog.recovery }

let count () = Obs.Faultlog.count ()
let reset () = Obs.Faultlog.reset ()

(* Cross-domain record order depends on scheduling; every consumer
   (summary, JSON, tests) reads this sorted view instead. *)
let sorted () : t list =
  List.map of_log (Obs.Faultlog.all ())
  |> List.sort (fun a b ->
       compare
         (stage_to_string a.f_stage, a.f_subject, a.f_detail, a.f_exn)
         (stage_to_string b.f_stage, b.f_subject, b.f_detail, b.f_exn))

(* ------------------------------------------------------------------ *)
(* Capture. *)

(* Turn a caught exception into a recorded fault — or re-raise it with
   its original backtrace when the process is strict. *)
let absorb ~(stage : stage) ~(subject : string) ?(detail = "")
    ~(recovery : string) (e : exn) (bt : Printexc.raw_backtrace) : t =
  if strict () then Printexc.raise_with_backtrace e bt;
  let f =
    { f_stage = stage; f_subject = subject; f_detail = detail;
      f_exn = Printexc.to_string e;
      f_backtrace = Printexc.raw_backtrace_to_string bt;
      f_recovery = recovery }
  in
  record f;
  Obs.Probe.count ("fault." ^ stage_to_string stage);
  f

let capture ~(stage : stage) ~(subject : string) ?detail
    ~(recovery : string) (f : unit -> 'a) : ('a, t) result =
  match f () with
  | v -> Ok v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    Error (absorb ~stage ~subject ?detail ~recovery e bt)

(* ------------------------------------------------------------------ *)
(* Reporting. *)

(* 0 = healthy; 3 = the run completed but at least one stage degraded.
   (1/2 stay free for usage errors and crashes, 124/125 for cmdliner.) *)
let degraded_exit_code = 3
let exit_code () = if count () > 0 then degraded_exit_code else 0

let at_path (path : string) (f : unit -> 'a) : 'a =
  try f () with
  | Unix.Unix_error (e, _, _) ->
    Printf.eprintf "%s: %s\n%!" path (Unix.error_message e);
    exit 2
  | Sys_error msg ->
    prerr_endline msg;
    exit 2

let summary () : string =
  match sorted () with
  | [] -> ""
  | faults ->
    let buf = Buffer.create 256 in
    Printf.bprintf buf "fault summary: %d fault(s), run degraded\n"
      (List.length faults);
    List.iter
      (fun f ->
        Printf.bprintf buf "  [%-10s] %-16s %s-> %s%s\n"
          (stage_to_string f.f_stage)
          f.f_subject
          (if f.f_detail = "" then "" else f.f_detail ^ " ")
          f.f_recovery
          (if f.f_exn = "" then "" else " (" ^ f.f_exn ^ ")"))
      faults;
    Buffer.contents buf
