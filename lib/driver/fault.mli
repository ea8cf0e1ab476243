(** The driver's fault-tolerance policy layer.

    Every degradable stage of the suite driver runs under {!capture}: in
    the default mode an exception becomes a typed, recorded fault and
    the caller substitutes a documented degradation (a degraded suite
    row, a fallback estimate, a partial profile); under [--strict]
    ({!set_strict}) the original exception is re-raised with its
    original backtrace and the run fails fast.

    Fault records pass through {!Obs.Faultlog} — the same store the
    Markov solvers and the interpreter budget machinery write to from
    below the driver — so {!count}, {!summary} and {!exit_code} see
    every recovery taken anywhere in the pipeline.

    Deterministic fault injection ({!Obs.Inject}) is armed here:
    {!injection_points} is the static registry of named points and
    {!arm_chaos} is the [--chaos SEED] entry point. *)

(** Where in the pipeline a fault was absorbed. *)
type stage =
  | Compile      (** front end: preprocess/parse/typecheck/CFG *)
  | Profile      (** interpreting one (program, input) pair *)
  | Solve        (** a Markov linear-system solve *)
  | Estimate     (** building an estimator table *)
  | Experiment   (** rendering one table/figure *)
  | Worker       (** a Parallel pool task died outside any inner capture *)
  | Persist      (** the durable store: journal append, snapshot, restore *)

val stage_to_string : stage -> string
val stage_of_string : string -> stage option

type t = {
  f_stage : stage;
  f_subject : string;   (** program / function / experiment id *)
  f_detail : string;    (** free-form context, e.g. ["run 2"] *)
  f_exn : string;       (** printed exception; [""] for non-exception faults *)
  f_backtrace : string; (** backtrace text; [""] when not captured *)
  f_recovery : string;  (** what the system did instead of crashing *)
}

(** Raised by consumers that are handed a degraded entry where a healthy
    one is required (e.g. {!Context.by_name} on a faulted program). *)
exception Degraded of t

(** {1 Policy} *)

val set_strict : bool -> unit
(** [--strict]: re-raise instead of degrading. Process-wide. *)

val strict : unit -> bool

(** {1 Injection registry} *)

val injection_points : string list
(** Every named injection point, in pipeline order: ["compile"],
    ["profile"], ["profile.fuel"], ["solve.intra"], ["solve.inter"],
    ["estimate"], ["worker"], ["persist.append"], ["persist.snapshot"],
    ["serve.worker-kill"]. *)

val register_points : unit -> unit
(** Idempotently register {!injection_points} with {!Obs.Inject}. *)

val arm_chaos : seed:int -> ?rate:float -> unit -> unit
(** Arm every point with the deterministic seeded hash — the [--chaos
    SEED] mode. A (point, key) pair fires iff [hash(seed, point, key)]
    lands under [rate] (default 0.3); the decision never depends on
    call order or scheduling, so a chaos run is reproducible at any
    [--jobs] setting. *)

(** {1 Recording and capture} *)

val record : t -> unit
(** Append to the process-wide fault log. *)

val absorb :
  stage:stage ->
  subject:string ->
  ?detail:string ->
  recovery:string ->
  exn ->
  Printexc.raw_backtrace ->
  t
(** Turn a caught exception into a recorded fault — or, in strict mode,
    re-raise it with the given (original) backtrace. *)

val capture :
  stage:stage ->
  subject:string ->
  ?detail:string ->
  recovery:string ->
  (unit -> 'a) ->
  ('a, t) result
(** Run a stage under the degrade-or-fail-fast policy. [recovery] names
    what the caller will do with the [Error] — it is recorded, not
    executed here. *)

(** {1 Reporting} *)

val count : unit -> int
(** Faults recorded so far, including those written below the driver. *)

val reset : unit -> unit
(** Clear the log (tests). *)

val sorted : unit -> t list
(** All recorded faults in a deterministic order (stage, subject,
    detail, exception) — cross-domain record order is
    scheduling-dependent, so consumers must read this view. *)

val degraded_exit_code : int
(** 3 — the exit code of a run that completed with recorded faults. *)

val exit_code : unit -> int
(** [0] when no fault was recorded, {!degraded_exit_code} otherwise. *)

val at_path : string -> (unit -> 'a) -> 'a
(** [at_path path f] runs [f], the startup I/O on a path the user gave
    (an output file, a store directory, a socket). A [Unix.Unix_error]
    or [Sys_error] there is a usage error, not a fault: it prints
    ["PATH: message"] on stderr ([Sys_error]'s own text, which names its
    file) and exits 2. *)

val summary : unit -> string
(** Human-readable fault listing; [""] when the run was healthy (so
    healthy output stays byte-identical). *)
