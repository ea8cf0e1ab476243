(* Typed score records — the result-level observability layer.

   Every number the experiment suite prints (weight-matching scores,
   miss rates, modelled speedups, worked-example frequencies) is first
   computed into one of these records; the text tables are rendered
   *from* the records and the [record]/[diff] subcommands persist them
   as a run record and compare them against the committed baseline.

   A record is keyed by
     experiment × program × estimator × metric × parameter
   where [parameter] is the metric's numeric knob — the weight-matching
   q-cutoff for the matching metrics, the optimized-function count for
   fig10's speedups, 0 where not applicable. Keys are unique within one
   evaluation run; [all] returns records sorted by key so consumers see
   a deterministic stream whatever domain emitted them.

   Thread model: one mutex-protected list. Emission happens both from
   the sequential merge phase of the experiments and from inside
   [Parallel] tasks (per-program rows); record *order* is therefore
   scheduling-dependent and only the sorted view is exposed. *)

type metric =
  | Wm_intra      (* intra-procedural block weight matching *)
  | Wm_inter      (* function-invocation weight matching *)
  | Wm_callsite   (* call-site ranking weight matching *)
  | Miss_rate     (* branch misprediction rate *)
  | Speedup       (* fig10 modelled speedup *)
  | Freq          (* an estimated or measured frequency *)
  | Count         (* a static inventory count (table1) *)

let metric_to_string = function
  | Wm_intra -> "wm_intra"
  | Wm_inter -> "wm_inter"
  | Wm_callsite -> "wm_callsite"
  | Miss_rate -> "miss_rate"
  | Speedup -> "speedup"
  | Freq -> "freq"
  | Count -> "count"

let metric_of_string = function
  | "wm_intra" -> Some Wm_intra
  | "wm_inter" -> Some Wm_inter
  | "wm_callsite" -> Some Wm_callsite
  | "miss_rate" -> Some Miss_rate
  | "speedup" -> Some Speedup
  | "freq" -> Some Freq
  | "count" -> Some Count
  | _ -> None

let all_metrics =
  [ Wm_intra; Wm_inter; Wm_callsite; Miss_rate; Speedup; Freq; Count ]

type t = {
  s_experiment : string;  (* "fig4", "ablation_loop_count", ... *)
  s_program : string;     (* suite program, or "AVERAGE" for suite means *)
  s_estimator : string;   (* column label; "row/col" for ablation cells *)
  s_metric : metric;
  s_param : float;        (* q-cutoff / #optimized / 0 when n/a *)
  s_value : float;
}

(* The average pseudo-program of per-program tables. *)
let average_program = "AVERAGE"

type key = string * string * string * string * float

let key (s : t) : key =
  (s.s_experiment, s.s_program, s.s_estimator, metric_to_string s.s_metric,
   s.s_param)

let key_to_string ((e, p, est, m, c) : key) : string =
  Printf.sprintf "%s/%s/%s/%s@%g" e p est m c

(* ------------------------------------------------------------------ *)

let m = Mutex.create ()
let store : t list ref = ref []

let emit (s : t) : unit =
  Mutex.lock m;
  store := s :: !store;
  Mutex.unlock m

let reset () : unit =
  Mutex.lock m;
  store := [];
  Mutex.unlock m

(* Sorted, deduplicated view: re-running an experiment in the same
   process (tests, [run_all] after a single experiment) re-emits
   identical records; keep one per key. *)
let all () : t list =
  Mutex.lock m;
  let records = !store in
  Mutex.unlock m;
  let sorted = List.sort (fun a b -> compare (key a) (key b)) records in
  let rec dedupe = function
    | a :: (b :: _ as rest) when key a = key b -> dedupe rest
    | a :: rest -> a :: dedupe rest
    | [] -> []
  in
  dedupe sorted

let count () : int = List.length (all ())
