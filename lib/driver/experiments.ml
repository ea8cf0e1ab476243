(* One reproduction per table/figure of the paper's evaluation. Each
   experiment renders the same rows/series the paper reports, from the
   shared compiled-and-profiled suite in [Context].

   Result-level observability: every number an experiment prints is
   first computed into a typed [Score] record
   (experiment × program × estimator × metric × parameter → value) and
   the text tables are rendered *from* those records — the rendering is
   a pure function of the record stream, so the [record]/[diff]
   subcommands can persist a run and gate refactors on score drift
   without touching the tables. The full-suite text output is
   byte-identical to the pre-record rendering. *)

module Ast = Cfront.Ast
module Pretty = Cfront.Pretty
module Cfg = Cfg_ir.Cfg
module Callgraph = Cfg_ir.Callgraph
module Profile = Cinterp.Profile
module Pipeline = Core.Pipeline
module Ast_estimator = Core.Ast_estimator
module Markov_intra = Core.Markov_intra
module Markov_inter = Core.Markov_inter
module Inter_simple = Core.Inter_simple
module Missrate = Core.Missrate
module Weight_matching = Core.Weight_matching

let bprintf = Printf.bprintf

(* Fan a per-program computation across the [Parallel] pool. Results
   come back in registry order whatever the jobs setting, so every
   table below renders byte-identically to its sequential form; tasks
   only read shared state (see the contract in [Parallel]). Only the
   healthy subset of the suite flows through here, so averages and
   series skip degraded programs. *)
let suite_map (f : Context.prog_data -> 'a) : 'a list =
  Parallel.map f (Context.all ())

(* Per-program table rows over the *whole* registry: [f] renders a row
   for each healthy program (in parallel; [None] drops the program, as
   fig9 does for programs without call sites) and every degraded
   program renders a dagger-marked placeholder row padded to [width]
   columns, so a failing program stays visible in every table instead
   of silently vanishing. With no faults this is exactly the old
   healthy-row list — byte-identical output. *)
let suite_rows ~(width : int) (f : Context.prog_data -> string list option) :
    string list list =
  Context.all_entries ()
  |> Parallel.map (fun ((b : Suite.Bench_prog.t), entry) ->
       match entry with
       | Ok d -> f d
       | Error (_ : Fault.t) ->
         Some
           ((b.Suite.Bench_prog.name ^ " †")
            :: List.init (width - 1) (fun _ -> "—")))
  |> List.filter_map Fun.id

(* The footnote explaining the daggers; "" when the suite is healthy. *)
let degraded_note () : string =
  match Context.degraded () with
  | [] -> ""
  | faults ->
    "\n"
    ^ String.concat ""
        (List.map
           (fun (name, (f : Fault.t)) ->
             Printf.sprintf "† %s degraded at the %s stage: %s\n" name
               (Fault.stage_to_string f.Fault.f_stage)
               (if f.Fault.f_exn <> "" then f.Fault.f_exn
                else f.Fault.f_detail))
           faults)

(* ------------------------------------------------------------------ *)
(* The paper's running example, used by table2 / fig3 / fig6_7. *)

let strchr_source = {|
/* Find first occurrence of a character in a string. */
char *strchr(char *str, int c) {
  while (*str) {
    if (*str == c) return str;
    str++;
  }
  return NULL;
}

int main(void) {
  strchr("abc", 'a');
  strchr("abc", 'b');
  return 0;
}
|}

(* The [Score.s_program] of the worked example's records. *)
let strchr_program = "strchr_example"

let strchr_compiled () = Pipeline.compile ~name:strchr_program strchr_source

(* Short description of a block from its contents. *)
let block_label (fn : Cfg.fn) (b : Cfg.block) : string =
  match b.Cfg.b_term with
  | Cfg.Tbranch (br, _, _) -> begin
    match br.Cfg.br_kind with
    | Cfg.Kwhile -> "while"
    | Cfg.Kdo -> "do-while"
    | Cfg.Kfor -> "for"
    | Cfg.Kif | Cfg.Kcond -> "if"
  end
  | Cfg.Treturn _ when b.Cfg.b_instrs = [] -> "return"
  | _ ->
    (match b.Cfg.b_instrs with
    | Cfg.Iexpr e :: _ -> Pretty.expr_to_string e
    | Cfg.Ilocal_init (_, d) :: _ -> d.Ast.d_name ^ "=init"
    | [] -> Printf.sprintf "B%d" b.Cfg.b_id)
    |> fun s -> if fn.Cfg.fn_entry = b.Cfg.b_id then s else s

(* ------------------------------------------------------------------ *)
(* Scoring helpers shared by figures 4, 5 and 9. *)

(* Mean (over profiles) of the invocation-weighted intra score of a fixed
   estimate. Intra estimates come from the content-addressed store
   ([Incr]), so the ablation sweeps and repeated experiments re-solve
   nothing they have solved before. *)
let intra_static_score (d : Context.prog_data) ~(cutoff : float)
    (kind : Pipeline.intra_kind) : float =
  let estimate = Incr.intra_provider d.Context.compiled kind in
  Pipeline.mean_over_profiles d.Context.profiles (fun p ->
      Pipeline.intra_score d.Context.compiled ~estimate p ~cutoff)

let intra_profiling_score (d : Context.prog_data) ~(cutoff : float) : float =
  Pipeline.cross_profile_mean d.Context.compiled d.Context.profiles
    (fun ~train ~eval_p ->
      Pipeline.intra_score d.Context.compiled
        ~estimate:(Pipeline.intra_of_profile train)
        eval_p ~cutoff)

(* The smart intra estimates feed every inter-procedural model (paper:
   "All estimates are built on the smart intra-procedural estimator"). *)
let smart_intra (d : Context.prog_data) : string -> float array =
  Incr.intra_provider d.Context.compiled Pipeline.Ismart

let inter_static_score (d : Context.prog_data) ~(cutoff : float)
    (kind : Pipeline.inter_kind) : float =
  let estimate =
    Pipeline.inter_estimate d.Context.compiled ~intra:(smart_intra d) kind
  in
  Pipeline.mean_over_profiles d.Context.profiles (fun p ->
      Weight_matching.score ~estimate
        ~actual:(Pipeline.inter_actual d.Context.compiled p)
        ~cutoff)

let inter_profiling_score (d : Context.prog_data) ~(cutoff : float) : float =
  Pipeline.cross_profile_mean d.Context.compiled d.Context.profiles
    (fun ~train ~eval_p ->
      Weight_matching.score
        ~estimate:(Pipeline.inter_actual d.Context.compiled train)
        ~actual:(Pipeline.inter_actual d.Context.compiled eval_p)
        ~cutoff)

let callsite_static_score (d : Context.prog_data) ~(cutoff : float)
    (kind : Pipeline.inter_kind) : float =
  let estimate =
    Pipeline.callsite_estimate d.Context.compiled ~intra:(smart_intra d) kind
  in
  Pipeline.mean_over_profiles d.Context.profiles (fun p ->
      Weight_matching.score ~estimate
        ~actual:(Pipeline.callsite_actual d.Context.compiled p)
        ~cutoff)

let callsite_profiling_score (d : Context.prog_data) ~(cutoff : float) :
    float =
  Pipeline.cross_profile_mean d.Context.compiled d.Context.profiles
    (fun ~train ~eval_p ->
      Weight_matching.score
        ~estimate:(Pipeline.callsite_actual d.Context.compiled train)
        ~actual:(Pipeline.callsite_actual d.Context.compiled eval_p)
        ~cutoff)

(* The mean of an empty series used to be a plausible-looking [0.0] — an
   all-degraded suite would quietly report a zero score. [Stats] owns
   the convention now (fault on the record so the run exits 3, NaN
   renders as an explicit marker); these aliases keep every call site
   below unchanged. *)
let mean_opt = Stats.mean_opt
let mean (xs : float list) : float = Stats.mean xs

(* ------------------------------------------------------------------ *)
(* The typed-record layer: per-program score tables compute every cell
   into a [Score] record once — one parallel task per program evaluates
   all columns — and both the rows and the AVERAGE line render from
   those records. *)

let emit ~(exp : string) ~(program : string) ~(estimator : string)
    ?(param = 0.0) (metric : Score.metric) (value : float) : unit =
  Score.emit
    { Score.s_experiment = exp; s_program = program; s_estimator = estimator;
      s_metric = metric; s_param = param; s_value = value }

(* A column of a per-program score table: the estimator label recorded,
   the metric and its parameter (q-cutoff), and the per-program value. *)
type score_col = {
  c_estimator : string;
  c_metric : Score.metric;
  c_param : float;
  c_value : Context.prog_data -> float;
}

let col ?(param = 0.0) (estimator : string) (metric : Score.metric)
    (value : Context.prog_data -> float) : score_col =
  { c_estimator = estimator; c_metric = metric; c_param = param;
    c_value = value }

(* Compute a per-program score table for [exp_id]. Healthy programs
   passing [keep] get every column evaluated in one parallel task (and
   one record emitted per cell); degraded programs render the
   dagger-marked placeholder row. Returns the rendered rows (registry
   order) and the AVERAGE row over the kept healthy programs; an
   average over *no* programs renders the — marker and records a fault
   instead of reporting 0. *)
let score_table ~(exp_id : string)
    ?(keep : Context.prog_data -> bool = fun _ -> true)
    ?(fmt : float -> string = Text_table.pct) (cols : score_col list) :
    string list list * string list =
  let width = 1 + List.length cols in
  let computed =
    Context.all_entries ()
    |> Parallel.map (fun ((b : Suite.Bench_prog.t), entry) ->
         match entry with
         | Ok d when keep d ->
           `Scores
             (b.Suite.Bench_prog.name, List.map (fun c -> c.c_value d) cols)
         | Ok _ -> `Skip
         | Error (_ : Fault.t) -> `Degraded b.Suite.Bench_prog.name)
  in
  let rows =
    List.filter_map
      (function
        | `Scores (name, values) ->
          List.iter2
            (fun c v ->
              emit ~exp:exp_id ~program:name ~estimator:c.c_estimator
                ~param:c.c_param c.c_metric v)
            cols values;
          Some (name :: List.map fmt values)
        | `Skip -> None
        | `Degraded name ->
          Some ((name ^ " †") :: List.init (width - 1) (fun _ -> "—")))
      computed
  in
  let healthy =
    List.filter_map
      (function `Scores (_, values) -> Some values | _ -> None)
      computed
  in
  let avg_row =
    Score.average_program
    :: List.mapi
         (fun i c ->
           match mean_opt (List.map (fun vs -> List.nth vs i) healthy) with
           | Some v ->
             emit ~exp:exp_id ~program:Score.average_program
               ~estimator:c.c_estimator ~param:c.c_param c.c_metric v;
             fmt v
           | None ->
             Fault.record
               { Fault.f_stage = Fault.Estimate; f_subject = exp_id;
                 f_detail =
                   Printf.sprintf "average of %s: no healthy programs"
                     c.c_estimator;
                 f_exn = ""; f_backtrace = "";
                 f_recovery = "average rendered as a — marker" };
             "—")
         cols
  in
  (rows, avg_row)

(* ------------------------------------------------------------------ *)
(* Table 1 *)

let table1 () : string =
  let rows =
    suite_rows ~width:7
      (fun (d : Context.prog_data) ->
        let b = d.Context.bench in
        let name = b.Suite.Bench_prog.name in
        let loc = Suite.Bench_prog.loc b in
        let funcs =
          List.length d.Context.compiled.Pipeline.prog.Cfg.prog_fns
        in
        let blocks =
          List.fold_left
            (fun acc fn -> acc + Cfg.n_blocks fn)
            0 d.Context.compiled.Pipeline.prog.Cfg.prog_fns
        in
        let inputs = Suite.Bench_prog.n_runs b in
        List.iter
          (fun (estimator, v) ->
            emit ~exp:"table1" ~program:name ~estimator Score.Count (float_of_int v))
          [ ("lines", loc); ("funcs", funcs); ("blocks", blocks);
            ("inputs", inputs) ];
        Some
          [ name;
            string_of_int loc;
            string_of_int funcs;
            string_of_int blocks;
            string_of_int inputs;
            b.Suite.Bench_prog.analogue;
            b.Suite.Bench_prog.description ])
  in
  "Table 1: programs used in this study\n\n"
  ^ Text_table.render
      ~aligns:[ Text_table.Left; Text_table.Right; Text_table.Right;
                Text_table.Right; Text_table.Right; Text_table.Left;
                Text_table.Left ]
      [ "program"; "lines"; "funcs"; "blocks"; "inputs"; "stands in for";
        "description" ]
      rows
  ^ degraded_note ()

(* ------------------------------------------------------------------ *)
(* Table 2: the strchr weight-matching worked example *)

let table2 () : string =
  let c = strchr_compiled () in
  let fn = Option.get (Cfg.find_fn c.Pipeline.prog "strchr") in
  let estimate = Ast_estimator.block_freqs c.Pipeline.tc fn Ast_estimator.Smart in
  let outcome = Pipeline.run_once c { Pipeline.argv = []; input = "" } in
  let actual = Profile.block_counts outcome.Cinterp.Eval.profile "strchr" in
  let rows =
    Array.to_list fn.Cfg.fn_blocks
    |> List.map (fun (b : Cfg.block) ->
         emit ~exp:"table2" ~program:strchr_program
           ~estimator:(Printf.sprintf "B%d.actual" b.Cfg.b_id)
           Score.Freq actual.(b.Cfg.b_id);
         emit ~exp:"table2" ~program:strchr_program
           ~estimator:(Printf.sprintf "B%d.estimate" b.Cfg.b_id)
           Score.Freq estimate.(b.Cfg.b_id);
         [ block_label fn b;
           Printf.sprintf "%.0f" actual.(b.Cfg.b_id);
           Printf.sprintf "%.1f" estimate.(b.Cfg.b_id) ])
  in
  let wm cutoff =
    let v = Weight_matching.score ~estimate ~actual ~cutoff in
    emit ~exp:"table2" ~program:strchr_program ~estimator:"smart"
      ~param:cutoff Score.Wm_intra v;
    v
  in
  "Table 2: intra-procedural weight-matching for strchr\n"
  ^ "(actual: strchr(\"abc\",'a') and strchr(\"abc\",'b'); estimate: smart)\n\n"
  ^ Text_table.render
      ~aligns:[ Text_table.Left ]
      [ "block"; "actual"; "estimate" ]
      rows
  ^ Printf.sprintf "\nscore at 20%% cutoff: %s   (paper: 100%%)\n"
      (Text_table.pct (wm 0.2))
  ^ Printf.sprintf "score at 60%% cutoff: %s   (paper: 88%%)\n"
      (Text_table.pct (wm 0.6))

(* ------------------------------------------------------------------ *)
(* Figure 2: branch prediction miss rates *)

let fig2 () : string =
  let rows, avg_row =
    score_table ~exp_id:"fig2"
      [ col "predictor" Score.Miss_rate (fun d ->
            let prog = d.Context.compiled.Pipeline.prog in
            let smart = Missrate.smart_predictor prog in
            mean
              (List.map (fun p -> Missrate.rate prog p smart)
                 d.Context.profiles));
        col "profiling" Score.Miss_rate (fun d ->
            Pipeline.cross_profile_mean d.Context.compiled d.Context.profiles
              (fun ~train ~eval_p ->
                Missrate.rate d.Context.compiled.Pipeline.prog eval_p
                  (Missrate.majority_predictor train)));
        col "PSP" Score.Miss_rate (fun d ->
            mean
              (List.map
                 (fun p -> Missrate.psp_rate d.Context.compiled.Pipeline.prog p)
                 d.Context.profiles)) ]
  in
  "Figure 2: dynamic branch misprediction rates\n"
  ^ "(constant-foldable conditions and switches excluded, as in the paper)\n\n"
  ^ Text_table.render
      ~aligns:[ Text_table.Left ]
      [ "program"; "predictor"; "profiling"; "PSP" ]
      (rows @ [ avg_row ])
  ^ "\npaper: predictor ~2x the profiling miss rate; PSP lowest.\n"
  ^ degraded_note ()

(* ------------------------------------------------------------------ *)
(* Figure 3: the annotated AST of strchr *)

let fig3 () : string =
  let c = strchr_compiled () in
  let fi = Option.get (Cfront.Typecheck.fun_info c.Pipeline.tc "strchr") in
  let f = fi.Cfront.Typecheck.fi_def in
  let freqs = Ast_estimator.stmt_freqs c.Pipeline.tc f Ast_estimator.Smart in
  Hashtbl.fold (fun sid v acc -> (sid, v) :: acc) freqs []
  |> List.sort compare
  |> List.iter (fun (sid, v) ->
       emit ~exp:"fig3" ~program:strchr_program
         ~estimator:(Printf.sprintf "sid%d" sid)
         Score.Freq v);
  let annot (s : Ast.stmt) =
    match Hashtbl.find_opt freqs s.Ast.sid with
    | Some v -> Printf.sprintf "%.1f" v
    | None -> ""
  in
  "Figure 3: smart-estimator frequencies on the strchr AST\n"
  ^ "(paper: body = 4; while = 5; if = 4; return str = 0.2 * 4 = 0.8;\n\
    \ str++ = 4 and return NULL = 1 because the AST model ignores returns)\n\n"
  ^ Pretty.fundef_tree ~annot f

(* ------------------------------------------------------------------ *)
(* Figure 4: intra-procedural weight-matching at the 5% cutoff *)

let fig4 () : string =
  let cutoff = 0.05 in
  let rows, avg_row =
    score_table ~exp_id:"fig4"
      [ col ~param:cutoff "loop" Score.Wm_intra (fun d ->
            intra_static_score d ~cutoff Pipeline.Iloop);
        col ~param:cutoff "smart" Score.Wm_intra (fun d ->
            intra_static_score d ~cutoff Pipeline.Ismart);
        col ~param:cutoff "markov" Score.Wm_intra (fun d ->
            intra_static_score d ~cutoff Pipeline.Imarkov);
        col ~param:cutoff "profiling" Score.Wm_intra (fun d ->
            intra_profiling_score d ~cutoff) ]
  in
  "Figure 4: intra-procedural basic-block weight matching (5% cutoff)\n\n"
  ^ Text_table.render
      ~aligns:[ Text_table.Left ]
      [ "program"; "loop"; "smart"; "markov"; "profiling" ]
      (rows @ [ avg_row ])
  ^ "\npaper: smart ~81% on average, within a few points of profiling;\n\
     markov no better than smart at the intra level.\n"
  ^ degraded_note ()

(* ------------------------------------------------------------------ *)
(* Figure 5a: simple function-invocation estimators at 25% *)

let fig5a () : string =
  let cutoff = 0.25 in
  let simple_cols =
    List.map2
      (fun estimator k ->
        col ~param:cutoff estimator Score.Wm_inter (fun d ->
            inter_static_score d ~cutoff (Pipeline.Isimple k)))
      [ "call_site"; "direct"; "all_rec"; "all_rec2" ]
      Inter_simple.all_kinds
  in
  let rows, avg_row =
    score_table ~exp_id:"fig5a"
      (simple_cols
      @ [ col ~param:cutoff "profiling" Score.Wm_inter (fun d ->
              inter_profiling_score d ~cutoff) ])
  in
  "Figure 5a: function invocation estimates, simple predictors (25% cutoff)\n\n"
  ^ Text_table.render
      ~aligns:[ Text_table.Left ]
      [ "program"; "call_site"; "direct"; "all_rec"; "all_rec2"; "profiling" ]
      (rows @ [ avg_row ])
  ^ "\npaper: all_rec2 slightly best at 25%; direct nearly as good and more\n\
     stable across cutoffs.\n"
  ^ degraded_note ()

(* ------------------------------------------------------------------ *)
(* Figure 5b/c: direct vs markov vs profiling at 10% and 25% *)

let fig5bc () : string =
  let section cutoff tag paper_note =
    let rows, avg_row =
      score_table ~exp_id:"fig5bc"
        [ col ~param:cutoff "direct" Score.Wm_inter (fun d ->
              inter_static_score d ~cutoff
                (Pipeline.Isimple Inter_simple.Direct));
          col ~param:cutoff "markov" Score.Wm_inter (fun d ->
              inter_static_score d ~cutoff Pipeline.Imarkov_inter);
          col ~param:cutoff "profiling" Score.Wm_inter (fun d ->
              inter_profiling_score d ~cutoff) ]
    in
    Printf.sprintf "Figure 5%s: function invocations at the %.0f%% cutoff\n\n"
      tag (cutoff *. 100.0)
    ^ Text_table.render
        ~aligns:[ Text_table.Left ]
        [ "program"; "direct"; "markov"; "profiling" ]
        (rows @ [ avg_row ])
    ^ paper_note
  in
  section 0.10 "b" "\n"
  ^ "\n"
  ^ section 0.25 "c"
      "\npaper: markov ~10 points above direct at both cutoffs;\n\
       ~81% on average at 25%.\n"
  ^ degraded_note ()

(* ------------------------------------------------------------------ *)
(* Figures 6-7: the strchr CFG linear system and its solution *)

let fig6_7 () : string =
  let c = strchr_compiled () in
  let fn = Option.get (Cfg.find_fn c.Pipeline.prog "strchr") in
  let presented =
    Markov_intra.present ~usage:(Pipeline.usage_of c fn) c.Pipeline.tc fn
  in
  Array.iteri
    (fun i v ->
      emit ~exp:"fig6_7" ~program:strchr_program
        ~estimator:(Printf.sprintf "x%d" i)
        Score.Freq v)
    presented.Markov_intra.solution;
  let buf = Buffer.create 512 in
  bprintf buf
    "Figures 6-7: Markov model of strchr (branch probabilities 0.8/0.2)\n\n";
  bprintf buf "equations (x_b = sum of p * x_pred):\n";
  List.iter
    (fun (b, preds) ->
      let fnb = fn.Cfg.fn_blocks.(b) in
      let rhs =
        if b = fn.Cfg.fn_entry then
          "1"
          ^ String.concat ""
              (List.map
                 (fun (p, w) -> Printf.sprintf " + %.2f*x%d" w p)
                 preds)
        else if preds = [] then "0"
        else
          String.concat " + "
            (List.map (fun (p, w) -> Printf.sprintf "%.2f*x%d" w p) preds)
      in
      bprintf buf "  x%d (%s) = %s\n" b (block_label fn fnb) rhs)
    presented.Markov_intra.equations;
  bprintf buf "\nsolution:\n";
  Array.iteri
    (fun i v ->
      bprintf buf "  x%d (%s) = %.2f\n" i
        (block_label fn fn.Cfg.fn_blocks.(i))
        v)
    presented.Markov_intra.solution;
  bprintf buf
    "\npaper solution: entry 1, while 2.78, if 2.22, return-in-loop 0.44,\n\
     str++ 1.78, return NULL 0.56 (entry merges into the while header here).\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Figure 8: recursion makes the naive call-graph model invalid *)

let fig8 () : string =
  let d = Context.by_name "tree_mini" in
  let c = d.Context.compiled in
  let intra = smart_intra d in
  let buf = Buffer.create 512 in
  bprintf buf "Figure 8: invalid recursion estimates and their repair\n\n";
  (* the self-arc weight of count_nodes under the smart intra estimate *)
  List.iter
    (fun (src, dst, w) ->
      if src = dst then
        bprintf buf "  self-arc %s -> %s: weight %.2f%s\n" src dst w
          (if w > 1.0 then "  (IMPOSSIBLE: > 1 call to itself per call)"
           else ""))
    (Markov_inter.arc_weights c.Pipeline.graph ~intra);
  (match Markov_inter.estimate_raw c.Pipeline.graph ~intra with
  | Some raw ->
    List.iter
      (fun (name, v) ->
        emit ~exp:"fig8" ~program:"tree_mini"
          ~estimator:("naive:" ^ name) Score.Freq v)
      raw;
    let negatives = List.filter (fun (_, v) -> v < 0.0) raw in
    bprintf buf "\nnaive solve:%s\n"
      (if negatives = [] then " (no negative frequencies this time)" else "");
    List.iter
      (fun (name, v) -> bprintf buf "  %-14s %10.2f\n" name v)
      raw
  | None -> bprintf buf "\nnaive solve: system singular\n");
  let repaired = Markov_inter.estimate c.Pipeline.graph ~intra in
  List.iter
    (fun (name, v) ->
      emit ~exp:"fig8" ~program:"tree_mini"
        ~estimator:("repaired:" ^ name) Score.Freq v)
    repaired.Markov_inter.freqs;
  bprintf buf "\nafter clamping (recursive arcs > 1 reset to 0.8) and SCC repair:\n";
  List.iter
    (fun (name, v) -> bprintf buf "  %-14s %10.2f\n" name v)
    repaired.Markov_inter.freqs;
  let diag = repaired.Markov_inter.diag in
  List.iter
    (fun (estimator, v) ->
      emit ~exp:"fig8" ~program:"tree_mini" ~estimator Score.Count
        (float_of_int v))
    [ ("diag.clamped", List.length diag.Markov_inter.clamped_self_arcs);
      ("diag.repaired_sccs", diag.Markov_inter.repaired_sccs);
      ("diag.scale_iterations", diag.Markov_inter.scale_iterations) ];
  bprintf buf
    "\nclamped arcs: %d; SCC subproblems rescaled: %d (%d scale steps)\n"
    (List.length diag.Markov_inter.clamped_self_arcs)
    diag.Markov_inter.repaired_sccs diag.Markov_inter.scale_iterations;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Figure 9: call-site ranking at the 25% cutoff *)

let fig9 () : string =
  let cutoff = 0.25 in
  let rows, avg_row =
    score_table ~exp_id:"fig9"
      ~keep:(fun d -> Cfg.direct_sites d.Context.compiled.Pipeline.prog <> [])
      [ col ~param:cutoff "direct" Score.Wm_callsite (fun d ->
            callsite_static_score d ~cutoff
              (Pipeline.Isimple Inter_simple.Direct));
        col ~param:cutoff "markov" Score.Wm_callsite (fun d ->
            callsite_static_score d ~cutoff Pipeline.Imarkov_inter);
        col ~param:cutoff "profiling" Score.Wm_callsite (fun d ->
            callsite_profiling_score d ~cutoff) ]
  in
  "Figure 9: call-site ranking (25% cutoff; indirect calls omitted)\n\n"
  ^ Text_table.render
      ~aligns:[ Text_table.Left ]
      [ "program"; "direct"; "markov"; "profiling" ]
      (rows @ [ avg_row ])
  ^ "\npaper: the markov combination identifies the busiest quarter of call\n\
     sites with ~76% accuracy.\n"
  ^ degraded_note ()

(* ------------------------------------------------------------------ *)
(* Figure 10: selective optimization of compress *)

let fig10 () : string =
  let d = Context.by_name "compress_mini" in
  let c = d.Context.compiled in
  let graph = c.Pipeline.graph in
  let names = graph.Callgraph.names in
  let intra = smart_intra d in
  (* rank functions descending by each source of invocation estimates *)
  let ranking (values : float array) : string list =
    let idx = Array.init (Array.length values) (fun i -> i) in
    Array.sort
      (fun a b ->
        match compare values.(b) values.(a) with
        | 0 -> compare a b
        | c -> c)
      idx;
    Array.to_list (Array.map (fun i -> names.(i)) idx)
  in
  (* rank by estimated total work, not just invocations: invocation *
     per-invocation block weight, as an optimizer would. The paper ranks
     by the markov invocation estimate; we report that. *)
  let markov_rank =
    ranking (Pipeline.inter_estimate c ~intra Pipeline.Imarkov_inter)
  in
  let profiles = d.Context.profiles in
  let first_profile = List.hd profiles in
  let rest_profiles = List.tl profiles in
  let profile_rank p = ranking (Pipeline.inter_actual c p) in
  let aggregate = Profile.aggregate c.Pipeline.prog rest_profiles in
  (* evaluation input: the last profile (not used for either ranking) *)
  let eval_profile = List.nth profiles (List.length profiles - 1) in
  let time optimized = Pipeline.modelled_time c eval_profile ~optimized in
  let base = time [] in
  let take n l = List.filteri (fun i _ -> i < n) l in
  let emit_speedups n triples =
    List.iter
      (fun (estimator, v) ->
        emit ~exp:"fig10" ~program:"compress_mini" ~estimator
          ~param:(float_of_int n) Score.Speedup v)
      triples
  in
  let row n =
    let s_est = base /. time (take n markov_rank) in
    let s_prof = base /. time (take n (profile_rank first_profile)) in
    let s_agg = base /. time (take n (profile_rank aggregate)) in
    emit_speedups n
      [ ("estimate", s_est); ("profile", s_prof); ("aggregate", s_agg) ];
    [ string_of_int n;
      Text_table.f2 s_est;
      Text_table.f2 s_prof;
      Text_table.f2 s_agg ]
  in
  let all_fns = Array.to_list names in
  let rows =
    List.map row [ 0; 1; 2; 3; 4; 5; 6 ]
    @ [ (let n = List.length all_fns in
         let s_all = base /. time all_fns in
         emit_speedups n
           [ ("estimate", s_all); ("profile", s_all); ("aggregate", s_all) ];
         [ string_of_int n;
           Text_table.f2 s_all;
           Text_table.f2 s_all;
           Text_table.f2 s_all ]) ]
  in
  "Figure 10: selective optimization of compress_mini\n"
  ^ "(modelled run time; optimized functions execute at half cost)\n\n"
  ^ Text_table.render
      [ "#optimized"; "estimate"; "profile"; "aggregate" ]
      rows
  ^ Printf.sprintf "\nmarkov ranking: %s\n"
      (String.concat " > " (take 6 markov_rank))
  ^ "\npaper: the static estimate finds compress's 4 dominant functions\n\
     within its top quarter; optimizing the remaining 12 adds nothing.\n"

(* ------------------------------------------------------------------ *)
(* Ablations: the paper asserts several knob choices without data
   ("the exact value chosen did not have a significant effect", "the
   latter performed slightly better"); these experiments produce the
   missing tables. Each cell is recorded with the row label folded into
   the estimator field ("row/column"), program = AVERAGE. *)

module Config = Core.Config

let suite_mean f = mean (suite_map f)

let emit_cell ~(exp : string) ~(row : string) ~(column : string)
    ?(param = 0.0) (metric : Score.metric) (value : float) : unit =
  emit ~exp ~program:Score.average_program ~estimator:(row ^ "/" ^ column)
    ~param metric value

let smart_fig4_avg () =
  suite_mean (fun d -> intra_static_score d ~cutoff:0.05 Pipeline.Ismart)

let markov_fig4_avg () =
  suite_mean (fun d -> intra_static_score d ~cutoff:0.05 Pipeline.Imarkov)

let markov_fig5_avg () =
  suite_mean (fun d -> inter_static_score d ~cutoff:0.25 Pipeline.Imarkov_inter)

let missrate_avg () =
  suite_mean (fun (d : Context.prog_data) ->
      let prog = d.Context.compiled.Pipeline.prog in
      let smart = Missrate.smart_predictor prog in
      mean (List.map (fun p -> Missrate.rate prog p smart) d.Context.profiles))

(* Leave-one-out heuristic contributions (paper section 4.1 discusses the
   heuristic list; this quantifies each member). *)
let ablation_heuristics () : string =
  let exp = "ablation_heuristics" in
  let row name set =
    Config.with_settings set (fun () ->
        let miss = missrate_avg () in
        let fig4 = smart_fig4_avg () in
        emit_cell ~exp ~row:name ~column:"miss_rate" Score.Miss_rate miss;
        emit_cell ~exp ~row:name ~column:"fig4_smart" ~param:0.05
          Score.Wm_intra fig4;
        [ name; Text_table.pct miss; Text_table.pct fig4 ])
  in
  let rows =
    [ row "full predictor" (fun _ -> ());
      row "- pointer" (fun c -> c.Config.heuristic_pointer <- false);
      row "- error-call" (fun c -> c.Config.heuristic_error_call <- false);
      row "- opcode" (fun c -> c.Config.heuristic_opcode <- false);
      row "- multi-and" (fun c -> c.Config.heuristic_multi_and <- false);
      row "- store" (fun c -> c.Config.heuristic_store <- false);
      row "- return" (fun c -> c.Config.heuristic_return <- false);
      row "none (default taken)"
        (fun c ->
          c.Config.heuristic_pointer <- false;
          c.Config.heuristic_error_call <- false;
          c.Config.heuristic_opcode <- false;
          c.Config.heuristic_multi_and <- false;
          c.Config.heuristic_store <- false;
          c.Config.heuristic_return <- false) ]
  in
  "Ablation A: leave-one-out heuristic contributions (suite averages)\n\n"
  ^ Text_table.render
      ~aligns:[ Text_table.Left ]
      [ "predictor"; "miss rate"; "fig4 smart score" ]
      rows
  ^ "\nlower miss rate / higher score is better; a row worse than the full\n\
     predictor means the removed heuristic was pulling its weight.\n"

(* Sensitivity to the predicted-arm probability (paper footnote 5). *)
let ablation_branch_probability () : string =
  let exp = "ablation_branch_prob" in
  let rows =
    List.map
      (fun p ->
        Config.with_settings
          (fun c -> c.Config.branch_probability <- p)
          (fun () ->
            let name = Printf.sprintf "%.2f" p in
            let fig4 = smart_fig4_avg () in
            let fig5 = markov_fig5_avg () in
            emit_cell ~exp ~row:name ~column:"fig4_smart" ~param:0.05
              Score.Wm_intra fig4;
            emit_cell ~exp ~row:name ~column:"fig5_markov" ~param:0.25
              Score.Wm_inter fig5;
            [ name; Text_table.pct fig4; Text_table.pct fig5 ]))
      [ 0.6; 0.7; 0.8; 0.9; 0.95 ]
  in
  "Ablation B: sensitivity to the predicted-arm probability\n\
   (paper footnote 5: \"The exact value chosen did not have a\n\
   significant effect\")\n\n"
  ^ Text_table.render
      ~aligns:[ Text_table.Left ]
      [ "probability"; "fig4 smart score"; "fig5 markov score" ]
      rows

(* Sensitivity to the standard loop count (paper section 4.1 argues 5 is
   near the observed average for non-scientific codes). *)
let ablation_loop_count () : string =
  let exp = "ablation_loop_count" in
  let rows =
    List.map
      (fun k ->
        Config.with_settings
          (fun c -> c.Config.loop_iterations <- k)
          (fun () ->
            let name = Printf.sprintf "%.0f" k in
            let fig4_smart = smart_fig4_avg () in
            let fig4_markov = markov_fig4_avg () in
            let fig5_markov = markov_fig5_avg () in
            emit_cell ~exp ~row:name ~column:"fig4_smart" ~param:0.05
              Score.Wm_intra fig4_smart;
            emit_cell ~exp ~row:name ~column:"fig4_markov" ~param:0.05
              Score.Wm_intra fig4_markov;
            emit_cell ~exp ~row:name ~column:"fig5_markov" ~param:0.25
              Score.Wm_inter fig5_markov;
            [ name; Text_table.pct fig4_smart; Text_table.pct fig4_markov;
              Text_table.pct fig5_markov ]))
      [ 2.0; 3.0; 5.0; 10.0; 50.0 ]
  in
  "Ablation C: sensitivity to the standard loop count\n\n"
  ^ Text_table.render
      ~aligns:[ Text_table.Left ]
      [ "iterations"; "fig4 smart"; "fig4 markov"; "fig5 markov" ]
      rows
  ^ "\npaper: 5 is near the observed average; weight matching mostly needs\n\
     loops to dominate non-loops, so the exact count matters little.\n"

(* Switch-arm weighting (paper footnote 3: weighting arms by their number
   of case labels "performed slightly better"). *)
let ablation_switch_weighting () : string =
  let exp = "ablation_switch" in
  let row name by_labels =
    Config.with_settings
      (fun c -> c.Config.switch_by_labels <- by_labels)
      (fun () ->
        let fig4_smart = smart_fig4_avg () in
        let fig4_markov = markov_fig4_avg () in
        let fig5_markov = markov_fig5_avg () in
        emit_cell ~exp ~row:name ~column:"fig4_smart" ~param:0.05
          Score.Wm_intra fig4_smart;
        emit_cell ~exp ~row:name ~column:"fig4_markov" ~param:0.05
          Score.Wm_intra fig4_markov;
        emit_cell ~exp ~row:name ~column:"fig5_markov" ~param:0.25
          Score.Wm_inter fig5_markov;
        [ name;
          Text_table.pct fig4_smart;
          Text_table.pct fig4_markov;
          Text_table.pct fig5_markov ])
  in
  let rows =
    [ row "by case labels" true; row "arms equally likely" false ]
  in
  "Ablation D: switch-arm weighting (paper footnote 3)\n\n"
  ^ Text_table.render
      ~aligns:[ Text_table.Left ]
      [ "weighting"; "fig4 smart"; "fig4 markov"; "fig5 markov" ]
      rows

(* Extension: a CFG-only structural estimator (loops recovered from back
   edges via dominators, frequency = count^depth) against the AST-based
   ones — quantifying what the paper gains by working "at the level of
   the abstract syntax" instead of Ball/Larus-style executable analysis. *)
let ext_structural () : string =
  let cutoff = 0.05 in
  let rows, avg_row =
    score_table ~exp_id:"ext_structural"
      [ col ~param:cutoff "structural" Score.Wm_intra (fun d ->
            intra_static_score d ~cutoff Pipeline.Istructural);
        col ~param:cutoff "loop" Score.Wm_intra (fun d ->
            intra_static_score d ~cutoff Pipeline.Iloop);
        col ~param:cutoff "smart" Score.Wm_intra (fun d ->
            intra_static_score d ~cutoff Pipeline.Ismart) ]
  in
  "Extension: structural (CFG-only) vs AST-based estimation (5% cutoff)\n\n"
  ^ Text_table.render
      ~aligns:[ Text_table.Left ]
      [ "program"; "structural"; "loop (AST)"; "smart (AST)" ]
      (rows @ [ avg_row ])
  ^ "\nThe structural estimator recovers loop nesting from dominators and\n\
     back edges alone; the AST adds branch direction, which is where the\n\
     remaining gap comes from.\n"
  ^ degraded_note ()

(* Extension: the paper's closing open question — does a predictor that
   generates probabilities directly (Wu-Larus evidence combination) make
   the intra-procedural Markov model worthwhile? *)
let ext_wu_larus () : string =
  let cutoff = 0.05 in
  let rows, avg_row =
    score_table ~exp_id:"ext_wu_larus"
      [ col ~param:cutoff "smart" Score.Wm_intra (fun d ->
            intra_static_score d ~cutoff Pipeline.Ismart);
        col ~param:cutoff "markov" Score.Wm_intra (fun d ->
            intra_static_score d ~cutoff Pipeline.Imarkov);
        col ~param:cutoff "markov_wl" Score.Wm_intra (fun d ->
            intra_static_score d ~cutoff Pipeline.Icombined);
        col ~param:cutoff "profiling" Score.Wm_intra (fun d ->
            intra_profiling_score d ~cutoff) ]
  in
  "Extension: probability-generating prediction (Wu-Larus 1994) feeding\n\
   the intra Markov model — the paper's closing open question\n\n"
  ^ Text_table.render
      ~aligns:[ Text_table.Left ]
      [ "program"; "smart"; "markov(0.8)"; "markov(WL)"; "profiling" ]
      (rows @ [ avg_row ])
  ^ "\nmarkov(WL) combines all firing heuristics with the Dempster-Shafer\n\
     rule and Ball/Larus hit rates instead of a single 0.8/0.2 guess.\n"
  ^ degraded_note ()

(* ------------------------------------------------------------------ *)

let all : (string * string * (unit -> string)) list =
  [ ("table1", "program inventory", table1);
    ("table2", "strchr weight-matching example", table2);
    ("fig2", "branch misprediction rates", fig2);
    ("fig3", "annotated strchr AST", fig3);
    ("fig4", "intra-procedural weight matching", fig4);
    ("fig5a", "simple invocation estimators", fig5a);
    ("fig5bc", "direct vs markov invocation estimators", fig5bc);
    ("fig6_7", "strchr Markov system", fig6_7);
    ("fig8", "recursion repair", fig8);
    ("fig9", "call-site ranking", fig9);
    ("fig10", "selective optimization", fig10);
    ("ablation_heuristics", "leave-one-out heuristic study",
     ablation_heuristics);
    ("ablation_branch_prob", "branch-probability sensitivity",
     ablation_branch_probability);
    ("ablation_loop_count", "loop-count sensitivity", ablation_loop_count);
    ("ablation_switch", "switch-weighting comparison",
     ablation_switch_weighting);
    ("ext_structural", "CFG-only structural estimator", ext_structural);
    ("ext_wu_larus", "probability-generating prediction", ext_wu_larus) ]
  |> List.map (fun (id, desc, f) ->
       (* Per-experiment isolation: one table failing (a degraded
          program a figure insists on, an injected worker death in a
          row fan-out) degrades to a notice while the rest of the
          evaluation renders; [--strict] re-raises out of here with the
          original backtrace. *)
       ( id, desc,
         fun () ->
           Obs.Probe.with_span ("experiment." ^ id) (fun () ->
               match
                 Fault.capture ~stage:Fault.Experiment ~subject:id
                   ~recovery:"experiment output replaced by a degradation \
                              notice"
                   f
               with
               | Ok s -> s
               | Error fault ->
                 Printf.sprintf
                   "experiment %s DEGRADED: %s\n\
                    (output omitted; see the fault summary)\n"
                   id fault.Fault.f_exn) ))

let find (id : string) : (unit -> string) option =
  List.find_map (fun (i, _, f) -> if i = id then Some f else None) all

let run_all () : string =
  String.concat "\n\n======================================================\n\n"
    (List.map (fun (_, _, f) -> f ()) all)
