(* Corpus evaluation: N seeded shaped programs per workload class, each
   run through the suite's own stages — [Context]'s compile and
   (fuel-budgeted) profile stages, uncached, then [Experiments]' intra
   and inter scorers — with weight-matching scores aggregated into
   per-class/per-estimator distributions (mean/median/p10/p90). This
   module only generates, aggregates and renders.

   Every distribution cell is emitted as a typed [Score] record
   (experiment "corpus", program = the class name, estimator =
   "<estimator>/<statistic>"), so drift-gating, [bin record]/[bin diff]
   and the HTML report cover corpus results exactly as they cover the
   16-program suite — and because the suite experiments never emit
   under the "corpus" experiment id, corpus scores are purely additive
   to a run record, never perturbing baseline scores.

   Determinism: generation is a pure function of (seed, class, size,
   index); per-program evaluation fans out through [Parallel.map],
   which merges in input order; aggregation is a sequential fold over
   that merged order.  The records are therefore bit-identical at any
   jobs setting.  Deliberately *not* in the record's meta: the jobs
   count.

   Fault tolerance is [Context]'s: a degenerate generated program
   degrades its own row (compile/profile/estimate stage captures)
   instead of killing the run, and a run that exhausts its fuel budget
   keeps the partial profile, is counted as divergent, and leaves a
   Profile-stage fault on the record. *)

module Pipeline = Core.Pipeline
module Inter_simple = Core.Inter_simple
module Shape = Corpus.Shape
module Genprog = Corpus.Genprog

type spec = {
  c_seed : int;
  c_per_class : int;
  c_size : Shape.size;
  c_classes : Shape.workload_class list;
}

let default_spec =
  { c_seed = 1; c_per_class = 10; c_size = Shape.medium;
    c_classes = Shape.all_classes }

type outcome = {
  o_rendered : string;                  (* the per-class tables *)
  o_programs : int;                     (* generated rows, all classes *)
  o_degraded : (string * string) list;  (* program name, stage — for the record *)
  o_divergent : int;                    (* rows with a budget-exhausted run *)
}

let exp_id = "corpus"

(* Termination of generated programs is by construction; this budget is
   the safety net that turns a generator bug into a degraded/divergent
   row instead of a hang.  The largest corpus shapes execute well under
   10^5 block steps, so the headroom is ~20x. *)
let corpus_fuel = 2_000_000

let intra_cutoff = 0.05
let inter_cutoff = 0.25

let intra_kinds =
  [ Pipeline.Iloop; Pipeline.Ismart; Pipeline.Imarkov; Pipeline.Istructural;
    Pipeline.Icombined ]

let inter_kinds =
  List.map (fun k -> Pipeline.Isimple k) Inter_simple.all_kinds
  @ [ Pipeline.Imarkov_inter ]

(* The fixed estimator column order of every per-class table. *)
let estimator_labels : string list =
  List.map
    (fun k -> "intra." ^ Pipeline.intra_kind_to_string k)
    intra_kinds
  @ List.map (fun k -> "inter." ^ Pipeline.inter_kind_to_string k) inter_kinds

(* ------------------------------------------------------------------ *)
(* One generated program through the suite's stages. *)

(* estimator label, metric, cutoff, score *)
type cell = string * Score.metric * float * float

type row = {
  p_bench : Suite.Bench_prog.t;
  p_cls : Shape.workload_class;
  p_cells : (cell list, Fault.t) result;
  p_divergent : bool;
}

let bench_of (spec : spec) (cls : Shape.workload_class) (index : int) :
    Suite.Bench_prog.t =
  Suite.Bench_prog.synthetic
    ~name:(Genprog.name cls index)
    ~description:(Shape.class_description cls)
    ~source:
      (Genprog.generate ~seed:spec.c_seed ~cls ~size:spec.c_size ~index)
    ~runs:
      (List.map
         (fun (argv, input) -> Suite.Bench_prog.run ~argv ~input ())
         Genprog.runs)

let score_cells (d : Context.prog_data) : cell list =
  List.map
    (fun kind ->
      ( "intra." ^ Pipeline.intra_kind_to_string kind, Score.Wm_intra,
        intra_cutoff,
        Experiments.intra_static_score d ~cutoff:intra_cutoff kind ))
    intra_kinds
  @ List.map
      (fun kind ->
        ( "inter." ^ Pipeline.inter_kind_to_string kind, Score.Wm_inter,
          inter_cutoff,
          Experiments.inter_static_score d ~cutoff:inter_cutoff kind ))
      inter_kinds

let eval_one (spec : spec) ((cls : Shape.workload_class), (index : int)) : row
    =
  let bench = bench_of spec cls index in
  let capture stage f =
    Fault.capture ~stage ~subject:bench.Suite.Bench_prog.name
      ~recovery:Context.drop_recovery f
  in
  let divergent = ref false in
  let cells =
    match capture Fault.Compile (fun () -> Context.compile_stage bench) with
    | Error f -> Error f
    | Ok compiled -> (
      match
        capture Fault.Profile (fun () ->
            List.mapi
              (fun i r ->
                let p, stopped =
                  Context.profile_stage ~fuel:corpus_fuel compiled i
                    (Context.pipeline_run r)
                in
                if stopped then divergent := true;
                p)
              bench.Suite.Bench_prog.runs)
      with
      | Error f -> Error f
      | Ok profiles ->
        capture Fault.Estimate (fun () ->
            score_cells { Context.bench; compiled; profiles }))
  in
  { p_bench = bench; p_cls = cls; p_cells = cells; p_divergent = !divergent }

(* ------------------------------------------------------------------ *)
(* Aggregation: a sequential fold over the order-merged rows. *)

let stat_names = [ "mean"; "median"; "p10"; "p90" ]

let stat_value ~(subject : string) (name : string) (xs : float list) : float =
  match name with
  | "mean" -> Stats.mean ~subject xs
  | "median" -> Stats.quantile ~subject 0.5 xs
  | "p10" -> Stats.quantile ~subject 0.1 xs
  | "p90" -> Stats.quantile ~subject 0.9 xs
  | _ -> invalid_arg "Corpus_eval.stat_value"

let emit_score ~(program : string) ~(estimator : string)
    (metric : Score.metric) ~(param : float) (value : float) : unit =
  Score.emit
    { Score.s_experiment = exp_id; s_program = program;
      s_estimator = estimator; s_metric = metric; s_param = param;
      s_value = value }

let aggregate_class (cls : Shape.workload_class)
    (rows : row list) : string =
  let class_name = Shape.class_to_string cls in
  let healthy =
    List.filter_map
      (fun r -> match r.p_cells with Ok cs -> Some cs | Error _ -> None)
      rows
  in
  let n_degraded = List.length rows - List.length healthy in
  let n_divergent =
    List.length (List.filter (fun r -> r.p_divergent) rows)
  in
  let mean_loc =
    match rows with
    | [] -> 0.0
    | _ ->
      float_of_int
        (List.fold_left
           (fun acc r -> acc + Suite.Bench_prog.loc r.p_bench)
           0 rows)
      /. float_of_int (List.length rows)
  in
  let table_rows =
    List.map
      (fun label ->
        let metric, param, values =
          List.fold_left
            (fun (m, p, acc) cells ->
              match
                List.find_opt (fun (l, _, _, _) -> l = label) cells
              with
              | Some (_, metric, param, v) -> (metric, param, v :: acc)
              | None -> (m, p, acc))
            ((if String.length label > 5 && String.sub label 0 5 = "intra"
              then Score.Wm_intra
              else Score.Wm_inter),
             (if String.length label > 5 && String.sub label 0 5 = "intra"
              then intra_cutoff
              else inter_cutoff),
             [])
            healthy
        in
        let values = List.rev values in
        label
        :: List.map
             (fun stat ->
               let v =
                 stat_value ~subject:(class_name ^ "." ^ label) stat values
               in
               emit_score ~program:class_name
                 ~estimator:(label ^ "/" ^ stat) metric ~param v;
               Text_table.pct v)
             stat_names)
      estimator_labels
  in
  List.iter
    (fun (est, v) ->
      emit_score ~program:class_name ~estimator:est Score.Count ~param:0.0
        (float_of_int v))
    [ ("programs", List.length rows); ("degraded", n_degraded);
      ("divergent", n_divergent) ];
  Printf.sprintf
    "class %s (%d programs, %d degraded, %d divergent, ~%.0f LoC each)\n%s\n%s"
    class_name (List.length rows) n_degraded n_divergent mean_loc
    (Shape.class_description cls)
    (Text_table.render
       ~aligns:[ Text_table.Left ]
       ("estimator" :: stat_names)
       table_rows)

(* ------------------------------------------------------------------ *)

let evaluate (spec : spec) : outcome =
  let tasks =
    List.concat_map
      (fun cls -> List.init spec.c_per_class (fun i -> (cls, i)))
      spec.c_classes
  in
  (* Worker-level task deaths (the ["worker"] injection point, or
     anything thrown outside the stage captures) degrade the one row
     they belong to, exactly like the suite driver's warm-up. *)
  let rows =
    List.map2
      (fun ((cls : Shape.workload_class), index) slot ->
        match slot with
        | Ok row -> row
        | Error (e, bt) ->
          let name = Genprog.name cls index in
          let fault =
            Fault.absorb ~stage:Fault.Worker ~subject:name
              ~recovery:Context.drop_recovery e bt
          in
          { p_bench = bench_of spec cls index; p_cls = cls;
            p_cells = Error fault; p_divergent = false })
      tasks
      (Parallel.map_results (eval_one spec) tasks)
  in
  let tables =
    List.map
      (fun cls ->
        aggregate_class cls
          (List.filter (fun r -> r.p_cls = cls) rows))
      spec.c_classes
  in
  let degraded =
    List.filter_map
      (fun r ->
        match r.p_cells with
        | Ok _ -> None
        | Error f ->
          Some
            ( r.p_bench.Suite.Bench_prog.name,
              Fault.stage_to_string f.Fault.f_stage ))
      rows
  in
  let n_divergent =
    List.length (List.filter (fun r -> r.p_divergent) rows)
  in
  let header =
    Printf.sprintf
      "Corpus: %d classes x %d programs (seed %d, size %s; intra cutoff \
       %g%%, inter cutoff %g%%)\n\n"
      (List.length spec.c_classes)
      spec.c_per_class spec.c_seed
      (Shape.size_to_string spec.c_size)
      (100.0 *. intra_cutoff) (100.0 *. inter_cutoff)
  in
  { o_rendered = header ^ String.concat "\n" tables;
    o_programs = List.length rows;
    o_degraded = degraded;
    o_divergent = n_divergent }
