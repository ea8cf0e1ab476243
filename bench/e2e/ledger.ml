(* The per-layer ledger of the traced run: replay a sample of the
   workload's own programs through each layer's public entry point, one
   timed span per stage, and report per-program means.

   The replay calls what [Core.Pipeline.compile] and
   [Driver.Incr.analyze] call, one stage at a time:
     cfront   Preproc.process, Lexer.tokenize, Parser.parse_tunit,
              Typecheck.check, and Pipeline.fn_hash (the Fnhash digest)
     cfg_ir   Build.build, Callgraph.build
     core     Pipeline.intra_freqs_fn for each intra kind, then
              Markov_inter.estimate on the smart estimate
     cinterp  Compile.compile, then Compile.run on each profiling input
   and then, as cross-checks, Pipeline.compile whole (the cfront and
   cfg_ir parse-to-callgraph stages must add up to it) and a cold
   Incr.analyze (its time beyond the stages it replays is the store's
   own cost: keys, lookups, scoring).

   Shares are of the stages the workload's own path runs: every path
   runs cfront, cfg_ir and core; only the suite profiles, so cinterp
   counts towards the total only there. *)

module Pipeline = Core.Pipeline

type sample = { prog : Programs.program; runs : Pipeline.run list }

(* The first [n] of [progs], with the generator's profiling inputs. *)
let corpus_sample (progs : Programs.program array) (n : int) : sample list =
  Array.to_list (Array.sub progs 0 (min n (Array.length progs)))
  |> List.map (fun prog -> { prog; runs = Programs.corpus_runs })

let defines = [ ("NULL", "0"); ("EOF", "(-1)") ]

let run ?(rounds = 1) ~(profiles_on_path : bool) (sample : sample list) : (string * float) list =
  let totals : (string, float * int) Hashtbl.t = Hashtbl.create 32 in
  let add name v =
    let t, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt totals name) in
    Hashtbl.replace totals name (t +. v, n + 1)
  in
  let stage name f =
    let t0 = Workload.now_ns () in
    let v = Tracer.with_span name f in
    add name (Workload.ms_since t0);
    v
  in
  (* Start from a compacted heap, so collection work left over from the
     workload's loop is not charged to whichever stage runs into it. *)
  Gc.compact ();
  List.iteri
    (fun i { prog = { Programs.name; source }; runs } ->
      Tracer.with_span ~req:i "ledger.program" (fun () ->
          let file = name ^ ".c" in
          let staged () =
            let pre = stage "cfront.preproc" (fun () -> Cfront.Preproc.process ~defines source) in
            let toks = stage "cfront.lexer" (fun () -> Cfront.Lexer.tokenize ~file pre) in
            let tunit = stage "cfront.parser" (fun () -> Cfront.Parser.parse_tunit ~file toks) in
            let tc = stage "cfront.typecheck" (fun () -> Cfront.Typecheck.check tunit) in
            let cfg = stage "cfg_ir.build" (fun () -> Cfg_ir.Build.build tc) in
            ignore (stage "cfg_ir.callgraph" (fun () -> Cfg_ir.Callgraph.build cfg));
            add "cfront.tokens" (float_of_int (List.length toks));
            add "cfront.ast_nodes" (float_of_int tunit.Cfront.Ast.node_count);
            add "cfg_ir.blocks"
              (float_of_int
                 (List.fold_left
                    (fun n (fn : Cfg_ir.Cfg.fn) -> n + Array.length fn.Cfg_ir.Cfg.fn_blocks)
                    0 cfg.Cfg_ir.Cfg.prog_fns))
          in
          let compile () = stage "core.compile" (fun () -> Pipeline.compile ~name source) in
          let c = ref None in
          for round = 1 to rounds do
            (* Alternate which of the two goes first, so neither always
               finds the other's work warm in the caches. *)
            if (i + round) mod 2 = 0 then begin
              staged ();
              c := Some (compile ())
            end
            else begin
              c := Some (compile ());
              staged ()
            end;
            let c = Option.get !c in
            let fns = c.Pipeline.prog.Cfg_ir.Cfg.prog_fns in
            stage "cfront.fnhash" (fun () ->
                List.iter (fun fn -> ignore (Pipeline.fn_hash c fn)) fns);
            let smart = ref [] in
            List.iter
              (fun kind ->
                let tbl =
                  stage ("core.intra." ^ Pipeline.intra_kind_to_string kind) (fun () ->
                      List.map
                        (fun fn -> (fn.Cfg_ir.Cfg.fn_name, Pipeline.intra_freqs_fn c kind fn))
                        fns)
                in
                if kind = Pipeline.Ismart then smart := tbl)
              Pipeline.all_intra_kinds;
            ignore
              (stage "core.inter" (fun () ->
                   Core.Markov_inter.estimate ~inject_key:name c.Pipeline.graph
                     ~intra:(fun f -> List.assoc f !smart)));
            Driver.Incr.clear ();
            ignore (stage "incr.analyze" (fun () -> Driver.Incr.analyze ~name source))
          done;
          let c = Option.get !c in
          let exe =
            stage "cinterp.closure_compile" (fun () -> Cinterp.Compile.compile c.Pipeline.prog)
          in
          let work = ref 0.0 in
          stage "cinterp.run" (fun () ->
              List.iter
                (fun (r : Pipeline.run) ->
                  let o = Cinterp.Compile.run ~argv:r.Pipeline.argv ~input:r.Pipeline.input exe in
                  work := !work +. o.Cinterp.Eval.work)
                runs);
          add "cinterp.work_units" !work))
    sample;
  Driver.Incr.clear ();
  let mean name =
    match Hashtbl.find_opt totals name with
    | Some (t, n) -> t /. float_of_int n
    | None -> 0.0
  in
  let sum names = List.fold_left (fun acc s -> acc +. mean s) 0.0 names in
  let intra =
    List.map (fun k -> "core.intra." ^ Pipeline.intra_kind_to_string k) Pipeline.all_intra_kinds
  in
  let front = [ "cfront.preproc"; "cfront.lexer"; "cfront.parser"; "cfront.typecheck" ] in
  let cfront = sum (front @ [ "cfront.fnhash" ]) in
  let cfg_ir = sum [ "cfg_ir.build"; "cfg_ir.callgraph" ] in
  let core = sum (intra @ [ "core.inter" ]) in
  let cinterp = sum [ "cinterp.closure_compile"; "cinterp.run" ] in
  let path = cfront +. cfg_ir +. core +. if profiles_on_path then cinterp else 0.0 in
  let share x = 100.0 *. x /. path in
  let replayed = cfront +. cfg_ir +. core in
  let compile = mean "core.compile" in
  let parse_to_callgraph = sum (front @ [ "cfg_ir.build"; "cfg_ir.callgraph" ]) in
  let ms name = (name ^ ".ms", mean name) in
  List.map ms front
  @ [ ms "cfront.fnhash";
      ("cfront.tokens", mean "cfront.tokens");
      ("cfront.ast_nodes", mean "cfront.ast_nodes");
      ("cfront.share", share cfront);
      ms "cfg_ir.build"; ms "cfg_ir.callgraph";
      ("cfg_ir.blocks", mean "cfg_ir.blocks");
      ("cfg_ir.share", share cfg_ir) ]
  @ List.map ms intra
  @ [ ms "core.inter";
      ms "core.compile";
      ("core.share", share core);
      ms "cinterp.closure_compile"; ms "cinterp.run";
      ("cinterp.work_units", mean "cinterp.work_units");
      ("cinterp.work_units_per_s",
       mean "cinterp.work_units" /. (mean "cinterp.run" /. 1000.0));
      ("cinterp.share", if profiles_on_path then share cinterp else 0.0);
      ms "incr.analyze";
      ("incr.self.ms", mean "incr.analyze" -. replayed);
      ("trace.stage_sum_gap_pct", 100.0 *. Float.abs (parse_to_callgraph -. compile) /. compile) ]
