(* Pipeline and protocol tests: profile aggregation, cross-validation,
   intra scoring weights, the cost model, and the experiment registry. *)

module Pipeline = Core.Pipeline
module Profile = Cinterp.Profile
module Cfg = Cfg_ir.Cfg

let simple_src =
  {|
int hot(int n) { int i, s = 0; for (i = 0; i < n; i++) s += i; return s; }
int cold(int n) { return n * 2; }
int main(int argc, char **argv) {
  int reps = atoi(argv[1]), i, s = 0;
  for (i = 0; i < reps; i++) s += hot(20);
  s += cold(1);
  printf("%d", s);
  return 0;
}
|}

let compiled = lazy (Pipeline.compile ~name:"t" simple_src)

let profile reps =
  (Pipeline.run_once (Lazy.force compiled)
     { Pipeline.argv = [ string_of_int reps ]; input = "" })
    .Cinterp.Eval.profile

let test_aggregate_normalizes () =
  let c = Lazy.force compiled in
  let p1 = profile 2 and p2 = profile 20 in
  let agg = Profile.aggregate c.Pipeline.prog [ p1; p2 ] in
  (* the aggregate total is the mean of the input totals, times 2 inputs *)
  let t1 = Profile.total_blocks p1 and t2 = Profile.total_blocks p2 in
  let target = (t1 +. t2) /. 2.0 in
  Alcotest.(check (float 1.0)) "aggregate total" (2.0 *. target)
    (Profile.total_blocks agg);
  (* normalization: the small profile contributes as much as the large
     one, so the aggregate ratio hot/cold sits between the two runs' *)
  let hot = Option.get (Cfg.find_fn c.Pipeline.prog "hot") in
  let r1 = Profile.invocations p1 hot /. t1 in
  let r2 = Profile.invocations p2 hot /. t2 in
  let ra = Profile.invocations agg hot /. Profile.total_blocks agg in
  Alcotest.(check bool) "between" true
    (ra >= min r1 r2 -. 1e-9 && ra <= max r1 r2 +. 1e-9)

let test_mean_over_profiles () =
  let c = Lazy.force compiled in
  let profiles = [ profile 2; profile 5 ] in
  let calls = ref 0 in
  let v =
    Pipeline.mean_over_profiles profiles (fun _ ->
        incr calls;
        float_of_int !calls)
  in
  ignore c;
  Alcotest.(check int) "visits each profile" 2 !calls;
  Alcotest.(check (float 1e-9)) "mean" 1.5 v

let test_cross_profile_protocol () =
  let c = Lazy.force compiled in
  let profiles = [ profile 2; profile 5; profile 9 ] in
  let seen = ref [] in
  let _ =
    Pipeline.cross_profile_mean c profiles (fun ~train ~eval_p ->
        (* the training aggregate must not be the eval profile *)
        Alcotest.(check bool) "train <> eval" true (train != eval_p);
        seen := Profile.total_blocks eval_p :: !seen;
        1.0)
  in
  Alcotest.(check int) "each profile evaluated once" 3 (List.length !seen)

let test_intra_score_weighting () =
  (* a function never invoked must not affect the score *)
  let c = Lazy.force compiled in
  let p = profile 3 in
  let perfect name = Profile.block_counts p name in
  let s = Pipeline.intra_score c ~estimate:perfect p ~cutoff:0.25 in
  Alcotest.(check (float 1e-9)) "self-estimate scores 1" 1.0 s

let test_inter_actual_order () =
  let c = Lazy.force compiled in
  let p = profile 4 in
  let actual = Pipeline.inter_actual c p in
  let names = c.Pipeline.graph.Cfg_ir.Callgraph.names in
  let find name =
    let rec go i = if names.(i) = name then actual.(i) else go (i + 1) in
    go 0
  in
  Alcotest.(check (float 1e-9)) "main once" 1.0 (find "main");
  Alcotest.(check (float 1e-9)) "hot 4x" 4.0 (find "hot");
  Alcotest.(check (float 1e-9)) "cold once" 1.0 (find "cold")

let test_modelled_time () =
  let c = Lazy.force compiled in
  let p = profile 5 in
  let base = Pipeline.modelled_time c p ~optimized:[] in
  let all =
    List.map (fun fn -> fn.Cfg.fn_name) c.Pipeline.prog.Cfg.prog_fns
  in
  let full = Pipeline.modelled_time c p ~optimized:all in
  Alcotest.(check (float 1e-6)) "halving everything halves the time"
    (base /. 2.0) full;
  (* optimizing a subset lands strictly in between *)
  let some = Pipeline.modelled_time c p ~optimized:[ "hot" ] in
  Alcotest.(check bool) "monotone" true (full < some && some < base);
  (* optimizing the hot function beats optimizing the cold one *)
  let cold = Pipeline.modelled_time c p ~optimized:[ "cold" ] in
  Alcotest.(check bool) "hot is the better pick" true (some < cold)

let test_experiment_registry () =
  Alcotest.(check int) "seventeen experiments" 17
    (List.length Driver.Experiments.all);
  List.iter
    (fun (id, _, _) ->
      Alcotest.(check bool)
        (id ^ " resolvable") true
        (Driver.Experiments.find id <> None))
    Driver.Experiments.all;
  Alcotest.(check bool) "unknown id" true
    (Driver.Experiments.find "fig99" = None)

let test_worked_example_experiments () =
  (* the three experiments that do not need the whole suite *)
  List.iter
    (fun id ->
      let f = Option.get (Driver.Experiments.find id) in
      let text = f () in
      Alcotest.(check bool) (id ^ " non-empty") true (String.length text > 100))
    [ "table2"; "fig3"; "fig6_7" ]

(* The front end's observable output over the suite and a fixed corpus
   sample, folded into one digest: per program the token count, the AST
   node count, every function's content hash and the address-taken
   census. Rewrites of the lexer, parser, [Fnhash] or call graph that
   claim to change nothing must keep this constant. *)
let front_end_digest () =
  let buf = Buffer.create 65536 in
  let add_program name source =
    let pre = Cfront.Preproc.process ~defines:[ ("NULL", "0"); ("EOF", "(-1)") ] source in
    let tokens = List.length (Cfront.Lexer.tokenize ~file:(name ^ ".c") pre) in
    let c = Pipeline.compile ~name source in
    Printf.bprintf buf "%s tokens=%d nodes=%d\n" name tokens
      c.Pipeline.tc.Cfront.Typecheck.tunit.Cfront.Ast.node_count;
    List.iter
      (fun fn -> Printf.bprintf buf " %s=%s\n" fn.Cfg.fn_name (Pipeline.fn_hash c fn))
      c.Pipeline.prog.Cfg.prog_fns;
    List.iter
      (fun (f, n) -> Printf.bprintf buf " &%s=%d\n" f n)
      (Cfg_ir.Callgraph.address_taken_list c.Pipeline.graph)
  in
  List.iter
    (fun (p : Suite.Bench_prog.t) ->
      add_program p.Suite.Bench_prog.name p.Suite.Bench_prog.source)
    Suite.Registry.all;
  let classes = Array.of_list Corpus.Shape.all_classes in
  for seed = 1 to 3 do
    for k = 0 to 39 do
      let cls = classes.(k mod Array.length classes) in
      let index = k / Array.length classes in
      let size = if index mod 2 = 0 then Corpus.Shape.medium else Corpus.Shape.large in
      add_program
        (Printf.sprintf "%s.s%d" (Corpus.Genprog.name cls index) seed)
        (Corpus.Genprog.generate ~seed ~cls ~size ~index)
    done
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_fnhash_digits () =
  let samples =
    [ 0; 1; 9; 10; 11; 99; 100; 101; 1_000_000; -1; -9; -10; -11; -100;
      max_int; max_int - 1; min_int; min_int + 1 ]
  in
  let rng = Random.State.make [| 42 |] in
  let randoms = List.init 200 (fun _ -> Random.State.bits rng - (1 lsl 29)) in
  List.iter
    (fun i ->
      let s = String.make (abs (i mod 1000)) 'x' in
      let b = Buffer.create 32 in
      Cfront.Fnhash.add_int b i;
      Cfront.Fnhash.add_str b s;
      Alcotest.(check string)
        (string_of_int i)
        (string_of_int i ^ ";" ^ string_of_int (String.length s) ^ ":" ^ s)
        (Buffer.contents b))
    (samples @ randoms)

let test_front_end_pin () =
  Alcotest.(check string)
    "front-end digest" "785dcd87c4d16fc5e5fd1b41e1ec3cc7" (front_end_digest ())

let suite =
  [ Alcotest.test_case "aggregate normalizes" `Quick test_aggregate_normalizes;
    Alcotest.test_case "mean over profiles" `Quick test_mean_over_profiles;
    Alcotest.test_case "cross-validation protocol" `Quick
      test_cross_profile_protocol;
    Alcotest.test_case "intra score weighting" `Quick
      test_intra_score_weighting;
    Alcotest.test_case "inter actuals" `Quick test_inter_actual_order;
    Alcotest.test_case "modelled time" `Quick test_modelled_time;
    Alcotest.test_case "experiment registry" `Quick test_experiment_registry;
    Alcotest.test_case "worked-example experiments" `Quick
      test_worked_example_experiments;
    Alcotest.test_case "fnhash digits" `Quick test_fnhash_digits;
    Alcotest.test_case "front-end output pinned" `Quick test_front_end_pin ]
