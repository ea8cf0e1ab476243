(* The incremental store's one non-negotiable: caching may change
   timings, never results. Evidence, in rough order of strength:

   1. unit facts about the content hashes — deterministic across pool
      sizes, invariant under whitespace/comment-only edits, and a
      one-function edit changes exactly that function's hash;
   2. counter-level facts — a whitespace edit re-solves nothing, a
      one-function edit re-solves exactly [kinds x 1] entries, name
      invalidation drops program-granularity entries but leaves the
      content-shared function entries warm;
   3. eviction under a starvation budget thrashes (evictions > 0) yet
      produces bit-identical scores;
   4. a differential sweep — suite + 50 corpus programs, dense and
      sparse solver legs, each given a randomized single-function edit:
      warm incremental re-analysis must be bit-identical to a
      from-scratch analysis of the same edited source;
   5. the byte gauge follows every store mutation;
   6. every entry point (suite, corpus, serve) gives a program the same
      profiles and inter estimates. *)

module Incr = Driver.Incr
module Parallel = Driver.Parallel
module Score = Driver.Score

let with_jobs (n : int) (f : unit -> 'a) : 'a =
  Parallel.set_jobs n;
  Fun.protect ~finally:(fun () -> Parallel.set_jobs 1) f

(* Every test starts from an empty store and leaves the default budget
   behind, so ordering inside the alcotest binary cannot matter. *)
let fresh (f : unit -> 'a) : 'a =
  Incr.clear ();
  Incr.reset_stats ();
  Incr.set_budget Incr.default_budget;
  Fun.protect
    ~finally:(fun () ->
      Incr.clear ();
      Incr.set_budget Incr.default_budget)
    f

let three_fns =
  {|
int leaf(int x) { return x * 3 + 1; }
int mid(int x) {
  int i; int acc;
  acc = 0;
  for (i = 0; i < x; i = i + 1) acc = acc + leaf(i);
  return acc;
}
int main() { return mid(10); }
|}

(* Same token stream as [three_fns]: only layout and comments differ. *)
let three_fns_ws =
  {|/* comment-only edit: the token stream is untouched */
int leaf(int x) { return x * 3 + 1; }

int mid(int x) {
  int i;   int acc;
  acc = 0; /* reset */
  for (i = 0; i < x; i = i + 1)
    acc = acc + leaf(i);
  return acc;
}
int main() {
  return mid(10);
}
|}

(* [leaf]'s body changes (3 -> 4); [mid] and [main] are untouched. *)
let three_fns_edited =
  {|
int leaf(int x) { return x * 4 + 1; }
int mid(int x) {
  int i; int acc;
  acc = 0;
  for (i = 0; i < x; i = i + 1) acc = acc + leaf(i);
  return acc;
}
int main() { return mid(10); }
|}

let n_kinds = List.length Core.Pipeline.all_intra_kinds

let check_scores_equal what (a : Score.t list) (b : Score.t list) =
  Alcotest.(check int) (what ^ ": same score count") (List.length a)
    (List.length b);
  List.iter2
    (fun (x : Score.t) (y : Score.t) ->
      if compare x y <> 0 then
        Alcotest.failf "%s: score diverged: %s/%s %.17g vs %.17g" what
          x.Score.s_estimator
          (Score.metric_to_string x.Score.s_metric)
          x.Score.s_value y.Score.s_value)
    a b

(* --- 1. hash facts --------------------------------------------------- *)

let test_hash_deterministic_across_jobs () =
  let hashes_at jobs =
    with_jobs jobs (fun () ->
        fresh (fun () ->
            (Incr.analyze ~name:"det" three_fns).Incr.an_fn_hashes))
  in
  let h1 = hashes_at 1 and h4 = hashes_at 4 in
  Alcotest.(check (list (pair string string)))
    "fn hashes identical at --jobs 1 and --jobs 4" h1 h4

let test_hash_whitespace_invariant () =
  fresh (fun () ->
      let a = Incr.analyze ~name:"ws" three_fns in
      let b = Incr.analyze ~name:"ws" three_fns_ws in
      Alcotest.(check (list (pair string string)))
        "whitespace/comment-only edit keeps every fn hash"
        a.Incr.an_fn_hashes b.Incr.an_fn_hashes;
      (* The source digest differs, so the compiled program is rebuilt
         (a program-granularity miss) — but nothing is re-solved. *)
      Alcotest.(check bool) "reparse, not a program cache hit" false
        b.Incr.an_program_hit;
      Alcotest.(check int) "zero intra recomputations" 0 b.Incr.an_fn_misses;
      Alcotest.(check int) "every fn x kind served from the store"
        (n_kinds * List.length a.Incr.an_fn_hashes)
        b.Incr.an_fn_hits;
      check_scores_equal "whitespace edit" a.Incr.an_scores
        b.Incr.an_scores)

let test_single_edit_changes_one_hash () =
  fresh (fun () ->
      let a = Incr.analyze ~name:"edit" three_fns in
      let b = Incr.analyze ~name:"edit" three_fns_edited in
      let changed =
        List.filter
          (fun (fn, h) -> List.assoc_opt fn a.Incr.an_fn_hashes <> Some h)
          b.Incr.an_fn_hashes
      in
      Alcotest.(check (list string))
        "exactly the edited function re-hashes" [ "leaf" ]
        (List.map fst changed);
      (* Callers of [leaf] keep their hashes: a callee's *body* is not
         part of the caller's key (only its type signature is), and the
         inter-procedural fixpoint is recomputed every analysis. *)
      Alcotest.(check int) "one fn x every kind recomputed" n_kinds
        b.Incr.an_fn_misses;
      Alcotest.(check int) "the other two fns hit"
        (n_kinds * 2) b.Incr.an_fn_hits)

(* --- 2. invalidation semantics --------------------------------------- *)

let test_invalidate_name_scope () =
  fresh (fun () ->
      let _ = Incr.analyze ~name:"inv" three_fns in
      let dropped = Incr.invalidate ~name:"inv" in
      Alcotest.(check bool) "invalidate drops program-granularity entries"
        true (dropped > 0);
      let b = Incr.analyze ~name:"inv" three_fns in
      Alcotest.(check bool) "compiled program was dropped" false
        b.Incr.an_program_hit;
      Alcotest.(check int)
        "content-shared fn entries survive name invalidation" 0
        b.Incr.an_fn_misses)

(* --- 3. eviction under starvation ------------------------------------ *)

let test_eviction_never_changes_scores () =
  let programs =
    List.init 6 (fun i ->
        ( Printf.sprintf "evict_%d" i,
          Corpus.Genprog.generate ~seed:7 ~cls:Corpus.Shape.Branchy
            ~size:Corpus.Shape.small ~index:i ))
  in
  let reference =
    fresh (fun () ->
        List.map
          (fun (name, src) -> (Incr.analyze ~name src).Incr.an_scores)
          programs)
  in
  fresh (fun () ->
      (* A budget far below one program's footprint: every insert evicts
         something, and warm passes keep missing. *)
      Incr.set_budget 2048;
      let starved =
        List.concat_map
          (fun _ ->
            List.map
              (fun (name, src) -> (Incr.analyze ~name src).Incr.an_scores)
              programs)
          [ (); () ]
      in
      let st = Incr.stats () in
      Alcotest.(check bool) "the starved store actually evicted" true
        (st.Incr.st_evictions > 0);
      Alcotest.(check bool) "bytes stay under the starvation budget" true
        (st.Incr.st_bytes <= 2048);
      List.iteri
        (fun i scores ->
          check_scores_equal
            (Printf.sprintf "starved pass, program %d" (i mod 6))
            (List.nth reference (i mod 6))
            scores)
        starved)

(* --- 4. differential: incremental == from-scratch -------------------- *)

(* A randomized single-function edit that is textually safe for any
   program in the supported subset: append a fresh probe function whose
   body depends on the draw. The edited source is analyzed twice — warm
   (incrementally, over a store primed with the original) and cold
   (from scratch) — and must agree bit-for-bit. *)
let probe_edit rng source =
  let k = 1 + Random.State.int rng 1000 in
  source
  ^ Printf.sprintf "\nint __incr_probe(int x) { return x * %d + %d; }\n" k
      (Random.State.int rng 100)

let differential_leg (mode : Linalg.Linsolve.mode) () =
  let saved = !Linalg.Linsolve.solver_mode in
  Linalg.Linsolve.solver_mode := mode;
  Fun.protect
    ~finally:(fun () -> Linalg.Linsolve.solver_mode := saved)
    (fun () ->
      let rng = Random.State.make [| 0x1CC; 42 |] in
      let corpus =
        List.concat_map
          (fun cls ->
            List.init 13 (fun index ->
                ( Printf.sprintf "diff_%s_%02d"
                    (Corpus.Shape.class_to_string cls)
                    index,
                  Corpus.Genprog.generate ~seed:3 ~cls
                    ~size:Corpus.Shape.small ~index )))
          Corpus.Shape.all_classes
      in
      let suite =
        List.map
          (fun (p : Suite.Bench_prog.t) ->
            (p.Suite.Bench_prog.name, p.Suite.Bench_prog.source))
          Suite.Registry.all
      in
      (* 16 suite + 4 x 13 = 52 corpus programs. *)
      List.iter
        (fun (name, source) ->
          let edited = probe_edit rng source in
          let incremental =
            fresh (fun () ->
                let _ = Incr.analyze ~name source in
                Incr.analyze ~name edited)
          in
          let scratch = fresh (fun () -> Incr.analyze ~name edited) in
          Alcotest.(check bool)
            (name ^ ": warm pass reused at least the unchanged fns") true
            (incremental.Incr.an_fn_hits > 0);
          check_scores_equal
            (Printf.sprintf "%s (%s solver)" name
               (Linalg.Linsolve.mode_to_string mode))
            incremental.Incr.an_scores scratch.Incr.an_scores)
        (suite @ corpus))

(* --- 5. the incr.bytes gauge tracks resident bytes ------------------- *)

(* Every path that mutates the store's byte count — insert, invalidate,
   budget shrink (eviction), clear, crash, disk restore — must leave the
   [incr.bytes] gauge equal to [stats ()].st_bytes, or dashboards built
   on the probe silently drift from reality. *)
let check_gauge what =
  let st = Incr.stats () in
  match Obs.Probe.gauge "incr.bytes" with
  | None -> Alcotest.failf "%s: incr.bytes gauge never published" what
  | Some g ->
    Alcotest.(check (float 0.0))
      (what ^ ": incr.bytes gauge == stats bytes")
      (float_of_int st.Incr.st_bytes)
      g

let test_bytes_gauge_pinned () =
  let was_enabled = Obs.Probe.enabled () in
  Obs.Probe.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Incr.close_store ();
      Obs.Probe.set_enabled was_enabled;
      Obs.Probe.reset ())
    (fun () ->
      fresh (fun () ->
          let _ = Incr.analyze ~name:"gauge-a" three_fns in
          check_gauge "after insert";
          let _ = Incr.analyze ~name:"gauge-b" three_fns_edited in
          check_gauge "after second insert";
          ignore (Incr.invalidate ~name:"gauge-a");
          check_gauge "after invalidate";
          (* shrink the budget below residency: eviction must fire and
             the gauge must follow the bytes down *)
          let before = (Incr.stats ()).Incr.st_bytes in
          Incr.set_budget (before / 4);
          check_gauge "after budget shrink";
          Alcotest.(check bool) "the shrink actually evicted" true
            ((Incr.stats ()).Incr.st_bytes < before);
          Incr.clear ();
          check_gauge "after clear";
          (* a disk restore publishes the restored residency *)
          let dir =
            Filename.concat
              (Filename.get_temp_dir_name ())
              (Printf.sprintf "test_incr_gauge_%d" (Unix.getpid ()))
          in
          ignore (Incr.open_store dir);
          let _ = Incr.analyze ~name:"gauge-a" three_fns in
          Incr.crash_store ();
          check_gauge "after crash";
          ignore (Incr.open_store dir);
          check_gauge "after restore";
          Alcotest.(check bool) "the restore repopulated bytes" true
            ((Incr.stats ()).Incr.st_bytes > 0);
          Incr.close_store ();
          Array.iter
            (fun f -> try Sys.remove (Filename.concat dir f) with _ -> ())
            (Sys.readdir dir);
          (try Unix.rmdir dir with _ -> ())))

(* --- 6. every path gives the same numbers ------------------------------ *)

(* The suite ([Context.by_name]), the corpus (the same stages, uncached,
   under the corpus fuel budget) and serve ([Incr.analyze ~runs]) must
   agree on a program's profiles, byte for byte through [Profile.save],
   and on its Markov-inter invocation vector. *)
module Context = Driver.Context
module Pipeline = Core.Pipeline

let check_same_numbers ~(name : string) (d : Context.prog_data) =
  let b = d.Context.bench in
  let a =
    Incr.analyze ~name ~runs:(List.map Context.pipeline_run b.Suite.Bench_prog.runs)
      b.Suite.Bench_prog.source
  in
  Alcotest.(check (list string))
    (name ^ ": profiles byte-identical")
    (List.map Cinterp.Profile.save d.Context.profiles)
    (List.map Cinterp.Profile.save a.Incr.an_profiles);
  let c = d.Context.compiled in
  Alcotest.(check (array (float 0.0)))
    (name ^ ": markov inter identical")
    (Pipeline.inter_estimate c
       ~intra:(Driver.Experiments.smart_intra d)
       Pipeline.Imarkov_inter)
    (Array.of_list (List.map snd a.Incr.an_inter))

let test_every_path_same_numbers () =
  Context.clear ();
  fresh (fun () ->
      List.iter
        (fun (b : Suite.Bench_prog.t) ->
          let name = b.Suite.Bench_prog.name in
          check_same_numbers ~name (Context.by_name name))
        Suite.Registry.all;
      let spec = Driver.Corpus_eval.default_spec in
      List.iter
        (fun cls ->
          for index = 0 to 1 do
            let bench = Driver.Corpus_eval.bench_of spec cls index in
            let compiled = Context.compile_stage bench in
            let profiles =
              List.mapi
                (fun i r ->
                  fst
                    (Context.profile_stage
                       ~fuel:Driver.Corpus_eval.corpus_fuel compiled i
                       (Context.pipeline_run r)))
                bench.Suite.Bench_prog.runs
            in
            check_same_numbers ~name:bench.Suite.Bench_prog.name
              { Context.bench; compiled; profiles }
          done)
        spec.Driver.Corpus_eval.c_classes)

let suite =
  [ Alcotest.test_case "fn hashes are pool-size independent" `Quick
      test_hash_deterministic_across_jobs;
    Alcotest.test_case "whitespace/comment edits re-solve nothing" `Quick
      test_hash_whitespace_invariant;
    Alcotest.test_case "a one-function edit re-solves one function" `Quick
      test_single_edit_changes_one_hash;
    Alcotest.test_case "invalidate is name-scoped, fn entries survive"
      `Quick test_invalidate_name_scope;
    Alcotest.test_case "eviction under starvation never changes scores"
      `Quick test_eviction_never_changes_scores;
    Alcotest.test_case "incr.bytes gauge tracks every mutation" `Quick
      test_bytes_gauge_pinned;
    Alcotest.test_case "suite, corpus and serve give the same numbers" `Slow
      test_every_path_same_numbers;
    Alcotest.test_case "incremental == scratch after random edit (dense)"
      `Slow
      (differential_leg Linalg.Linsolve.Dense);
    Alcotest.test_case "incremental == scratch after random edit (sparse)"
      `Slow
      (differential_leg Linalg.Linsolve.Sparse) ]
