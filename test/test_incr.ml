(* The incremental store's one non-negotiable: caching may change
   timings, never results. Evidence, in rough order of strength:

   1. unit facts about the content hashes — deterministic across pool
      sizes, invariant under whitespace/comment-only edits, and a
      one-function edit changes exactly that function's hash;
   2. counter-level facts — a whitespace edit re-solves nothing, a
      one-function edit re-solves exactly [kinds x 1] entries, name
      invalidation drops program-granularity entries but leaves the
      content-shared function entries warm, and the name index lists
      only resident keys;
   3. eviction under a starvation budget thrashes (evictions > 0) yet
      produces bit-identical scores, and a fixed sequence of adds,
      finds, invalidations, budget shrinks and a disk restore evicts
      exactly what a reference LRU model evicts, as do random
      sequences;
   4. a differential sweep — suite + 52 corpus programs, dense and
      sparse solver legs, each given a randomized single-function edit:
      warm incremental re-analysis must be bit-identical to a
      from-scratch analysis of the same edited source, and a warm
      re-analysis of the original, before the edit and after reverting
      it, bit-identical to the cold one;
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

(* The name index lists only resident keys: eviction prunes it, and
   [clear] and [crash_store] empty it, so it stays as small as the store
   however many names and edits a daemon has seen. Read through
   [Incr.names] directly. *)
let indexed name =
  List.sort compare
    (Option.value ~default:[] (Hashtbl.find_opt Incr.names name))

let test_name_index_bounded () =
  fresh (fun () ->
      let v1 = Incr.prog_key ~name:"names" three_fns in
      let v2 = Incr.prog_key ~name:"names" three_fns_edited in
      ignore (Incr.analyze ~name:"names" three_fns);
      ignore (Incr.analyze ~name:"names" three_fns_edited);
      Alcotest.(check (list string)) "each version indexes its program key"
        (List.sort compare [ v1; v2 ]) (indexed "names");
      (* The first version's program entry is the least recent. *)
      Incr.set_budget ((Incr.stats ()).Incr.st_bytes - 1);
      Alcotest.(check bool) "v1 evicted" false (Hashtbl.mem Incr.table v1);
      Alcotest.(check (list string)) "eviction prunes the evicted key" [ v2 ]
        (indexed "names");
      Incr.set_budget 0;
      Alcotest.(check bool) "v2 evicted" false (Hashtbl.mem Incr.table v2);
      Alcotest.(check bool) "a name with no resident key is dropped" false
        (Hashtbl.mem Incr.names "names");
      Incr.set_budget Incr.default_budget;
      let analyze_some () =
        List.iter
          (fun i ->
            ignore
              (Incr.analyze ~name:(Printf.sprintf "names-%d" i) three_fns))
          [ 1; 2; 3 ];
        Alcotest.(check int) "three names indexed" 3
          (Hashtbl.length Incr.names)
      in
      analyze_some ();
      Incr.clear ();
      Alcotest.(check int) "clear empties the index" 0
        (Hashtbl.length Incr.names);
      analyze_some ();
      Incr.crash_store ();
      Alcotest.(check int) "crash_store empties the index" 0
        (Hashtbl.length Incr.names))

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

(* --- 3b. eviction order against a reference LRU ----------------------- *)

(* A reference LRU written from the specification, not from the store:
   entries in recency order, most recent first. Eviction drops the least
   recent entry other than [keep] while the byte total exceeds the
   budget and more than one entry is resident. *)
module Lru_model = struct
  type t = {
    mutable order : (string * int) list;  (* key, bytes; most recent first *)
    mutable budget : int;
    mutable evictions : int;
  }

  let create () = { order = []; budget = Incr.default_budget; evictions = 0 }
  let bytes m = List.fold_left (fun acc (_, b) -> acc + b) 0 m.order

  let evict ?(keep = "") m =
    let rec go () =
      if bytes m > m.budget && List.length m.order > 1 then
        match List.find_opt (fun (k, _) -> k <> keep) (List.rev m.order) with
        | None -> ()
        | Some (k, _) ->
          m.order <- List.remove_assoc k m.order;
          m.evictions <- m.evictions + 1;
          go ()
    in
    go ()

  let push m k b = m.order <- (k, b) :: List.remove_assoc k m.order

  let add m k b =
    push m k b;
    evict ~keep:k m

  let find m k = Option.iter (push m k) (List.assoc_opt k m.order)
  let mem m k = List.mem_assoc k m.order
  let remove m k = m.order <- List.remove_assoc k m.order

  let set_budget m n =
    m.budget <- max 0 n;
    evict m

  let clear m = m.order <- []
end

let intra n = Incr.Intra (Array.init n float_of_int)

(* Residency is read with [Hashtbl.mem], which leaves recency alone. *)
let check_model what (m : Lru_model.t) =
  Alcotest.(check int) (what ^ ": resident count") (List.length m.order)
    (Hashtbl.length Incr.table);
  List.iter
    (fun (k, _) ->
      if not (Hashtbl.mem Incr.table k) then
        Alcotest.failf "%s: %s should be resident" what k)
    m.order;
  let st = Incr.stats () in
  Alcotest.(check int) (what ^ ": st_bytes") (Lru_model.bytes m)
    st.Incr.st_bytes;
  Alcotest.(check int) (what ^ ": st_evictions") m.Lru_model.evictions
    st.Incr.st_evictions

let test_eviction_order_pinned () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "test_incr_order_%d" (Unix.getpid ()))
  in
  let rm_dir () =
    if Sys.file_exists dir then begin
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir
    end
  in
  rm_dir ();
  Fun.protect
    ~finally:(fun () ->
      Incr.close_store ();
      rm_dir ())
    (fun () ->
      fresh (fun () ->
          let m = Lru_model.create () in
          let add k n =
            let p = intra n in
            Incr.add k p;
            Lru_model.add m k (Incr.payload_bytes p);
            check_model ("add " ^ k) m
          in
          let find k =
            let hit = Incr.find k <> None in
            Alcotest.(check bool) ("find " ^ k ^ " hits") (Lru_model.mem m k)
              hit;
            Lru_model.find m k;
            check_model ("find " ^ k) m
          in
          let set_budget n =
            Incr.set_budget n;
            Lru_model.set_budget m n;
            check_model (Printf.sprintf "set_budget %d" n) m
          in
          (* Sizes 8n + 96: 176, 256, 336, 416, 496, 576 bytes. *)
          set_budget 2000;
          add "a" 10;
          add "b" 20;
          add "c" 30;
          find "a";
          find "zz";
          add "d" 40;
          add "e" 50;
          find "b";
          add "f" 60;
          Alcotest.(check bool) "adds evicted" true (m.Lru_model.evictions > 0);
          (* A re-add of a resident key replaces its bytes and makes it
             the most recent. *)
          let resident = fst (List.nth m.Lru_model.order 2) in
          add resident 5;
          add "g" 45;
          find "a";
          find "c";
          (* Name-scoped invalidation drops the resident keys indexed
             under the name, whether or not others were evicted first. *)
          List.iter (fun k -> Incr.index_key ~name:"pin-order" k)
            [ "f"; "g"; "e" ];
          add "h" 70;
          let dropped = Incr.invalidate ~name:"pin-order" in
          let expect =
            List.filter (Lru_model.mem m) [ "f"; "g"; "e" ]
          in
          List.iter (Lru_model.remove m) expect;
          Alcotest.(check int) "invalidate count" (List.length expect) dropped;
          check_model "invalidate" m;
          add "i" 15;
          add "j" 25;
          find "h";
          set_budget 900;
          add "k" 10;
          (* A restore larger than the budget: journal order is recency
             order, and one journaled key is already resident. *)
          let journal =
            [ ("r1", 30); ("r2", 40); ("k", 35); ("r3", 20); ("r4", 50) ]
          in
          let p, _, _ = Driver.Persist.open_store dir in
          List.iter
            (fun (k, n) ->
              match intra n with
              | Incr.Intra values -> Driver.Persist.append p ~key:k values
              | Incr.Prog _ | Incr.Profiles _ -> assert false)
            journal;
          Driver.Persist.close p;
          let before = m.Lru_model.evictions in
          ignore (Incr.open_store dir);
          List.iter
            (fun (k, n) -> Lru_model.push m k (Incr.payload_bytes (intra n)))
            journal;
          Lru_model.evict m;
          check_model "open_store restore" m;
          Alcotest.(check bool) "the restore evicted" true
            (m.Lru_model.evictions > before);
          find "r4";
          find "r1";
          add "l" 20;
          set_budget 400;
          Incr.clear ();
          Lru_model.clear m;
          check_model "clear" m;
          add "m" 10))

(* --- 3c. random operation sequences against the same model ----------- *)

type op =
  | Add of int * int  (* key index, payload length *)
  | Find of int
  | Invalidate of int  (* name index *)
  | Set_budget of int
  | Clear

let n_keys = 10
let key_of i = Printf.sprintf "k%d" i

(* Even keys stand for program-granularity entries: each is indexed
   under one fixed name whenever it is added, as [analyze] indexes a
   program key under its program's name. *)
let name_of i =
  if i mod 2 = 0 then Some (Printf.sprintf "n%d" (i mod 3)) else None

(* The key indices [name] lists, by the model. *)
let model_indexed (m : Lru_model.t) (name : string) : int list =
  List.filter
    (fun j -> name_of j = Some name && Lru_model.mem m (key_of j))
    (List.init n_keys Fun.id)

let op_to_string = function
  | Add (k, n) -> Printf.sprintf "add k%d/%d" k n
  | Find k -> Printf.sprintf "find k%d" k
  | Invalidate n -> Printf.sprintf "invalidate n%d" n
  | Set_budget b -> Printf.sprintf "set_budget %d" b
  | Clear -> "clear"

let gen_ops : op list QCheck.arbitrary =
  let open QCheck.Gen in
  let key = int_bound (n_keys - 1) in
  let op =
    frequency
      [ (6, map2 (fun k n -> Add (k, n)) key (int_bound 60));
        (4, map (fun k -> Find k) key);
        (1, map (fun n -> Invalidate n) (int_bound 2));
        (2, map (fun b -> Set_budget b) (int_bound 3000));
        (1, return Clear) ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map op_to_string ops))
    (list_size (int_range 1 80) op)

(* The keys met walking the recency list from the sentinel by [step];
   at most [Hashtbl.length table + 1] steps, so a cycle that misses the
   sentinel fails instead of hanging. *)
let recency_walk (step : Incr.entry -> Incr.entry) : string list =
  let limit = Hashtbl.length Incr.table + 1 in
  let rec go (e : Incr.entry) n acc =
    if e == Incr.sentinel then List.rev acc
    else if n > limit then Alcotest.fail "recency list does not close"
    else go (step e) (n + 1) (e.Incr.key :: acc)
  in
  go (step Incr.sentinel) 0 []

let check_step (m : Lru_model.t) (op : op) =
  let what = op_to_string op in
  check_model what m;
  let resident_bytes =
    Hashtbl.fold
      (fun _ (e : Incr.entry) acc -> acc + e.Incr.bytes)
      Incr.table 0
  in
  let st = Incr.stats () in
  Alcotest.(check int) (what ^ ": st_bytes = resident bytes") resident_bytes
    st.Incr.st_bytes;
  (* Only a lone entry may exceed the budget: one just added, or the
     most recent one left by a budget shrink. *)
  if st.Incr.st_bytes > st.Incr.st_budget then
    Alcotest.(check int) (what ^ ": over budget with one entry") 1
      (Hashtbl.length Incr.table);
  (match op with
  | Add (k, _) ->
    Alcotest.(check bool) (what ^ ": just added is resident") true
      (Hashtbl.mem Incr.table (key_of k))
  | Find _ | Invalidate _ | Set_budget _ | Clear -> ());
  let walk = recency_walk (fun e -> e.Incr.next) in
  Alcotest.(check int) (what ^ ": walk length") (Hashtbl.length Incr.table)
    (List.length walk);
  Alcotest.(check (list string)) (what ^ ": recency order")
    (List.map fst m.Lru_model.order) walk;
  Alcotest.(check (list string)) (what ^ ": backward walk") (List.rev walk)
    (recency_walk (fun e -> e.Incr.prev));
  (* The name index lists exactly the resident program keys. *)
  for i = 0 to 2 do
    let name = Printf.sprintf "n%d" i in
    Alcotest.(check (list string)) (what ^ ": names " ^ name)
      (List.sort compare (List.map key_of (model_indexed m name)))
      (indexed name)
  done

let run_ops (ops : op list) : bool =
  fresh (fun () ->
      let m = Lru_model.create () in
      List.iter
        (fun op ->
          (match op with
          | Add (k, n) ->
            let p = intra n in
            Incr.add (key_of k) p;
            Option.iter
              (fun name -> Incr.index_key ~name (key_of k))
              (name_of k);
            Lru_model.add m (key_of k) (Incr.payload_bytes p)
          | Find k ->
            ignore (Incr.find (key_of k));
            Lru_model.find m (key_of k)
          | Invalidate n ->
            let name = Printf.sprintf "n%d" n in
            let expect = model_indexed m name in
            Alcotest.(check int) "invalidate count" (List.length expect)
              (Incr.invalidate ~name);
            List.iter (fun j -> Lru_model.remove m (key_of j)) expect
          | Set_budget b ->
            Incr.set_budget b;
            Lru_model.set_budget m b
          | Clear ->
            Incr.clear ();
            Lru_model.clear m);
          check_step m op)
        ops;
      true)

let prop_store_matches_model =
  QCheck.Test.make ~name:"random store operations match the LRU model"
    ~count:300 gen_ops run_ops

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
          (* cold, warm (no edit), edited, then reverted to the original:
             the store may change only timings, so the warm and reverted
             passes must equal the cold one *)
          let cold, warm, incremental, reverted =
            fresh (fun () ->
                let cold = Incr.analyze ~name source in
                let warm = Incr.analyze ~name source in
                let incremental = Incr.analyze ~name edited in
                (cold, warm, incremental, Incr.analyze ~name source))
          in
          let scratch = fresh (fun () -> Incr.analyze ~name edited) in
          Alcotest.(check bool)
            (name ^ ": warm pass reused at least the unchanged fns") true
            (incremental.Incr.an_fn_hits > 0);
          let what =
            Printf.sprintf "%s (%s solver)" name
              (Linalg.Linsolve.mode_to_string mode)
          in
          check_scores_equal what incremental.Incr.an_scores
            scratch.Incr.an_scores;
          check_scores_equal (what ^ ", warm") cold.Incr.an_scores
            warm.Incr.an_scores;
          check_scores_equal (what ^ ", reverted") cold.Incr.an_scores
            reverted.Incr.an_scores)
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
    Alcotest.test_case "name index lists only resident keys" `Quick
      test_name_index_bounded;
    Alcotest.test_case "eviction under starvation never changes scores"
      `Quick test_eviction_never_changes_scores;
    Alcotest.test_case "eviction order matches a reference LRU" `Quick
      test_eviction_order_pinned;
    QCheck_alcotest.to_alcotest prop_store_matches_model;
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
