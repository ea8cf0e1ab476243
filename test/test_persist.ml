(* Crash safety of the durable store, from the file format up:

   1. format facts — entries round-trip bit-exactly (including
      non-finite floats), snapshot + journal merge with the journal
      winning, a leftover snapshot.tmp is garbage-collected, and a
      version bump self-invalidates the file instead of misreading it;
   2. the torn-tail contract — for *any* byte-length truncation of a
      valid journal, loading succeeds, yields exactly the longest
      decodable prefix of entries, and leaves the file appendable;
   3. the recovery contract one level up — populate a store through
      [Incr.analyze], crash it ([Incr.crash_store] drops every
      in-memory structure like kill -9 would), mutilate the journal at
      a random offset, reopen and re-analyze: scores must be
      bit-identical to a cold run, on the dense and sparse solver legs
      both — restored entries may only ever save work, never change
      results;
   4. a kill -9 mid-snapshot smoke test: a half-written snapshot.tmp
      next to live files is ignored and removed. *)

module Persist = Driver.Persist
module Incr = Driver.Incr

let dir_counter = ref 0

let with_store_dir (f : string -> 'a) : 'a =
  incr dir_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "test_persist_%d_%d" (Unix.getpid ()) !dir_counter)
  in
  let rec rm_rf path =
    match Sys.is_directory path with
    | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    | false -> Sys.remove path
    | exception Sys_error _ -> ()
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let float_bits_eq a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* polymorphic [=] is useless here: NaN <> NaN *)
let entries_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (k1, v1) (k2, v2) ->
         String.equal k1 k2
         && Array.length v1 = Array.length v2
         && Array.for_all2 float_bits_eq v1 v2)
       a b

let entry_testable =
  Alcotest.testable
    (fun fmt (k, vs) ->
      Format.fprintf fmt "%s:[%s]" k
        (String.concat ";"
           (Array.to_list (Array.map string_of_float vs))))
    (fun (k1, v1) (k2, v2) ->
      String.equal k1 k2
      && Array.length v1 = Array.length v2
      && Array.for_all2 float_bits_eq v1 v2)

let sample_entries =
  [ ("alpha", [| 1.5; -2.25; 0.0 |]);
    ("beta/with|separators", [| Float.infinity; Float.neg_infinity; Float.nan |]);
    ("gamma", [||]);
    ("delta", Array.init 64 (fun i -> float_of_int i *. 0.125)) ]

(* --- 1. format facts ------------------------------------------------- *)

let test_roundtrip () =
  with_store_dir (fun dir ->
      let t, loaded, truncated = Persist.open_store dir in
      Alcotest.(check bool) "fresh store loads empty" true (loaded = []);
      Alcotest.(check bool) "fresh store is not truncated" false truncated;
      List.iter (fun (k, vs) -> Persist.append t ~key:k vs) sample_entries;
      Persist.close t;
      let t2, loaded2, truncated2 = Persist.open_store dir in
      Persist.close t2;
      Alcotest.(check bool) "reload is not truncated" false truncated2;
      Alcotest.(check (list entry_testable))
        "entries round-trip bit-exactly (incl. nan/inf)" sample_entries
        loaded2)

let test_snapshot_merge () =
  with_store_dir (fun dir ->
      let t, _, _ = Persist.open_store dir in
      Persist.append t ~key:"old" [| 1.0 |];
      Persist.append t ~key:"both" [| 2.0 |];
      Persist.snapshot t [ ("old", [| 1.0 |]); ("both", [| 2.0 |]) ];
      Alcotest.(check int) "snapshot resets the journal" 0
        (Persist.journal_entries t);
      Persist.append t ~key:"both" [| 3.0 |];
      Persist.append t ~key:"new" [| 4.0 |];
      Persist.close t;
      let t2, loaded, truncated = Persist.open_store dir in
      Persist.close t2;
      Alcotest.(check bool) "merge is not truncated" false truncated;
      let find k = List.assoc k loaded in
      Alcotest.(check int) "three distinct keys survive" 3
        (List.length loaded);
      Alcotest.(check (float 0.0)) "snapshot-only key" 1.0 (find "old").(0);
      Alcotest.(check (float 0.0)) "journal wins a shared key" 3.0
        (find "both").(0);
      Alcotest.(check (float 0.0)) "journal-only key" 4.0 (find "new").(0))

let test_stale_tmp_ignored () =
  with_store_dir (fun dir ->
      let t, _, _ = Persist.open_store dir in
      Persist.append t ~key:"k" [| 7.0 |];
      Persist.close t;
      (* kill -9 mid-snapshot: a half-written temp file survives *)
      let tmp = Filename.concat dir "snapshot.bin.tmp" in
      let oc = open_out_bin tmp in
      output_string oc "ESTSTOREgarbage-that-is-not-a-valid-snapshot";
      close_out oc;
      let t2, loaded, truncated = Persist.open_store dir in
      Persist.close t2;
      Alcotest.(check bool) "load is clean despite the tmp file" false
        truncated;
      Alcotest.(check (list entry_testable))
        "journal entries load" [ ("k", [| 7.0 |]) ] loaded;
      Alcotest.(check bool) "the stale tmp file was removed" false
        (Sys.file_exists tmp))

let patch_byte (path : string) (off : int) (f : char -> char) : unit =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let b = Bytes.of_string s in
  Bytes.set b off (f (Bytes.get b off));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let test_version_bump_self_invalidates () =
  with_store_dir (fun dir ->
      let t, _, _ = Persist.open_store dir in
      List.iter (fun (k, vs) -> Persist.append t ~key:k vs) sample_entries;
      Persist.close t;
      (* bump the format version byte in the header (magic is 8 bytes,
         the little-endian u32 version follows) *)
      patch_byte (Filename.concat dir "journal.bin") 8 (fun c ->
          Char.chr ((Char.code c + 1) land 0xff));
      let t2, loaded, truncated = Persist.open_store dir in
      Alcotest.(check bool) "future-format file reads as empty" true
        (loaded = []);
      Alcotest.(check bool) "and reports truncation" true truncated;
      (* the loader reset the file: the handle must be appendable and
         the next load round-trips at the current version *)
      Persist.append t2 ~key:"fresh" [| 9.0 |];
      Persist.close t2;
      let t3, loaded3, _ = Persist.open_store dir in
      Persist.close t3;
      Alcotest.(check (list entry_testable))
        "store restarts cold at the current version"
        [ ("fresh", [| 9.0 |]) ]
        loaded3)

let test_corrupt_middle_truncates () =
  with_store_dir (fun dir ->
      let t, _, _ = Persist.open_store dir in
      List.iter (fun (k, vs) -> Persist.append t ~key:k vs) sample_entries;
      Persist.close t;
      let path = Filename.concat dir "journal.bin" in
      (* Flip a byte inside the *second* entry's body: the first entry
         must survive, everything from the flip on is cut. The first
         entry spans 4 + (9 + 5 + 3*8) + 16 bytes after the 12-byte
         header; land safely inside entry two. *)
      patch_byte path 80 (fun c -> Char.chr (Char.code c lxor 0x40));
      let t2, loaded, truncated = Persist.open_store dir in
      Persist.close t2;
      Alcotest.(check bool) "corruption reports truncation" true truncated;
      Alcotest.(check (list entry_testable))
        "the prefix before the corruption survives"
        [ List.hd sample_entries ]
        loaded)

(* --- 2. any prefix-truncation of a valid journal loads ---------------- *)

(* The byte length of one encoded entry: u32 frame + body + md5, where
   body = u32 key_len + key + tag + u32 count + 8 bytes per value. *)
let encoded_len (key, values) =
  4 + (9 + String.length key + (8 * Array.length values)) + 16

let header_len = 12

let test_any_truncation_loads () =
  let full = sample_entries @ sample_entries in
  let total =
    header_len + List.fold_left (fun a e -> a + encoded_len e) 0 full
  in
  (* For a cut at [len], the expected survivors are the longest run of
     whole entries that fit under the cut (a cut inside the header
     drops everything), deduped the way the loader dedups: first
     occurrence keeps its slot, the last value wins. *)
  let expected_at len =
    if len < header_len then []
    else
      let rec go acc off = function
        | [] -> List.rev acc
        | e :: rest ->
          if off + encoded_len e <= len then
            go (e :: acc) (off + encoded_len e) rest
          else List.rev acc
      in
      List.fold_left
        (fun acc (k, v) ->
          if List.mem_assoc k acc then
            List.map (fun (k', v') -> if k' = k then (k', v) else (k', v')) acc
          else acc @ [ (k, v) ])
        [] (go [] header_len full)
  in
  let arb = QCheck.int_range 0 total in
  let prop len =
    with_store_dir (fun dir ->
        let t, _, _ = Persist.open_store dir in
        List.iter (fun (k, vs) -> Persist.append t ~key:k vs) full;
        Persist.close t;
        let path = Filename.concat dir "journal.bin" in
        let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
        Unix.ftruncate fd len;
        Unix.close fd;
        let t2, loaded, truncated = Persist.open_store dir in
        (* whatever survived, the journal must accept new entries *)
        Persist.append t2 ~key:"appended-after-recovery" [| 42.0 |];
        Persist.close t2;
        let t3, reloaded, _ = Persist.open_store dir in
        Persist.close t3;
        ignore truncated;
        let expected = expected_at len in
        let survivors_ok = entries_equal loaded expected in
        let append_ok =
          List.exists
            (fun (k, _) -> k = "appended-after-recovery")
            reloaded
        in
        if not survivors_ok then
          QCheck.Test.fail_reportf
            "cut at %d: loaded %d entries, expected %d" len
            (List.length loaded) (List.length expected);
        if not append_ok then
          QCheck.Test.fail_reportf
            "cut at %d: journal not appendable after recovery" len;
        true)
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:60 ~name:"any truncation loads a clean prefix"
       arb prop)

(* --- 3. crash recovery through Incr, dense and sparse ----------------- *)

let crash_program =
  {|
int helper(int x) { return x * 3 + 1; }
int main() {
  int i; int acc;
  acc = 0;
  for (i = 0; i < 20; i = i + 1) acc = acc + helper(i);
  return acc;
}
|}

let check_scores_equal what (a : Driver.Score.t list)
    (b : Driver.Score.t list) =
  Alcotest.(check int) (what ^ ": same score count") (List.length a)
    (List.length b);
  List.iter2
    (fun (x : Driver.Score.t) (y : Driver.Score.t) ->
      if compare x y <> 0 then
        Alcotest.failf "%s: score diverged on %s" what
          x.Driver.Score.s_estimator)
    a b

let recovery_leg (mode : Linalg.Linsolve.mode) () =
  let saved = !Linalg.Linsolve.solver_mode in
  Linalg.Linsolve.solver_mode := mode;
  let tag = Linalg.Linsolve.mode_to_string mode in
  Fun.protect
    ~finally:(fun () ->
      Linalg.Linsolve.solver_mode := saved;
      Incr.close_store ();
      Incr.clear ())
    (fun () ->
      (* cold reference: no store attached *)
      Incr.clear ();
      let reference = (Incr.analyze ~name:"crash" crash_program).Incr.an_scores in
      Incr.clear ();
      let rng = Random.State.make [| 0xC0A5; 7 |] in
      with_store_dir (fun dir ->
          (* populate the store once to learn its on-disk size *)
          ignore (Incr.open_store dir);
          ignore (Incr.analyze ~name:"crash" crash_program);
          Incr.crash_store ();
          (* an intact journal: the restart re-solves nothing and must
             serve the same scores as the cold pass *)
          let restore = Incr.open_store dir in
          Alcotest.(check bool)
            (tag ^ ": the whole journal restored entries") true
            (restore.Incr.rs_restored > 0);
          let warm = Incr.analyze ~name:"crash" crash_program in
          Alcotest.(check int) (tag ^ ": no intra re-solve after restart") 0
            warm.Incr.an_fn_misses;
          check_scores_equal (tag ^ " solver, whole journal") reference
            warm.Incr.an_scores;
          Incr.crash_store ();
          let jpath = Filename.concat dir "journal.bin" in
          let jsize = (Unix.stat jpath).Unix.st_size in
          for _ = 1 to 12 do
            (* mutilate the journal at a random length, restart, and
               demand bit-identical scores from whatever survived *)
            let cut = Random.State.int rng (jsize + 1) in
            let fd = Unix.openfile jpath [ Unix.O_WRONLY ] 0o644 in
            Unix.ftruncate fd cut;
            Unix.close fd;
            let restore = Incr.open_store dir in
            Alcotest.(check bool)
              (Printf.sprintf "%s: restored a prefix at cut %d" tag cut)
              true
              (restore.Incr.rs_restored >= 0);
            let a = Incr.analyze ~name:"crash" crash_program in
            check_scores_equal
              (Printf.sprintf "%s solver, journal cut at %d" tag cut)
              reference a.Incr.an_scores;
            (* the re-analysis healed the store: everything is back on
               disk for the next round *)
            Incr.crash_store ()
          done))

(* --- registration ----------------------------------------------------- *)

let suite =
  [ Alcotest.test_case "entries round-trip bit-exactly" `Quick test_roundtrip;
    Alcotest.test_case "snapshot + journal merge, journal wins" `Quick
      test_snapshot_merge;
    Alcotest.test_case "a kill -9 mid-snapshot leaves no poison" `Quick
      test_stale_tmp_ignored;
    Alcotest.test_case "a format version bump self-invalidates" `Quick
      test_version_bump_self_invalidates;
    Alcotest.test_case "corruption truncates to the valid prefix" `Quick
      test_corrupt_middle_truncates;
    Alcotest.test_case "any byte-truncation loads a clean prefix" `Slow
      test_any_truncation_loads;
    Alcotest.test_case "crash recovery is bit-identical (dense)" `Slow
      (recovery_leg Linalg.Linsolve.Dense);
    Alcotest.test_case "crash recovery is bit-identical (sparse)" `Slow
      (recovery_leg Linalg.Linsolve.Sparse) ]
