(* The incremental-analysis store: content-addressed, LRU-bounded.

   Promotes the per-process [Context] memo (keyed by whole-source
   digests) to *function* granularity: intra-procedural solutions are
   keyed by [Pipeline.fn_hash] — a digest of the function's canonical
   AST, the globals it mentions, its callees' prototypes and the
   translation unit's struct/enum signature — so an edit to one
   function re-solves that function and nothing else. Compiled
   programs (typed AST + CFGs + the lazily built closure-compiled
   executable riding inside [Pipeline.compiled]) and profile sets are
   cached at program granularity, keyed by source digests.

   What is deliberately NOT cached: per-function CFGs across reparses.
   A [Cfg.fn] embeds node-id-keyed side tables of the [Typecheck.t]
   that produced it; grafting one onto a fresh parse would read the
   *old* unit's resolutions through colliding node ids. Lowering is
   linear and measured in microseconds per function — the store only
   holds the superlinear artifacts (Markov solves, closure-compiled
   code, profiles) where the leverage is.

   Cache-key soundness. An intra solution depends on the function's
   content, the live [Core.Config] knobs (the ablations mutate them)
   and the process-wide [Linsolve.solver_mode]; all three are in the
   key, so ablation sweeps and solver-matrix runs through the store
   stay bit-identical to uncached runs — the CI drift gate holds that
   line. Under an armed fault-injection plan ([Obs.Inject.armed])
   [intra_provider] bypasses the store entirely: chaos runs must
   re-execute every estimate to fire the same injection points at the
   same sites.

   Eviction: least-recently-used by a global tick, with approximate
   byte accounting per entry. Eviction changes timings, never results —
   an evicted entry is recomputed from the same inputs (asserted by
   test/test_incr.ml under a tiny budget).

   Concurrency: one mutex guards the table, byte total and counters.
   Payload computation happens outside the lock; two domains racing on
   the same missing key both compute and the last insert wins — safe
   because payloads are pure values of deterministic computations. *)

module Pipeline = Core.Pipeline
module Cfg = Cfg_ir.Cfg
module Profile = Cinterp.Profile

type payload =
  | Intra of float array
  | Prog of Pipeline.compiled
  | Profiles of Profile.t list

type entry = { payload : payload; bytes : int; mutable tick : int }

type stats = {
  st_entries : int;
  st_bytes : int;
  st_budget : int;
  st_hits : int;
  st_misses : int;
  st_evictions : int;
  st_bypasses : int;
  st_restored : int;        (* entries loaded from disk at last open *)
  st_journal_entries : int; (* entries appended since the last snapshot *)
  st_snapshots : int;       (* snapshots taken by this process *)
  st_persisted : bool;      (* a store directory is attached *)
}

(* ------------------------------------------------------------------ *)
(* Store state. *)

let default_budget = 256 * 1024 * 1024

let lock = Mutex.create ()
let table : (string, entry) Hashtbl.t = Hashtbl.create 1024
let total_bytes = ref 0
let budget = ref default_budget
let clock = ref 0
let hits = ref 0
let misses = ref 0
let evictions = ref 0
let bypasses = ref 0
let restored = ref 0

(* The attached durable store, when [open_store] was called. All access
   happens under [lock]. *)
let persist : Persist.t option ref = ref None

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* The ["incr.bytes"] gauge tracks [total_bytes] through *every*
   mutation — insert, evict, invalidate, clear, budget resize and
   restore-from-disk — so a probe reader always sees the store's
   current footprint, not just its insert-path history. Call with
   [lock] held, after [total_bytes] settles. *)
let publish_bytes () =
  Obs.Probe.set_gauge "incr.bytes" (float_of_int !total_bytes)

(* Re-publish gauge levels from current state. [Probe.reset] wipes the
   gauge table, so a daemon that resets probes per batch would report a
   missing ["incr.bytes"] until the next store mutation — even though
   the store still holds (say) everything restored at [open_store].
   Serve calls this after each per-batch reset. *)
let republish_gauges () : unit = locked publish_bytes

(* Approximate heap footprint of a payload, in bytes. Intra arrays are
   exact up to headers; compiled programs and profiles are estimated
   from their source/counter sizes — the accounting only has to make
   the budget meaningful, not audit the heap. *)
let payload_bytes = function
  | Intra a -> (8 * Array.length a) + 96
  | Prog c -> (16 * String.length c.Pipeline.source) + 4096
  | Profiles ps ->
    List.fold_left
      (fun acc (p : Profile.t) ->
        let counters =
          Hashtbl.fold
            (fun _ (c : Profile.fn_counters) n ->
              n + Array.length c.Profile.block_counts)
            p.Profile.fns 0
        in
        acc + (24 * counters) + (8 * Array.length p.Profile.site_counts)
        + 512)
      256 ps

let reset_stats () : unit =
  locked (fun () ->
      hits := 0;
      misses := 0;
      evictions := 0;
      bypasses := 0)

let stats () : stats =
  locked (fun () ->
      { st_entries = Hashtbl.length table;
        st_bytes = !total_bytes;
        st_budget = !budget;
        st_hits = !hits;
        st_misses = !misses;
        st_evictions = !evictions;
        st_bypasses = !bypasses;
        st_restored = !restored;
        st_journal_entries =
          (match !persist with
          | Some p -> Persist.journal_entries p
          | None -> 0);
        st_snapshots =
          (match !persist with Some p -> Persist.snapshots p | None -> 0);
        st_persisted = !persist <> None })

(* ------------------------------------------------------------------ *)
(* Lookup / insert (callers hold no lock). *)

let find (key : string) : payload option =
  locked (fun () ->
      match Hashtbl.find_opt table key with
      | Some e ->
        incr clock;
        e.tick <- !clock;
        incr hits;
        Obs.Probe.count "incr.hit";
        Some e.payload
      | None ->
        incr misses;
        Obs.Probe.count "incr.miss";
        None)

(* Evict least-recently-used entries (never [keep]) until the total is
   within budget. Linear scans per eviction: the store holds at most a
   few thousand entries and eviction is the rare path. *)
let evict_to_budget ?(keep = "") () : unit =
  let rec go () =
    if !total_bytes > !budget && Hashtbl.length table > 1 then begin
      let victim = ref None in
      Hashtbl.iter
        (fun k e ->
          if k <> keep then
            match !victim with
            | Some (_, best) when best.tick <= e.tick -> ()
            | _ -> victim := Some (k, e))
        table;
      match !victim with
      | None -> ()
      | Some (k, e) ->
        Hashtbl.remove table k;
        total_bytes := !total_bytes - e.bytes;
        incr evictions;
        Obs.Probe.count "incr.evict";
        go ()
    end
  in
  go ()

let set_budget (n : int) : unit =
  locked (fun () ->
      budget := max 0 n;
      (* A shrink takes effect immediately, not at the next insert. *)
      evict_to_budget ();
      publish_bytes ())

let clear () : unit =
  locked (fun () ->
      Hashtbl.reset table;
      total_bytes := 0;
      publish_bytes ())

(* Journal an [Intra] insert to the attached store and snapshot when
   the journal has grown past its threshold. A persistence failure
   (chaos injection, disk trouble) is absorbed as a [Persist]-stage
   fault: the entry stays served from memory, it just is not durable —
   the daemon never dies for the disk. Called with [lock] held. *)
let persist_insert (key : string) (payload : payload) : unit =
  match (!persist, payload) with
  | Some p, Intra values ->
    (match
       Fault.capture ~stage:Fault.Persist ~subject:key
         ~detail:"journal append"
         ~recovery:"entry kept in memory only; recomputed after restart"
         (fun () -> Persist.append p ~key values)
     with
    | Ok () -> ()
    | Error _ -> ());
    if Persist.needs_snapshot p then begin
      let entries =
        Hashtbl.fold
          (fun k (e : entry) acc ->
            match e.payload with
            | Intra a -> (k, a) :: acc
            | Prog _ | Profiles _ -> acc)
          table []
      in
      match
        Fault.capture ~stage:Fault.Persist ~subject:"snapshot"
          ~detail:
            (Printf.sprintf "%d entries" (List.length entries))
          ~recovery:"journal kept; snapshot retried past the next threshold"
          (fun () -> Persist.snapshot p entries)
      with
      | Ok () -> Obs.Probe.count "incr.snapshot"
      | Error _ -> ()
    end
  | _ -> ()

let add (key : string) (payload : payload) : unit =
  locked (fun () ->
      (match Hashtbl.find_opt table key with
      | Some old -> total_bytes := !total_bytes - old.bytes
      | None -> ());
      let bytes = payload_bytes payload in
      incr clock;
      Hashtbl.replace table key { payload; bytes; tick = !clock };
      total_bytes := !total_bytes + bytes;
      persist_insert key payload;
      evict_to_budget ~keep:key ();
      publish_bytes ())

(* ------------------------------------------------------------------ *)
(* Keys. *)

let solver_tag () = Linalg.Linsolve.mode_to_string !Linalg.Linsolve.solver_mode

(* Intra keys: content hash of the function plus every process-wide
   input the estimate reads (see the soundness note above). *)
let intra_key (c : Pipeline.compiled) (kind : Pipeline.intra_kind)
    (fn : Cfg.fn) : string =
  String.concat "|"
    [ "intra"; Pipeline.intra_kind_to_string kind; solver_tag ();
      Core.Config.fingerprint (); Pipeline.fn_hash c fn ]

let source_digest ~(name : string) (source : string) : string =
  Digest.to_hex (Digest.string (name ^ "\x00" ^ source))

let prog_key ~(name : string) (source : string) : string =
  "prog|" ^ source_digest ~name source

let runs_digest (runs : Pipeline.run list) : string =
  let buf = Buffer.create 128 in
  List.iter
    (fun (r : Pipeline.run) ->
      List.iter
        (fun a ->
          Buffer.add_string buf (string_of_int (String.length a));
          Buffer.add_char buf ':';
          Buffer.add_string buf a)
        r.Pipeline.argv;
      Buffer.add_char buf '<';
      Buffer.add_string buf (string_of_int (String.length r.Pipeline.input));
      Buffer.add_char buf ':';
      Buffer.add_string buf r.Pipeline.input;
      Buffer.add_char buf '\n')
    runs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let profile_key ~(name : string) (source : string)
    (runs : Pipeline.run list) : string =
  "profile|" ^ source_digest ~name source ^ "|" ^ runs_digest runs

(* ------------------------------------------------------------------ *)
(* Intra estimates through the store. *)

let cached_intra (key : string) (compute : unit -> float array) :
    float array * bool =
  match find key with
  | Some (Intra a) -> (a, true)
  | Some _ | None ->
    let a = compute () in
    add key (Intra a);
    (a, false)

let cached_solve (c : Pipeline.compiled) (kind : Pipeline.intra_kind)
    (fn : Cfg.fn) : float array =
  let compute () = Pipeline.intra_freqs_fn c kind fn in
  if Obs.Inject.armed () then begin
    locked (fun () ->
        incr bypasses;
        Obs.Probe.count "incr.bypass");
    compute ()
  end
  else fst (cached_intra (intra_key c kind fn) compute)

(* [Pipeline.intra_provider] with every per-function solve served from
   the store: how driver code (the experiments, the corpus) reads intra
   estimates. Bit-identical to the uncached provider, which stays the
   reference for tests and examples. *)
let intra_provider (c : Pipeline.compiled) (kind : Pipeline.intra_kind) :
    string -> float array =
  Pipeline.intra_provider ~solve:cached_solve c kind

(* ------------------------------------------------------------------ *)
(* Durable store attachment. [open_store dir] restores every valid
   entry from the directory's snapshot + journal into the table (a
   corrupt or torn tail is truncated, never fatal — the daemon starts
   with whatever prefix survived) and journals every [Intra] insert
   from then on. Restored entries are *not* re-journaled: they are
   already on disk. *)

type restore = {
  rs_restored : int;   (* entries loaded into the table *)
  rs_truncated : bool; (* a corrupt/torn tail was cut off on load *)
}

let open_store ?snapshot_threshold (dir : string) : restore =
  let p, entries, truncated =
    Persist.open_store ?snapshot_threshold dir
  in
  locked (fun () ->
      (match !persist with Some old -> Persist.close old | None -> ());
      persist := Some p;
      List.iter
        (fun (key, values) ->
          let payload = Intra values in
          (match Hashtbl.find_opt table key with
          | Some old -> total_bytes := !total_bytes - old.bytes
          | None -> ());
          let bytes = payload_bytes payload in
          incr clock;
          Hashtbl.replace table key { payload; bytes; tick = !clock };
          total_bytes := !total_bytes + bytes)
        entries;
      restored := List.length entries;
      evict_to_budget ();
      publish_bytes ();
      Obs.Probe.observe "incr.restored" (float_of_int !restored);
      { rs_restored = !restored; rs_truncated = truncated })

(* Flush the durable state (final snapshot compacts the journal) and
   detach. The graceful-drain path runs this; after it, a restart
   loads everything from the snapshot alone. *)
let close_store () : unit =
  locked (fun () ->
      match !persist with
      | None -> ()
      | Some p ->
        let entries =
          Hashtbl.fold
            (fun k (e : entry) acc ->
              match e.payload with
              | Intra a -> (k, a) :: acc
              | Prog _ | Profiles _ -> acc)
            table []
        in
        (match
           Fault.capture ~stage:Fault.Persist ~subject:"snapshot"
             ~detail:"final snapshot on close"
             ~recovery:"journal remains authoritative for the next open"
             (fun () -> Persist.snapshot p entries)
         with
        | Ok () -> ()
        | Error _ -> ());
        Persist.close p;
        persist := None)

(* Simulated [kill -9]: drop every in-memory structure and the journal
   fd without flushing or snapshotting — exactly the state a new
   process starts from after a crash. The bench's restart-warm phase
   and the crash-recovery tests reopen the directory afterwards. *)
let crash_store () : unit =
  locked (fun () ->
      (match !persist with Some p -> Persist.close p | None -> ());
      persist := None;
      Hashtbl.reset table;
      total_bytes := 0;
      restored := 0;
      publish_bytes ())

(* ------------------------------------------------------------------ *)
(* Name index: program-granularity keys inserted under each program
   name, so [invalidate] can drop them. Function-granularity entries
   are content-shared across programs and self-invalidating (an edit
   changes the hash, orphaning the old key until eviction), so they
   are never dropped by name. *)

let names_lock = Mutex.create ()
let names : (string, string list) Hashtbl.t = Hashtbl.create 64

let index_key ~(name : string) (key : string) : unit =
  Mutex.lock names_lock;
  let ks = Option.value ~default:[] (Hashtbl.find_opt names name) in
  if not (List.mem key ks) then Hashtbl.replace names name (key :: ks);
  Mutex.unlock names_lock

let invalidate ~(name : string) : int =
  Mutex.lock names_lock;
  let ks = Option.value ~default:[] (Hashtbl.find_opt names name) in
  Hashtbl.remove names name;
  Mutex.unlock names_lock;
  locked (fun () ->
      let dropped =
        List.fold_left
          (fun dropped k ->
            match Hashtbl.find_opt table k with
            | Some e ->
              Hashtbl.remove table k;
              total_bytes := !total_bytes - e.bytes;
              dropped + 1
            | None -> dropped)
          0 ks
      in
      publish_bytes ();
      dropped)

(* ------------------------------------------------------------------ *)
(* Incremental analysis of one source. *)

type analysis = {
  an_name : string;
  an_compiled : Pipeline.compiled;
  an_program_hit : bool;
  an_profile_hit : bool option;  (* [None] when no runs were given *)
  an_fn_hits : int;
  an_fn_misses : int;
  an_fn_hashes : (string * string) list;  (* per function, prog order *)
  an_intra : (Pipeline.intra_kind * (string * float array) list) list;
  an_inter : (string * float) list;  (* markov inter, call-graph order *)
  an_profiles : Profile.t list;  (* one per run; [] when no runs were given *)
  an_scores : Score.t list;  (* sorted by [Score.key]; not emitted *)
}

(* Cooperative wall-clock deadline for one [analyze] call: checked
   between per-function solves and threaded into the interpreter's
   budget machinery for the profiling leg (the only open-ended stage),
   where a wall-clock stop raises this instead of keeping a partial
   profile.
   The serve layer maps the raise to a typed fault response; in
   supervised mode the parent additionally enforces a hard deadline by
   killing the worker process. *)
exception Deadline_exceeded of float

let () =
  Printexc.register_printer (function
    | Deadline_exceeded s ->
      Some (Printf.sprintf "Driver.Incr.Deadline_exceeded(%gs)" s)
    | _ -> None)

(* Modelled per-invocation cost of [fn] under intra estimate [freqs]. *)
let invocation_cost (fn : Cfg.fn) (freqs : float array) : float =
  let costs = Pipeline.block_costs fn in
  let total = ref 0.0 in
  Array.iteri (fun i c -> total := !total +. (c *. freqs.(i))) costs;
  !total

let score ~name ~estimator ~metric ~value : Score.t =
  { Score.s_experiment = "serve"; s_program = name; s_estimator = estimator;
    s_metric = metric; s_param = 0.0; s_value = value }

(* Analyze [source]: compile (or fetch), estimate every requested intra
   kind function-by-function through the store, then re-run the
   inter-procedural Markov fixpoint — the fixpoint is global, so it is
   always recomputed; only its per-function inputs are cached. Raises
   on invalid source (callers isolate; the serve daemon maps the raise
   to an error response). *)
let analyze_body ?(kinds : Pipeline.intra_kind list = Pipeline.all_intra_kinds)
    ?(runs : Pipeline.run list = []) ?(deadline_s : float option)
    ~(name : string) (source : string) : analysis =
  let started = Unix.gettimeofday () in
  let check_deadline () =
    match deadline_s with
    | Some d when Unix.gettimeofday () -. started > d ->
      raise (Deadline_exceeded d)
    | _ -> ()
  in
  let remaining_profile_deadline () =
    match deadline_s with
    | None -> Context.run_deadline_s
    | Some d ->
      Float.min Context.run_deadline_s
        (Float.max 0.001 (d -. (Unix.gettimeofday () -. started)))
  in
  let on_stop = function
    | Cinterp.Eval.Wall_clock ->
      Option.iter (fun d -> raise (Deadline_exceeded d)) deadline_s
    | Cinterp.Eval.Fuel -> ()
  in
  let pkey = prog_key ~name source in
  let c, program_hit =
    match find pkey with
    | Some (Prog c) -> (c, true)
    | Some _ | None ->
      let c = Pipeline.compile ~name source in
      add pkey (Prog c);
      index_key ~name pkey;
      (c, false)
  in
  let fn_hits = ref 0 and fn_misses = ref 0 in
  (* The smart estimate always runs: the paper builds every inter
     estimator on it, and the fixpoint below needs it. *)
  let kinds_to_run =
    if List.mem Pipeline.Ismart kinds then kinds
    else kinds @ [ Pipeline.Ismart ]
  in
  let intra_of kind =
    List.map
      (fun fn ->
        check_deadline ();
        let freqs, hit =
          cached_intra (intra_key c kind fn) (fun () ->
              Pipeline.intra_freqs_fn c kind fn)
        in
        if hit then incr fn_hits else incr fn_misses;
        (fn.Cfg.fn_name, freqs))
      c.Pipeline.prog.Cfg.prog_fns
  in
  let tables = List.map (fun k -> (k, intra_of k)) kinds_to_run in
  let an_intra = List.filter (fun (k, _) -> List.mem k kinds) tables in
  let smart = List.assoc Pipeline.Ismart tables in
  check_deadline ();
  let inter =
    (Core.Markov_inter.estimate ~inject_key:name c.Pipeline.graph
       ~intra:(fun fname -> List.assoc fname smart))
      .Core.Markov_inter.freqs
  in
  let profiles, profile_hit =
    match runs with
    | [] -> (None, None)
    | runs ->
      check_deadline ();
      let key = profile_key ~name source runs in
      (match find key with
      | Some (Profiles ps) -> (Some ps, Some true)
      | Some _ | None ->
        let outs =
          List.mapi
            (fun i r ->
              Context.profile_stage
                ~deadline_s:(remaining_profile_deadline ()) ~on_stop c i r)
            runs
        in
        let ps = List.map fst outs in
        (* Only complete profile sets are cached; a partial one (its
           fault is on the record) is recomputed on the next request. *)
        if not (List.exists snd outs) then begin
          add key (Profiles ps);
          index_key ~name key
        end;
        (Some ps, Some false))
  in
  let inv_scores =
    List.map
      (fun (fname, v) ->
        score ~name ~estimator:("invocations/" ^ fname) ~metric:Score.Freq
          ~value:v)
      inter
  in
  let cost_scores =
    List.concat_map
      (fun (kind, tbl) ->
        let tag = Pipeline.intra_kind_to_string kind in
        let per_fn =
          List.map
            (fun fn ->
              let freqs = List.assoc fn.Cfg.fn_name tbl in
              let cost = invocation_cost fn freqs in
              (fn, cost))
            c.Pipeline.prog.Cfg.prog_fns
        in
        let total =
          List.fold_left
            (fun acc (fn, cost) ->
              let inv =
                Option.value ~default:0.0
                  (List.assoc_opt fn.Cfg.fn_name inter)
              in
              acc +. (inv *. cost))
            0.0 per_fn
        in
        score ~name ~estimator:("total_cost/" ^ tag) ~metric:Score.Count
          ~value:total
        :: List.map
             (fun (fn, cost) ->
               score ~name
                 ~estimator:("cost/" ^ tag ^ "/" ^ fn.Cfg.fn_name)
                 ~metric:Score.Count ~value:cost)
             per_fn)
      an_intra
  in
  let actual_scores =
    match profiles with
    | None -> []
    | Some ps ->
      let n = float_of_int (max 1 (List.length ps)) in
      List.map
        (fun fn ->
          let mean =
            List.fold_left
              (fun acc p -> acc +. Profile.invocations p fn)
              0.0 ps
            /. n
          in
          score ~name
            ~estimator:("actual_invocations/" ^ fn.Cfg.fn_name)
            ~metric:Score.Count ~value:mean)
        c.Pipeline.prog.Cfg.prog_fns
  in
  let an_scores =
    List.sort
      (fun a b -> compare (Score.key a) (Score.key b))
      (inv_scores @ cost_scores @ actual_scores)
  in
  { an_name = name;
    an_compiled = c;
    an_program_hit = program_hit;
    an_profile_hit = profile_hit;
    an_fn_hits = !fn_hits;
    an_fn_misses = !fn_misses;
    an_fn_hashes =
      List.map
        (fun fn -> (fn.Cfg.fn_name, Pipeline.fn_hash c fn))
        c.Pipeline.prog.Cfg.prog_fns;
    an_intra;
    an_inter = inter;
    an_profiles = Option.value ~default:[] profiles;
    an_scores }

let analyze ?kinds ?runs ?deadline_s ~(name : string) (source : string) :
    analysis =
  Obs.Hist.time "incr.analyze.ns" (fun () ->
      analyze_body ?kinds ?runs ?deadline_s ~name source)
