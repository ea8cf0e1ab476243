(* The supervised worker pool, exercised with real forked children:
   routing is stable, a murdered worker is restarted and its in-flight
   request replayed once, a request that kills its worker twice comes
   back as a typed [Lost] instead of hanging, a silent worker is
   SIGKILLed at the deadline, chaos kills are a pure function of
   (seed, point, key) so the doomed set is predictable from the parent,
   and a crash-looping shard trips the circuit breaker instead of
   fork-bombing.

   This suite runs as its own executable, apart from [test_main]: OCaml 5
   refuses [Unix.fork] in any process that has ever spawned a domain —
   joining the domains does not lift the ban — and the main runner's
   earlier suites fan out on [Driver.Parallel]. The same constraint is
   why [serve --workers] forks before its first fan-out. Nothing in this
   process may call [Parallel.map] before a pool starts. *)

module Supervise = Driver.Supervise

let nop_finalize ~shard:_ = ()

let with_pool ?deadline_s ?max_consecutive_crashes ~workers ?(init = fun ~shard:_ -> ())
    handler (f : Supervise.t -> 'a) : 'a =
  let pool =
    Supervise.start ~workers ?deadline_s ?max_consecutive_crashes ~init
      ~finalize:nop_finalize ~handler ()
  in
  Fun.protect ~finally:(fun () -> Supervise.stop pool) (fun () -> f pool)

let reply_exn = function
  | Supervise.Reply s -> s
  | Supervise.Deadline d -> Alcotest.failf "unexpected Deadline %g" d
  | Supervise.Lost msg -> Alcotest.failf "unexpected Lost: %s" msg

(* --- plumbing ---------------------------------------------------------- *)

let test_echo_roundtrip () =
  with_pool ~workers:3 (fun line -> "echo:" ^ line) (fun pool ->
      Alcotest.(check int) "pool size" 3 (Supervise.size pool);
      Alcotest.(check int) "all workers alive" 3 (Supervise.alive pool);
      Alcotest.(check string) "single request" "echo:hello"
        (reply_exn (Supervise.request pool ~key:"k1" "hello"));
      let reqs = List.init 20 (fun i -> (i, Printf.sprintf "key-%d" i,
                                         Printf.sprintf "msg-%d" i)) in
      let replies = Supervise.request_many pool reqs in
      Alcotest.(check int) "every slot answered" 20 (List.length replies);
      List.iter
        (fun (slot, outcome, _) ->
          Alcotest.(check string)
            (Printf.sprintf "slot %d" slot)
            (Printf.sprintf "echo:msg-%d" slot)
            (reply_exn outcome))
        replies;
      Alcotest.(check int) "no restarts in a clean run" 0
        (Supervise.restarts pool))

let test_broadcast () =
  (* each child learns its shard in [init]; the closure mutation happens
     after fork, so every worker sees only its own value *)
  let my_shard = ref (-1) in
  with_pool ~workers:3 ~init:(fun ~shard -> my_shard := shard)
    (fun line -> Printf.sprintf "%d:%s" !my_shard line)
    (fun pool ->
      let replies = Supervise.broadcast pool "ping" in
      Alcotest.(check int) "one reply per shard" 3 (List.length replies);
      List.iter
        (fun (shard, outcome) ->
          Alcotest.(check string)
            (Printf.sprintf "shard %d" shard)
            (Printf.sprintf "%d:ping" shard)
            (reply_exn outcome))
        replies)

let test_routing_is_stable () =
  with_pool ~workers:4 (fun line -> line) (fun pool ->
      List.iter
        (fun key ->
          let a = Supervise.shard_of pool key in
          let b = Supervise.shard_of pool key in
          Alcotest.(check int) ("routing of " ^ key) a b;
          Alcotest.(check bool) "in range" true (a >= 0 && a < 4))
        [ "alpha"; "beta"; "gamma"; "delta"; "" ])

(* --- crash recovery ---------------------------------------------------- *)

let test_external_kill_replays () =
  with_pool ~workers:2 (fun line -> "ok:" ^ line) (fun pool ->
      let key = "victim-key" in
      let shard = Supervise.shard_of pool key in
      let pid = List.nth (Supervise.pids pool) shard in
      Unix.kill pid Sys.sigkill;
      (* the next request on that shard hits a dead worker: the pool
         must notice, restart, replay, and still answer *)
      Alcotest.(check string) "request survives an external SIGKILL"
        ("ok:" ^ key)
        (reply_exn (Supervise.request pool ~key key));
      Alcotest.(check bool) "a restart was recorded" true
        (Supervise.restarts pool >= 1);
      Alcotest.(check int) "pool is whole again" 2 (Supervise.alive pool))

let suicide_handler line =
  if String.length line >= 3 && String.sub line 0 3 = "die" then
    Unix.kill (Unix.getpid ()) Sys.sigkill;
  "ok:" ^ line

let test_poison_request_is_lost () =
  with_pool ~workers:2 ~max_consecutive_crashes:10 suicide_handler
    (fun pool ->
      (match Supervise.request pool ~key:"die-1" "die-1" with
      | Supervise.Lost _ -> ()
      | Supervise.Reply r -> Alcotest.failf "poison request replied %S" r
      | Supervise.Deadline _ -> Alcotest.fail "poison request hit deadline");
      Alcotest.(check int) "exactly one lost request" 1
        (Supervise.lost pool);
      Alcotest.(check bool) "kill + replay-kill = two restarts" true
        (Supervise.restarts pool >= 2);
      (* the pool is not poisoned: ordinary traffic still flows,
         including on the shard the poison request crashed *)
      List.iter
        (fun key ->
          Alcotest.(check string) key ("ok:" ^ key)
            (reply_exn (Supervise.request pool ~key key)))
        [ "a"; "b"; "c"; "d" ])

let test_deadline_kills_silent_worker () =
  let handler line =
    if line = "stall" then Unix.sleepf 30.0;
    "ok:" ^ line
  in
  with_pool ~workers:1 ~deadline_s:0.3 handler (fun pool ->
      (match Supervise.request pool ~key:"slow" "stall" with
      | Supervise.Deadline d ->
        Alcotest.(check bool) "deadline value is the configured one" true
          (d >= 0.25 && d < 5.0)
      | Supervise.Reply r -> Alcotest.failf "stalled request replied %S" r
      | Supervise.Lost msg -> Alcotest.failf "stalled request lost: %s" msg);
      (* a deadline kill is not a crash: the worker is respawned and the
         shard keeps serving *)
      Alcotest.(check string) "shard recovered after the deadline kill"
        "ok:after"
        (reply_exn (Supervise.request pool ~key:"next" "after")))

let test_circuit_breaker () =
  let always_die _line = Unix.kill (Unix.getpid ()) Sys.sigkill; "" in
  with_pool ~workers:1 ~max_consecutive_crashes:2 always_die (fun pool ->
      (match Supervise.request pool ~key:"k" "boom" with
      | Supervise.Lost _ -> ()
      | _ -> Alcotest.fail "crash-looping request must be Lost");
      let restarts_after_trip = Supervise.restarts pool in
      (* breaker is open: further requests fail fast, no more forks *)
      (match Supervise.request pool ~key:"k2" "boom" with
      | Supervise.Lost _ -> ()
      | _ -> Alcotest.fail "open breaker must fail fast");
      Alcotest.(check int) "no restarts once the breaker is open"
        restarts_after_trip (Supervise.restarts pool);
      Alcotest.(check int) "the shard is marked dead" 0
        (Supervise.alive pool))

(* --- chaos determinism -------------------------------------------------- *)

let chaos_point = "test.supervise-kill"

let test_chaos_doom_set_is_deterministic () =
  Obs.Inject.register chaos_point;
  let keys = List.init 10 (fun i -> Printf.sprintf "prog-%c" (Char.chr (97 + i))) in
  let handler line =
    (* the child inherited the armed registry at fork: the decision is a
       pure hash of (seed, point, key), so a replayed doomed request is
       doomed again *)
    if Obs.Inject.should_fire chaos_point ~key:line then
      Unix.kill (Unix.getpid ()) Sys.sigkill;
    "ok:" ^ line
  in
  let run_pool () =
    with_pool ~workers:2 ~max_consecutive_crashes:100 handler (fun pool ->
        List.filter_map
          (fun key ->
            match Supervise.request pool ~key key with
            | Supervise.Lost _ -> Some key
            | Supervise.Reply _ -> None
            | Supervise.Deadline _ ->
              Alcotest.failf "unexpected deadline on %s" key)
          keys)
  in
  Fun.protect ~finally:Obs.Inject.disarm_all (fun () ->
      Obs.Inject.arm_chaos ~seed:42 ();
      (* the parent can predict the doomed set without forking anything:
         should_fire is pure under chaos arming *)
      let expected =
        List.filter (fun k -> Obs.Inject.should_fire chaos_point ~key:k) keys
      in
      Alcotest.(check bool) "seed 42 dooms at least one key" true
        (expected <> []);
      Alcotest.(check bool) "seed 42 spares at least one key" true
        (List.length expected < List.length keys);
      let first = run_pool () in
      let second = run_pool () in
      Alcotest.(check (list string))
        "lost set matches the parent's prediction" expected first;
      Alcotest.(check (list string))
        "two pools under one seed lose the same keys" first second)

(* --- registration ------------------------------------------------------- *)

let suite =
  [ Alcotest.test_case "echo roundtrip across shards" `Quick
      test_echo_roundtrip;
    Alcotest.test_case "broadcast reaches every shard" `Quick test_broadcast;
    Alcotest.test_case "routing is stable" `Quick test_routing_is_stable;
    Alcotest.test_case "external SIGKILL: restart + replay" `Quick
      test_external_kill_replays;
    Alcotest.test_case "poison request becomes a typed Lost" `Quick
      test_poison_request_is_lost;
    Alcotest.test_case "deadline SIGKILLs a silent worker" `Slow
      test_deadline_kills_silent_worker;
    Alcotest.test_case "crash loop trips the circuit breaker" `Slow
      test_circuit_breaker;
    Alcotest.test_case "chaos doom set is deterministic" `Slow
      test_chaos_doom_set_is_deterministic ]

let () =
  Alcotest.run "static-estimators-supervise" [ ("supervise", suite) ]
