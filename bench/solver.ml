(* Solver scaling: dense elimination vs the sparse iterative path over
   synthetic huge graphs (10^3..10^5 nodes), far beyond the 60-400 LoC
   suite minis. Both generators are deterministic (pure functions of n),
   so every field but the timings and the env block is comparable across
   machines and commits.

   Run:  dune exec bench/solver.exe

   Takes no arguments; prints one row per (graph, size) and writes
   BENCH_solver.json in the current directory. *)

module Linsolve = Linalg.Linsolve

let json_path = "BENCH_solver.json"

(* The same environment block the run records carry, plus a timestamp,
   so numbers from different machines and commits can be told apart. A
   one-core machine is tagged "single_core", so a BENCH file from it is
   self-explaining. *)
let add_env_block (buf : Buffer.t) : unit =
  let env =
    Obs.Envmeta.common ()
    @ (if Obs.Envmeta.cores () < 2 then [ ("single_core", "true") ] else [])
    @ [ ("timestamp",
         let t = Unix.gmtime (Unix.gettimeofday ()) in
         Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ"
           (t.Unix.tm_year + 1900) (t.Unix.tm_mon + 1) t.Unix.tm_mday
           t.Unix.tm_hour t.Unix.tm_min t.Unix.tm_sec) ]
  in
  Buffer.add_string buf "  \"env\": {\n";
  List.iteri
    (fun i (k, v) ->
      Buffer.add_string buf
        (Printf.sprintf "    \"%s\": \"%s\"%s\n" (Obs.Json.escape k)
           (Obs.Json.escape v)
           (if i = List.length env - 1 then "" else ",")))
    env;
  Buffer.add_string buf "  },\n"

(* A long CFG: straight-line flow partitioned into 25-block loop
   segments. Each segment ends in a 0.8 back edge to its header (the
   standard loop-guess probability) and a 0.2 exit into the next
   segment; every 7th block inside a segment is a 0.8/0.2 forward
   branch that skips one block. The last block returns. *)
let synthetic_cfg_arcs (n : int) : Linalg.Csr.arcs_iter =
 fun f ->
  for i = 0 to n - 2 do
    if i mod 25 = 24 then begin
      f i (i - 24) 0.8;
      f i (i + 1) 0.2
    end
    else if i mod 7 = 3 && i + 2 <= n - 1 then begin
      f i (i + 1) 0.8;
      f i (i + 2) 0.2
    end
    else f i (i + 1) 1.0
  done

(* A call graph shaped like a 4-ary tree (node i calls 4i+1..4i+4) with
   per-arc call weights cycling through 0.6..1.3 calls per invocation,
   a 0.3 direct-recursion self arc on every 13th node, and a low-weight
   cross arc (0.05) from every 11th node to an arbitrary other node —
   the irregular edges that keep the system from being a pure DAG. *)
let synthetic_callgraph_arcs (n : int) : Linalg.Csr.arcs_iter =
 fun f ->
  for i = 0 to n - 1 do
    for k = 0 to 3 do
      let child = (4 * i) + 1 + k in
      if child < n then
        f i child (0.6 +. (0.1 *. float_of_int ((i + k) mod 8)))
    done;
    if i mod 13 = 5 then f i i 0.3;
    if i mod 11 = 7 && n > 1 then begin
      let t = ((i * 7) + 3) mod n in
      if t <> i then f i t 0.05
    end
  done

let count_arcs (arcs : Linalg.Csr.arcs_iter) : int =
  let k = ref 0 in
  arcs (fun _ _ _ -> incr k);
  !k

let max_rel_diff (a : float array) (b : float array) : float =
  let m = ref 0.0 in
  Array.iteri
    (fun i av ->
      let d =
        Float.abs (av -. b.(i))
        /. Float.max 1.0 (Float.max (Float.abs av) (Float.abs b.(i)))
      in
      if d > !m then m := d)
    a;
  !m

let run_solver_bench () =
  Printf.printf
    "=== Solver scaling (dense elimination vs sparse iterative, synthetic \
     graphs) ===\n\n";
  let time_solve mode ~n arcs reps =
    Linsolve.solver_mode := mode;
    let best = ref infinity in
    let result = ref [||] in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      result := Linsolve.markov_frequencies_iter ~n ~source:0 arcs;
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    (!best, !result)
  in
  (* One probe-instrumented sparse solve per config reports the sweep
     count and final residual alongside the wall clock. *)
  let sparse_diag ~n arcs =
    Obs.Probe.set_enabled true;
    Obs.Probe.reset ();
    Obs.Hist.reset ();
    Linsolve.solver_mode := Linsolve.Sparse;
    ignore (Linsolve.markov_frequencies_iter ~n ~source:0 arcs);
    let sweeps =
      Option.map
        (fun h -> float_of_int h.Obs.Hist.h_max)
        (List.assoc_opt "linsolve.gs.sweeps" (Obs.Hist.all ()))
    in
    let residual = Obs.Probe.gauge "linsolve.gs.residual" in
    Obs.Probe.set_enabled false;
    Obs.Probe.reset ();
    Obs.Hist.reset ();
    (sweeps, residual)
  in
  let configs =
    [ ("cfg", synthetic_cfg_arcs, [ 1_000; 3_000; 10_000; 100_000 ]);
      ("callgraph", synthetic_callgraph_arcs,
       [ 1_000; 3_000; 10_000; 100_000 ]) ]
  in
  let rows =
    List.concat_map
      (fun (label, gen, sizes) ->
        List.map
          (fun n ->
            let arcs = gen n in
            let nnz = count_arcs arcs in
            let reps = if n >= 10_000 then 1 else 3 in
            let sparse_s, sparse_x = time_solve Linsolve.Sparse ~n arcs reps in
            let sweeps, residual = sparse_diag ~n arcs in
            (* the dense n*n build at 10^5 nodes is 80 GB — skip it *)
            let dense =
              if n > Linsolve.dense_fallback_limit then None
              else begin
                let dense_s, dense_x = time_solve Linsolve.Dense ~n arcs reps in
                Some (dense_s, max_rel_diff dense_x sparse_x)
              end
            in
            (match dense with
            | Some (dense_s, diff) ->
              Printf.printf
                "  %-10s n=%-7d arcs=%-7d sparse %10.6f s   dense %10.6f \
                 s   speedup %8.1fx   max_rel_diff %.2e\n%!"
                label n nnz sparse_s dense_s (dense_s /. sparse_s) diff
            | None ->
              Printf.printf
                "  %-10s n=%-7d arcs=%-7d sparse %10.6f s   dense \
                 (skipped: system would be %d GB)\n%!"
                label n nnz sparse_s
                (n * n * 8 / 1_000_000_000));
            (label, n, nnz, sparse_s, sweeps, residual, dense))
          sizes)
      configs
  in
  print_newline ();
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"suite\": \"%s\",\n"
       (Obs.Json.escape "pldi94-estimators-solver"));
  add_env_block buf;
  Buffer.add_string buf "  \"configs\": [\n";
  List.iteri
    (fun i (label, n, nnz, sparse_s, sweeps, residual, dense) ->
      let opt_num = function
        | Some v -> Printf.sprintf "%g" v
        | None -> "null"
      in
      let dense_s, speedup, diff =
        match dense with
        | Some (d, diff) -> (Some d, Some (d /. sparse_s), Some diff)
        | None -> (None, None, None)
      in
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"graph\": \"%s\", \"nodes\": %d, \"arcs\": %d, \
            \"sparse_seconds\": %.6f, \"gs_sweeps\": %s, \"residual\": \
            %s, \"dense_seconds\": %s, \"speedup\": %s, \"max_rel_diff\": \
            %s }%s\n"
           label n nnz sparse_s (opt_num sweeps) (opt_num residual)
           (opt_num dense_s) (opt_num speedup) (opt_num diff)
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out json_path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "  [solver scaling written to %s]\n\n" json_path

let () =
  if Array.length Sys.argv > 1 then begin
    prerr_endline "solver: takes no arguments";
    exit 2
  end;
  run_solver_bench ()
